"""
MatrixMarket export and round trip
==================================

All incidence matrices and Laplacians are integer matrices, so they
survive a file round trip bit for bit; the spectral parameter computed
from the re-read matrix matches the direct computation to roundoff.
"""

import tempfile
from pathlib import Path

import numpy as np

from trispec import (
    build_laplacian,
    complete_family,
    eigenvalues_symmetric,
    lambda_of,
    read_matrix_market,
    write_matrix_market,
)

fam = complete_family(5)
kind = "L2_down"
l2 = build_laplacian(kind, fam)
print(f"K_5 triangle Laplacian: {l2.shape[0]} x {l2.shape[1]}, kind {kind}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "k5_l2down.mtx"
    write_matrix_market(path, l2, comment="triangle Laplacian of the complete family on 5 vertices")
    print("wrote", path.name, f"({path.stat().st_size} bytes)")

    back = read_matrix_market(path)
    print("round trip exact:", bool(np.array_equal(back, l2)))

    eigs = eigenvalues_symmetric(back.astype(float))
    smallest_positive = float(eigs[eigs > 1e-10][0])
    print(f"lambda from file {smallest_positive:.12f}  direct {lambda_of(fam):.12f}")
