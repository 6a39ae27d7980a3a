"""Eigenvalues of the combinatorial Laplacians and the spectral parameter.

The spectral parameter of a family is the smallest positive eigenvalue of
its triangle Laplacian (equal for the edge-indexed and triangle-indexed
Gram forms).  Zero/positive separation is decided by the exact rank of
the integer boundary factor, `incidence.delta1_rank` (a row reduction
that stops at the bound |E| - |V| + c that delta1 delta0 = 0 gives), never
by thresholding the floating spectrum; a zero band of
1e-7 * (1 + lambda_max) is kept as a sanity assertion only.

Eigenvalues come from LAPACK ``eigvalsh``; exact rank decides how many of
them are zero, so the solver only has to be accurate.  Gram matrices are
float64 with small integer entries, so they equal the int64 products
exactly.  A block's L1_up = delta1^T delta1 is scatter-added from its
triangles' edge columns, nine signed entries per triangle, and made once,
for lambda and for L1_total alike; the other Gram matrices (L2_down, L0_up,
delta0 delta0^T) are float products through BLAS.  Everything is
computed per connected component of the support graph: all five
Laplacians are block-diagonal across components, so merging block spectra
is exact and keeps the dense eigensolver on small matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .families import SupportGraph, TriangleFamily
from .incidence import build_delta0, delta1_from_columns, delta1_rank, edge_columns

ZERO_BAND_COEFF = 1e-7
PSD_TOL_COEFF = 1e-9
MIN_GAP_TOL = 1e-7
SYMMETRY_TOL = 1e-12


class SpectralError(RuntimeError):
    """Numerical failure: a failed eigensolve or an inconsistent spectrum."""


def eigenvalues_symmetric(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by LAPACK ``eigvalsh``.

    A stack of shape (..., n, n) gives the eigenvalues of each matrix in it,
    shape (..., n), from one ``eigvalsh`` call; LAPACK solves each slice on
    its own, so a slice's eigenvalues equal those of solving it alone, bit
    for bit.  Non-square or asymmetric input (any slice) is a ValueError,
    found by one symmetry scan over the whole stack; a LAPACK failure is a
    SpectralError, so it reports as a numerical failure, not a usage error.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("eigenvalues_symmetric expects a square matrix or a stack of them")
    diff = a - np.swapaxes(a, -1, -2)
    asym = float(np.abs(diff, out=diff).max(initial=0.0))
    del diff  # freed before eigvalsh makes its own copy of `a`
    if asym >= SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigvalsh failed: {exc}") from exc


def _check_bands(eigs: list[float], nullity: int, context: str) -> None:
    """Check a Gram matrix's ascending eigenvalues against its exact nullity.

    They come as Python floats (``ndarray.tolist()``), which compare in the
    same float64 arithmetic without a numpy scalar per element.
    """
    band = ZERO_BAND_COEFF * (1.0 + (eigs[-1] if len(eigs) else 0.0))
    if len(eigs) and eigs[0] < -PSD_TOL_COEFF * (1.0 + max(eigs[-1], 0.0)):
        raise SpectralError(f"{context}: negative eigenvalue {eigs[0]:.3e} on a Gram matrix")
    if nullity and max(abs(x) for x in eigs[:nullity]) >= band:
        raise SpectralError(
            f"{context}: eigenvalue inside the exact kernel exceeds the zero band"
        )
    if nullity < len(eigs) and eigs[nullity] <= band:
        raise SpectralError(
            f"{context}: eigenvalue at the first positive index {nullity} "
            f"({eigs[nullity]:.3e}) sits inside the zero band"
        )


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue list of one Laplacian with its exact nullity."""

    eigenvalues: tuple[float, ...]
    nullity: int
    source: str


@dataclass(frozen=True)
class SpectralReport:
    lam: float
    tau: float | None
    nullity: int
    spectrum: Spectrum
    lambda_min_plus_l0: float
    lambda_min_plus_l1_total: float
    dims: dict

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "tau": self.tau,
            "nullity": self.nullity,
            "spectrum": list(self.spectrum.eigenvalues),
            "lambda_min_plus_L0": self.lambda_min_plus_l0,
            "lambda_min_plus_L1_total": self.lambda_min_plus_l1_total,
            "dims": dict(self.dims),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# Entry (i, j) of one triangle's delta1^T delta1, i and j over its three
# edge columns, flattened row-major.
_TRIANGLE_GRAM = np.outer((1.0, -1.0, 1.0), (1.0, -1.0, 1.0)).ravel()


@dataclass(frozen=True)
class _Block:
    """One connected component: its support graph, its triangles' edge
    columns (`incidence.edge_columns`) and rank(delta1) from `delta1_rank`.

    The component is connected, so rank(delta0) is len(graph.vertices) - 1
    without elimination.
    """

    graph: SupportGraph
    columns: np.ndarray
    rank1: int

    @cached_property
    def l1_up(self) -> np.ndarray:
        """delta1^T delta1 in float64, made once: each triangle adds its
        3 x 3 sign products at its edge columns, in one ``bincount``."""
        edges = len(self.graph.edges)
        flat = self.columns[:, :, None] * edges + self.columns[:, None, :]
        weights = np.tile(_TRIANGLE_GRAM, len(self.columns))
        return np.bincount(flat.ravel(), weights, edges * edges).reshape(edges, edges)

    def l2_down(self) -> np.ndarray:
        """delta1 delta1^T in float64, from a dense delta1."""
        d1 = delta1_from_columns(self.columns, len(self.graph.edges), float)
        return d1 @ d1.T


def _blocks(family: TriangleFamily) -> list[_Block]:
    """One block per connected component; a connected family is its own
    only component."""
    return [
        _Block(part.support, edge_columns(part), delta1_rank(part))
        for part in family.components
    ]


def lambda_of(family: TriangleFamily) -> float:
    """The spectral parameter alone, skipping the graph-side eigenproblems."""
    return _lambda_tau_spectrum(family)[0]


def _lambda_tau_spectrum(family: TriangleFamily):
    if len(family) == 0:
        raise SpectralError("spectral parameter of an empty family is undefined")
    blocks = _blocks(family)
    edges = sum(len(b.graph.edges) for b in blocks)
    source = "L2_down" if len(family) <= edges else "L1_up"
    merged: list[float] = []
    nullity = 0
    for b in blocks:
        gram = b.l2_down() if source == "L2_down" else b.l1_up
        eigs = eigenvalues_symmetric(gram).tolist()
        block_nullity = gram.shape[0] - b.rank1
        _check_bands(eigs, block_nullity, source)
        nullity += block_nullity
        merged.extend(eigs)
    merged.sort()
    rank = sum(b.rank1 for b in blocks)
    if rank == 0:
        raise SpectralError("boundary factor has rank zero")
    lam = merged[nullity]
    tau = merged[nullity + 1] if rank > 1 else None
    spectrum = Spectrum(eigenvalues=tuple(merged), nullity=nullity, source=source)
    return lam, tau, spectrum, blocks


def spectral_report(family: TriangleFamily) -> SpectralReport:
    """Full spectral summary: parameter, tau, and both graph-side minima."""
    lam, tau, spectrum, blocks = _lambda_tau_spectrum(family)

    l0_min = math.inf
    l1_min = math.inf
    for b in blocks:
        d0 = build_delta0(b.graph).astype(float)
        rank0 = len(b.graph.vertices) - 1
        eigs0 = eigenvalues_symmetric(d0.T @ d0).tolist()
        _check_bands(eigs0, 1, "L0_up")  # nullity |V| - rank0 = 1
        l0_min = min(l0_min, eigs0[1])
        l1_total = d0 @ d0.T
        l1_total += b.l1_up  # into the fresh product, not the cached l1_up
        eigs1 = eigenvalues_symmetric(l1_total).tolist()
        null1 = len(b.graph.edges) - rank0 - b.rank1
        _check_bands(eigs1, null1, "L1_total")
        l1_min = min(l1_min, eigs1[null1])

    return SpectralReport(
        lam=lam,
        tau=tau,
        nullity=spectrum.nullity,
        spectrum=spectrum,
        lambda_min_plus_l0=l0_min,
        lambda_min_plus_l1_total=l1_min,
        dims={
            "vertices": sum(len(b.graph.vertices) for b in blocks),
            "edges": sum(len(b.graph.edges) for b in blocks),
            "triangles": len(family),
            "spectrum_source": spectrum.source,
        },
    )


@dataclass(frozen=True)
class MinGapCheck:
    ok: bool
    residual: float


def verify_min_gap(report: SpectralReport) -> MinGapCheck:
    """Check that the smallest positive eigenvalue of L1_total equals the
    smaller of lambda and the smallest positive eigenvalue of L0."""
    rhs = min(report.lambda_min_plus_l0, report.lam)
    residual = abs(report.lambda_min_plus_l1_total - rhs)
    return MinGapCheck(ok=residual <= MIN_GAP_TOL * max(1.0, report.lam), residual=residual)
