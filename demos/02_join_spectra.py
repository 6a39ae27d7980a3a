"""
Join families and their closed-form spectra
===========================================
"""

from itertools import combinations

from trispec import (
    GcbSpec,
    build_laplacian,
    eigenvalues_symmetric,
    eigvec_bc,
    eigvec_c,
    eigvec_residual,
    gcb_closed_form_spectrum,
    gcb_family,
    gcb_lambda,
    lambda_of,
)

# a clique of size c joined to b independent apex vertices
spec = GcbSpec(c=4, b=2)
fam = gcb_family(spec)
print(f"join family c={spec.c} b={spec.b}: {len(fam)} triangles")

closed = gcb_closed_form_spectrum(spec)
print("closed form (eigenvalue, multiplicity):", closed.rows)

gram = build_laplacian("L2_down", fam)
eigs = eigenvalues_symmetric(gram.astype(float))
print("computed spectrum:", [round(float(e), 9) + 0.0 for e in eigs])
print("predicted lambda:", gcb_lambda(spec), " computed:", round(lambda_of(fam), 9))

# the eigenvectors are integer vectors and satisfy their equations with no roundoff
l1up = build_laplacian("L1_up", fam)
w_ok = all(
    eigvec_residual(l1up, eigvec_bc(spec, x, y), spec.b + spec.c)
    for x, y in combinations(range(1, spec.c + 1), 2)
)
v_ok = all(
    eigvec_residual(gram, eigvec_c(spec, x, y), spec.c)
    for x in range(2, spec.c + 1)
    for y in range(spec.c + 1, spec.b + spec.c)
)
print("top eigenvectors exact:", w_ok, " middle eigenvectors exact:", v_ok)
