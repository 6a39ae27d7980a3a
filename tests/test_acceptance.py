"""End-to-end acceptance checks, one test per criterion.

Each criterion prints a single PASS/FAIL line (with its wall time) into the
terminal summary.  Runtimes are reported but deliberately not asserted:
they depend on the host, and a slow pass is still a pass.
"""

import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations
from math import comb, sqrt

import numpy as np

from conftest import ACCEPTANCE_LINES
from test_enumeration import labeled_bruteforce_classes
from trispec import (
    GcbSpec,
    TriangleFamily,
    build_delta0,
    build_delta1,
    build_laplacian,
    check_counting,
    check_overlap,
    check_rigidity,
    complete_family,
    eigenvalues_symmetric,
    eigvec_bc,
    eigvec_c,
    eigvec_matrix,
    eigvec_residual,
    enumerate_connected_families,
    exact_rank,
    forbidden_interval,
    frobenius_decompose,
    frobenius_threshold,
    gcb_closed_form_spectrum,
    gcb_family,
    guarded_ceil,
    harmonic_dimension,
    lambda_of,
    lambda_staircase,
    lambda_staircase_many,
    phi_exact,
    phi_lower_bound_family,
    random_families,
    spectral_report,
    support_graph,
    verify_min_gap,
)

RANDOM_SEED = 2026
GCB_GRID = [(c, b) for c in (3, 4, 5) for b in (1, 2, 3)]


@contextmanager
def criterion(num: int, label: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(
            f"criterion {num:2d} FAIL {label} ({time.monotonic() - started:.2f}s)"
        )
        raise
    ACCEPTANCE_LINES.append(
        f"criterion {num:2d} PASS {label} ({time.monotonic() - started:.2f}s)"
    )


@lru_cache(maxsize=1)
def _randoms() -> tuple[TriangleFamily, ...]:
    return tuple(random_families(50, RANDOM_SEED, max_vertices=8))


@lru_cache(maxsize=1)
def _construction_corpus() -> tuple[TriangleFamily, ...]:
    intro = (
        TriangleFamily(((1, 2, 3),)),
        TriangleFamily(((1, 2, 3), (1, 2, 4))),
        TriangleFamily(((1, 2, 3), (1, 2, 4), (1, 3, 4))),
        complete_family(4),
    )
    kn = tuple(complete_family(n) for n in range(3, 9))
    gcb = tuple(gcb_family(GcbSpec(c, b)) for c, b in GCB_GRID)
    return intro + kn + gcb


def test_criterion_01_complete_family_spectra():
    with criterion(1, "lambda of full K_n equals n for n=3..8"):
        for n in range(3, 9):
            assert abs(lambda_of(complete_family(n)) - n) <= 1e-8


def test_criterion_02_intro_table():
    with criterion(2, "four-vertex intro families score 3, 2, 1, 4"):
        fams = _construction_corpus()[:4]
        for fam, want in zip(fams, (3.0, 2.0, 1.0, 4.0)):
            assert abs(lambda_of(fam) - want) <= 1e-8


def test_criterion_03_join_family_closed_form():
    with criterion(3, "join-family spectra match the closed form on the 3x3 grid"):
        for c, b in GCB_GRID:
            spec = GcbSpec(c, b)
            fam = gcb_family(spec)
            closed = gcb_closed_form_spectrum(spec)
            eigs = eigenvalues_symmetric(
                build_laplacian("L2_down", fam).astype(float)
            )
            assert closed.total_multiplicity() == len(fam) == len(eigs)
            counts = {value: 0 for value, _ in closed.rows}
            for e in eigs:
                value = min(counts, key=lambda v: abs(e - v))
                assert abs(e - value) <= 1e-8  # well inside the 1e-6 cluster radius
                counts[value] += 1
            assert counts == {value: mult for value, mult in closed.rows}


def test_criterion_04_exact_eigenvectors():
    with criterion(4, "closed-form eigenvectors have zero residual and full rank"):
        for c, b in GCB_GRID:
            spec = GcbSpec(c, b)
            fam = gcb_family(spec)
            l1up = build_laplacian("L1_up", fam)
            l2down = build_laplacian("L2_down", fam)
            w_vecs = [eigvec_bc(spec, x, y) for x, y in combinations(range(1, c + 1), 2)]
            assert all(eigvec_residual(l1up, w, b + c) for w in w_vecs)
            assert exact_rank(eigvec_matrix(w_vecs)) == comb(c, 2)
            if b >= 2:
                v_vecs = [
                    eigvec_c(spec, x, y)
                    for x in range(2, c + 1)
                    for y in range(c + 1, b + c)
                ]
                assert all(eigvec_residual(l2down, v, c) for v in v_vecs)
                assert exact_rank(eigvec_matrix(v_vecs)) == (b - 1) * (c - 1)


def test_criterion_05_hodge_identities():
    with criterion(5, "Hodge identities hold on 50 seeded random families"):
        fams = _randoms()
        assert len(fams) == 50
        for fam in fams:
            graph = support_graph(fam)
            d0 = build_delta0(graph)
            d1 = build_delta1(fam)
            assert not np.any(d1 @ d0)
            r0, r1 = exact_rank(d0), exact_rank(d1)
            edges = d0.shape[0]
            assert r0 + r1 + harmonic_dimension(d0, d1) == edges
            up = eigenvalues_symmetric((d1.T @ d1).astype(float))
            down = eigenvalues_symmetric((d1 @ d1.T).astype(float))
            if r1:
                gap = np.abs(up[edges - r1 :] - down[len(fam) - r1 :]).max()
                assert gap <= 1e-8


def test_criterion_06_min_gap_identity():
    with criterion(6, "edge-Laplacian minimum gap identity within 1e-7"):
        for fam in _randoms() + _construction_corpus():
            check = verify_min_gap(spectral_report(fam))
            assert check.ok and abs(check.residual) <= 1e-7


def test_criterion_07_structural_certificates():
    with criterion(7, "overlap and counting certificates, sharp on K_5"):
        for fam in _randoms() + _construction_corpus():
            assert check_overlap(fam).passed
            cert = check_counting(fam)
            assert cert.passed
            if cert.lam > 2 + 1e-9:
                assert cert.applicable and cert.checks
        k5 = check_overlap(complete_family(5))
        ceil = guarded_ceil(k5.lam)
        assert k5.min_edge_codegree == ceil - 2
        assert k5.min_degree == ceil - 1


def test_criterion_08_exhaustive_phi():
    with criterion(8, "exact phi for t<=5, enumerator checked against brute force"):
        for t, count in ((1, 1), (2, 2), (3, 9)):
            ours = {f.triangles for f in enumerate_connected_families(t)}
            assert ours == labeled_bruteforce_classes(t)
            assert len(ours) == count
        for t, want in ((1, 3.0), (2, 3.0), (3, 3.0), (4, 4.0)):
            entry = phi_exact(t)
            assert entry.exhaustive
            assert abs(entry.phi - want) <= 1e-8
        five = phi_exact(5)
        assert five.exhaustive
        assert five.phi <= 4.0 + 1e-8
        verdict = check_rigidity(5, five.witness)
        assert verdict.branch == "below_budget" and verdict.passed


def test_criterion_09_staircase_and_bounds():
    with criterion(9, "staircase, growth-remark bounds, forbidden intervals"):
        ts = np.arange(3, 10**6 + 1, dtype=np.int64)
        vals = lambda_staircase_many(ts)
        oracle = np.empty(len(ts), dtype=np.int64)
        n, nxt = 3, comb(4, 3)
        for i, t in enumerate(range(3, 10**6 + 1)):
            while nxt <= t:
                n += 1
                nxt = comb(n + 1, 3)
            oracle[i] = n
        assert np.array_equal(vals, oracle)
        for m in range(3, 60):
            edge = comb(m, 3)
            assert lambda_staircase(edge) == m
            want = m + 1 if comb(m + 1, 3) <= edge + 1 else m
            assert lambda_staircase(edge + 1) == want
        cbrt = np.cbrt(6.0 * ts)
        assert np.all(cbrt - 1 <= vals)
        assert np.all(vals < cbrt + 3)
        iv6 = forbidden_interval(6)
        assert (iv6.m, iv6.t_low, iv6.t_high) == (2, 21, 22)
        for n in range(10, 201):
            iv = forbidden_interval(n)
            assert n * n / 6 - 5 * n / (2 * sqrt(3)) + 3 <= comb(iv.m + 1, 2) + 1e-9


def test_criterion_10_frobenius_and_growth():
    with criterion(10, "Frobenius decompositions and growth witnesses"):
        for a in (3, 4):
            lo = 2 * a**3 + 2 * a**2 + 1
            assert frobenius_threshold(a) == lo
            for n in range(lo, lo + 301):
                d = frobenius_decompose(a, n)
                assert d.verify() and not d.below_guarantee
            for n in (lo, lo + 7, lo + 300):
                fam = frobenius_decompose(a, n).family()
                assert len(fam) == n
        for t in (81, 200, 500, 3000):
            witness = phi_lower_bound_family(t)
            floor_a = 1
            while 3 * (floor_a + 1) ** 3 <= t:
                floor_a += 1
            assert witness.a == floor_a
            assert len(witness.family) == t
            assert lambda_of(witness.family) >= floor_a - 1e-8
