from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from trispec import (
    GcbSpec,
    build_laplacian,
    complete_family,
    eigenvalues_symmetric,
    eigvec_bc,
    eigvec_c,
    eigvec_matrix,
    eigvec_residual,
    exact_rank,
    frobenius_decompose,
    frobenius_threshold,
    gcb_closed_form_spectrum,
    gcb_family,
    gcb_lambda,
    lambda_of,
    parse_construction,
    phi_lower_bound_family,
)

GRID = [(c, b) for c in (3, 4, 5) for b in (1, 2, 3)]


def test_complete_family_counts():
    assert len(complete_family(4)) == 4
    assert len(complete_family(6)) == 20
    with pytest.raises(ValueError):
        complete_family(2)


def test_gcb_family_size_and_support():
    for c, b in GRID:
        spec = GcbSpec(c, b)
        fam = gcb_family(spec)
        assert len(fam) == comb(c, 3) + b * comb(c, 2) == spec.triangle_count
        assert fam.vertices() == tuple(range(1, c + b + 1))
    with pytest.raises(ValueError):
        GcbSpec(2, 1)
    with pytest.raises(ValueError):
        GcbSpec(3, 0)


def test_gcb_closed_form_totals():
    for c, b in GRID:
        spec = GcbSpec(c, b)
        closed = gcb_closed_form_spectrum(spec)
        assert closed.total_multiplicity() == spec.triangle_count
        # trace of the triangle-indexed Laplacian is 3 per triangle
        assert closed.trace() == 3 * spec.triangle_count


def test_gcb_spectrum_matches_closed_form():
    for c, b in GRID:
        spec = GcbSpec(c, b)
        fam = gcb_family(spec)
        gram = build_laplacian("L2_down", fam).astype(float)
        eigs = eigenvalues_symmetric(gram)
        want = np.array(gcb_closed_form_spectrum(spec).expand(), dtype=float)
        assert eigs.shape == want.shape
        assert np.max(np.abs(eigs - want)) < 1e-8


def test_gcb_lambda_closed_form():
    for c, b in GRID:
        spec = GcbSpec(c, b)
        want = c + 1 if b == 1 else c
        assert gcb_lambda(spec) == want
        assert abs(lambda_of(gcb_family(spec)) - want) < 1e-8


def test_eigvec_residuals_are_exactly_zero():
    for c, b in GRID:
        spec = GcbSpec(c, b)
        fam = gcb_family(spec)
        l2 = build_laplacian("L2_down", fam)
        l1up = build_laplacian("L1_up", fam)
        for x, y in combinations(range(1, c + 1), 2):
            assert eigvec_residual(l1up, eigvec_bc(spec, x, y), b + c)
        if b >= 2:
            for x in range(2, c + 1):
                for y in range(c + 1, b + c):
                    assert eigvec_residual(l2, eigvec_c(spec, x, y), c)


def test_eigvec_families_have_full_stated_rank():
    for c, b in GRID:
        spec = GcbSpec(c, b)
        w = [eigvec_bc(spec, x, y) for x, y in combinations(range(1, c + 1), 2)]
        assert exact_rank(eigvec_matrix(w)) == comb(c, 2)
        if b >= 2:
            v = [
                eigvec_c(spec, x, y)
                for x in range(2, c + 1)
                for y in range(c + 1, b + c)
            ]
            assert exact_rank(eigvec_matrix(v)) == (b - 1) * (c - 1)


def test_eigvec_reads_a_given_family_and_residual_is_exact():
    spec = GcbSpec(5, 3)
    fam = gcb_family(spec)
    l2 = build_laplacian("L2_down", fam)
    l1up = build_laplacian("L1_up", fam)
    assert eigvec_bc(spec, 2, 4, fam) == eigvec_bc(spec, 2, 4)
    assert eigvec_c(spec, 3, 7, fam) == eigvec_c(spec, 3, 7)
    w = eigvec_bc(spec, 2, 4, fam)
    assert eigvec_residual(l1up, w, 8) and not eigvec_residual(l1up, w, 7)
    # One entry off by the least step the cleared denominators can show.
    off = list(w)
    off[0] += Fraction(1, 3)
    assert not eigvec_residual(l1up, off, 8)
    # Entries past 2**53 stay exact: a float product would round them.
    big = [Fraction(2**60 + 1) * v for v in eigvec_c(spec, 3, 7, fam)]
    assert eigvec_residual(l2, big, 5)
    assert eigvec_residual(l2.astype(object), big, 5)


def test_eigvec_argument_validation():
    spec = GcbSpec(4, 2)
    with pytest.raises(ValueError):
        eigvec_c(GcbSpec(4, 1), 2, 5)
    with pytest.raises(ValueError):
        eigvec_c(spec, 1, 5)
    # The apexes of gcb:4,2 are 5 and 6; y must be an apex other than the last.
    for y in (4, 6):
        with pytest.raises(ValueError, match="y must satisfy"):
            eigvec_c(spec, 2, y)
    with pytest.raises(ValueError):
        eigvec_bc(spec, 3, 3)


def test_frobenius_threshold_values():
    assert frobenius_threshold(3) == 2 * 27 + 2 * 9 + 1
    assert frobenius_threshold(4) == 2 * 64 + 2 * 16 + 1


def test_frobenius_decompose_reconstructs_budget():
    for a in (3, 4):
        lo = frobenius_threshold(a)
        for n in range(lo, lo + 120):
            dec = frobenius_decompose(a, n)
            assert dec.a == a and dec.n == n
            assert dec.x >= 1 and dec.y >= 1 and dec.z >= 1
            total = sum(
                comb(a + i, 3) + parts * comb(a + i, 2)
                for i, parts in enumerate((dec.x, dec.y, dec.z))
            )
            assert total == n
            assert not dec.below_guarantee
            assert len(dec.family()) == n


def test_frobenius_hand_checked_case():
    dec = frobenius_decompose(3, 73)
    total = (
        comb(3, 3) + dec.x * comb(3, 2)
        + comb(4, 3) + dec.y * comb(4, 2)
        + comb(5, 3) + dec.z * comb(5, 2)
    )
    assert total == 73


def test_frobenius_below_threshold():
    # Smallest budget expressible with one part of each size is 4+10+20 = 34.
    dec = frobenius_decompose(3, 34)
    assert dec.below_guarantee
    assert (dec.x, dec.y, dec.z) == (1, 1, 1)
    with pytest.raises(ValueError):
        frobenius_decompose(3, 33)
    with pytest.raises(ValueError):
        frobenius_decompose(2, 50)


def test_growth_family_budget_and_parameter():
    for t in (81, 100, 200):
        witness = phi_lower_bound_family(t)
        assert len(witness.family) == t
        assert witness.a == max(a for a in range(3, 20) if 3 * a**3 <= t)
        assert lambda_of(witness.family) >= witness.a - 1e-8
    with pytest.raises(ValueError):
        phi_lower_bound_family(80)


def test_parse_construction_round_trip():
    assert parse_construction("kn:5") == complete_family(5)
    assert parse_construction("gcb:4,2") == gcb_family(GcbSpec(4, 2))
    assert len(parse_construction("frob:3,73")) == 73
    assert len(parse_construction("phi-lb:81")) == 81
    for bad in ("kn:", "kn:2,3", "gcb:4", "quux:1", "kn:x", "plain"):
        with pytest.raises(ValueError):
            parse_construction(bad)
