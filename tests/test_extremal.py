import math
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec import (
    TriangleFamily,
    check_counting,
    check_overlap,
    check_rigidity,
    complete_family,
    disjoint_union,
    forbidden_interval,
    gcb_family,
    GcbSpec,
    guarded_ceil,
    lambda_of,
    lambda_staircase,
    near_integer,
    random_families,
    vertex_window_check,
)


def test_guarded_ceil_and_near_integer():
    assert guarded_ceil(3.0) == 3
    assert guarded_ceil(3.0 + 5e-10) == 3  # round-off above an integer
    assert guarded_ceil(3.1) == 4
    assert near_integer(2.9999999996)
    assert not near_integer(2.5)


def test_overlap_bounds_hold_on_corpus():
    corpus = [complete_family(n) for n in range(3, 7)]
    corpus += [gcb_family(GcbSpec(c, b)) for c in (3, 4) for b in (1, 2)]
    corpus += random_families(30, 13)
    for fam in corpus:
        cert = check_overlap(fam)
        assert cert.passed, (fam.triangles, cert)


def test_overlap_sharp_on_k5():
    cert = check_overlap(complete_family(5))
    assert cert.n == 5
    assert cert.min_edge_codegree == cert.n - 2  # exactly n-2 triangles per edge
    assert cert.min_degree == cert.n - 1
    assert cert.min_common_neighbors == cert.n - 2
    assert cert.vertex_count == cert.n
    assert cert.lambda_near_integer


def _overlap_deficit(part: TriangleFamily, ceiling: int) -> int:
    """Codegree units the edges of `part` lack for every edge to lie in
    ceiling - 2 triangles."""
    codegree: dict[tuple[int, int], int] = {}
    for tri in part:
        for edge in combinations(tri, 2):
            codegree[edge] = codegree.get(edge, 0) + 1
    return sum(max(0, ceiling - 2 - c) for c in codegree.values())


@st.composite
def _family_and_part(draw):
    """A dense family, the triangles of K6 or K7 less a few, and a nonempty
    sub-family less a few more."""
    pool = list(combinations(range(1, draw(st.sampled_from([6, 7])) + 1), 3))
    dropped = draw(st.sets(st.sampled_from(pool), max_size=8))
    tris = [tri for tri in pool if tri not in dropped]
    left_out = draw(st.sets(st.sampled_from(tris[1:]), max_size=6))
    part = [tri for tri in tris if tri not in left_out]
    return TriangleFamily(tuple(tris)), TriangleFamily(tuple(part))


@settings(max_examples=60, deadline=None)
@given(_family_and_part())
def test_overlap_deficit_of_a_sub_family_is_covered_by_the_added_triangles(pair):
    # The phi sweep's overlap cut: every support edge of F lies in at least
    # ceil(lambda(F)) - 2 triangles, and each triangle of F outside P raises
    # the codegree of at most 3 edges of P.
    family, part = pair
    deficit = _overlap_deficit(part, guarded_ceil(lambda_of(family)))
    assert deficit <= 3 * (len(family) - len(part))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_overlap_deficit_is_tight_for_a_clique_minus_one_triangle(n):
    # The three edges of the missing triangle lie in n - 3 triangles of P,
    # one short of n - 2: the factor 3 cannot be lowered.
    family = complete_family(n)
    part = TriangleFamily(family.triangles[:-1])
    assert guarded_ceil(lambda_of(family)) == n
    assert _overlap_deficit(part, n) == 3 * (len(family) - len(part)) == 3


def test_counting_bounds_hold_and_are_integer_exact():
    fam = complete_family(6)
    cert = check_counting(fam)
    assert cert.applicable and cert.passed
    assert cert.ceil_lambda == 6
    for _, lhs, rhs in cert.checks:
        assert isinstance(lhs, int) and isinstance(rhs, int)
        assert lhs <= rhs
    # v(n-1)(n-2) = 6*5*4 = 120 == 6t exactly: the clique is tight
    assert cert.checks[2][1] == 120 == 6 * len(fam)


def test_counting_vacuous_below_two():
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4), (1, 3, 4)))
    assert abs(lambda_of(fam) - 1.0) < 1e-8
    cert = check_counting(fam)
    assert not cert.applicable
    assert cert.passed
    assert cert.checks == ()


def test_counting_on_random_families():
    for fam in random_families(40, 29):
        assert check_counting(fam).passed


def test_rigidity_below_budget():
    full = complete_family(5)
    sub = TriangleFamily(full.triangles[:-1])
    verdict = check_rigidity(5, sub)
    assert verdict.branch == "below_budget"
    assert verdict.passed
    assert verdict.lam <= 4 + 1e-8


def test_rigidity_at_budget_forces_clique():
    verdict = check_rigidity(6, complete_family(6))
    assert verdict.branch == "at_budget_excess"
    assert verdict.passed
    assert abs(verdict.lam - 6) <= 1e-8 and verdict.vertex_count == 6


def test_rigidity_silent_when_at_budget_without_excess():
    # comb(6,3)=20 triangles that are not a clique: lambda stays <= 5,
    # so the at-budget implication has nothing to say.
    fam = disjoint_union(complete_family(5), gcb_family(GcbSpec(4, 1)))
    assert len(fam) == 20
    verdict = check_rigidity(6, fam)
    assert verdict.branch == "none"
    assert verdict.passed


def test_rigidity_none_branch_above_budget():
    verdict = check_rigidity(4, complete_family(5))
    assert verdict.branch == "none" and verdict.passed


def test_forbidden_interval_frozen_values():
    fi6 = forbidden_interval(6)
    assert (fi6.m, fi6.t_low, fi6.t_high) == (2, 21, 22)
    fi9 = forbidden_interval(9)
    assert (fi9.m, fi9.t_low, fi9.t_high) == (4, 85, 93)
    assert forbidden_interval(3).empty
    assert not fi6.empty


def test_staircase_matches_bruteforce_definition():
    for t in range(1, 2000):
        n = lambda_staircase(t)
        assert comb(n, 3) <= t
        assert comb(n + 1, 3) > t
        assert n >= 3
    # Bisection reaches answers far beyond a step-by-step walk.
    for n in (10**17 + 3, 2**70):
        assert lambda_staircase(comb(n, 3)) == n
        assert lambda_staircase(comb(n, 3) - 1) == n - 1
    with pytest.raises(ValueError):
        lambda_staircase(0)


def test_staircase_remark_bounds():
    for t in list(range(3, 3000)) + [10**5, 10**6]:
        n = lambda_staircase(t)
        cube = (6 * t) ** (1 / 3)
        assert cube - 1 <= n < cube + 3


def test_h_lower_bound_against_binomial():
    # For each n, the square bump in the forbidden zone never exceeds the
    # binomial cap: n^2/6 - 5n/(2 sqrt 3) + 3 <= C(m+1, 2).
    for n in range(10, 201):
        fi = forbidden_interval(n)
        bound = n * n / 6 - 5 * n / (2 * math.sqrt(3)) + 3
        assert bound <= comb(fi.m + 1, 2) + 1e-9, n


def test_vertex_window_inapplicable_cases_pass():
    assert vertex_window_check(complete_family(4), 9).passed
    fam = complete_family(9)
    assert vertex_window_check(fam, 9).passed  # at budget, not inside the window
    with pytest.raises(ValueError):
        vertex_window_check(fam, 8)


def test_vertex_window_between_budgets():
    # 85 triangles on 10 vertices: inside the (9, 10) budget window. The
    # check only fires when lambda exceeds 8; either way it must pass.
    base = complete_family(9)
    extra = TriangleFamily(base.triangles + ((1, 2, 10),))
    verdict = vertex_window_check(extra, 9)
    assert verdict.passed


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(list(combinations(range(1, 9), 3))), min_size=1, max_size=14))
def test_certificates_hold_on_drawn_families(tris):
    fam = TriangleFamily(tuple(tris))
    lam = lambda_of(fam)
    overlap, counting = check_overlap(fam), check_counting(fam)
    assert overlap.passed and counting.passed
    assert overlap == check_overlap(fam, lam)
    assert counting == check_counting(fam, lam)
    n = 3  # the n with comb(n - 1, 3) < |T| <= comb(n, 3)
    while comb(n, 3) < len(fam):
        n += 1
    assert check_rigidity(n, fam).passed
