import json
import math
import os
from functools import lru_cache
from itertools import chain, combinations, count, permutations, repeat
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from trispec import (
    TriangleFamily,
    complete_family,
    disjoint_union,
    enumerate_connected_families,
    extremal,
    lambda_of,
    lambda_staircase,
    phi_exact,
    phi_table,
    relabel,
    spectra,
    spectral_report,
)
from trispec.incidence import build_delta1, exact_rank


def _connected(tris) -> bool:
    remaining = list(tris[1:])
    reach = set(tris[0])
    grew = True
    while grew and remaining:
        grew, keep = False, []
        for tri in remaining:
            if reach.intersection(tri):
                reach.update(tri)
                grew = True
            else:
                keep.append(tri)
        remaining = keep
    return not remaining


def labeled_bruteforce_classes(t: int) -> set[tuple]:
    """Isomorphism classes of connected t-triangle families, the slow way.

    Scans every t-subset of triples on exactly k labels (all of 1..k used,
    support connected) and keeps the subsets that are lexicographically
    minimal over all k! relabelings.  Independent of the orderly search:
    no canonicity pruning, no extension rules.
    """
    classes: set[tuple] = set()
    for k in range(3, 2 * t + 2):
        pool = list(combinations(range(1, k + 1), 3))
        if len(pool) < t:
            continue
        perms = [(0,) + p for p in permutations(range(1, k + 1))]
        for subset in combinations(pool, t):
            support = {v for tri in subset for v in tri}
            if len(support) != k or not _connected(subset):
                continue
            fam = tuple(subset)
            minimal = True
            for p in perms:
                image = tuple(
                    sorted(tuple(sorted((p[a], p[b], p[c]))) for a, b, c in fam)
                )
                if image < fam:
                    minimal = False
                    break
            if minimal:
                classes.add(fam)
    return classes


@lru_cache(maxsize=None)
def _relabelings(k: int) -> np.ndarray:
    """All k! relabelings of 1..k, one per row: row[v] is the new label of v."""
    perms = np.array(list(permutations(range(1, k + 1))), dtype=np.int8)
    return np.hstack([np.zeros((len(perms), 1), np.int8), perms])


def relabeled_min(tris: tuple, k: int) -> tuple:
    """The lex-least sorted triangle list over all k! relabelings of 1..k
    (k <= 15, so a triangle's labels pack into one base-16 code)."""
    images = np.sort(_relabelings(k)[:, np.array(tris)], axis=2).astype(np.int32)
    codes = np.sort((images[..., 0] * 16 + images[..., 1]) * 16 + images[..., 2], axis=1)
    for col in range(codes.shape[1]):
        codes = codes[codes[:, col] == codes[:, col].min()]
    return tuple((c // 256, c // 16 % 16, c % 16) for c in codes[0].tolist())


@lru_cache(maxsize=None)
def labeled_classes(t: int) -> frozenset:
    """Isomorphism classes of connected t-triangle families, by brute force.

    Up to t = 3 this is `labeled_bruteforce_classes`.  Beyond it, every
    connected t-family is a connected (t-1)-family plus one triangle
    meeting its support (delete a leaf of a spanning tree of the graph on
    triangles sharing a vertex), so each (t-1)-class on 1..k is extended
    by every triangle meeting 1..k, new vertices labeled k+1 then k+2,
    and each candidate's minimum over all relabelings is kept.  A class
    on 2t+1 vertices costs (2t+1)! relabelings, so t = 4 is the last
    size this stays cheap for.
    """
    if t <= 3:
        return frozenset(labeled_bruteforce_classes(t))
    classes = set()
    for fam in labeled_classes(t - 1):
        k = max(tri[2] for tri in fam)
        for tri in combinations(range(1, k + 3), 3):
            if tri in fam or tri[0] > k or (tri[2] == k + 2 and tri[1] != k + 1):
                continue
            classes.add(relabeled_min(tuple(sorted(fam + (tri,))), max(k, tri[2])))
    return frozenset(classes)


@pytest.mark.parametrize("t,count", [(1, 1), (2, 2), (3, 9), (4, 51)])
def test_class_counts_match_labeled_bruteforce(t, count):
    oracle = labeled_classes(t)
    ours = [fam.triangles for fam in enumerate_connected_families(t)]
    assert len(ours) == len(set(ours)) == len(oracle) == count
    assert set(ours) == oracle


@pytest.mark.parametrize("t", [2, 3, 4])
def test_lambda_multisets_match_labeled_bruteforce(t):
    oracle = sorted(round(lambda_of(TriangleFamily(tris)), 8) for tris in labeled_classes(t))
    ours = sorted(round(lambda_of(f), 8) for f in enumerate_connected_families(t))
    assert ours == oracle


@st.composite
def families_with_first_triangle(draw):
    """(tris, k): a sorted family on labels within 1..k holding (1, 2, 3),
    optionally closed under a transposition so that it has twins."""
    k = draw(st.integers(3, 7))
    pool = list(combinations(range(1, k + 1), 3))
    tris = {(1, 2, 3)} | draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    if draw(st.booleans()):
        u, w = draw(st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True))
        swap = {u: w, w: u}
        tris |= {tuple(sorted(swap.get(v, v) for v in tri)) for tri in tris}
    return tuple(sorted(tris)), k


@settings(max_examples=300, deadline=None)
@given(families_with_first_triangle())
def test_canonicity_test_equals_the_relabeling_oracle(case):
    # Each drawn family and its canonical form: the first is mostly not
    # minimal, the second is, and being isomorphic it keeps the drawn
    # family's twins and codegrees.
    tris, k = case
    for fam in (tris, relabeled_min(tris, k)):
        canonical = relabeled_min(fam, k) == fam
        assert extremal._is_lex_min(fam, k, extremal._twins(fam, k)) == canonical


def _twins_by_swapping(tris: tuple, k: int) -> list[int]:
    """The least member of each label's twin class, indexed 0..k, by brute
    force: u and w are twins iff swapping them maps the family onto itself."""
    family = set(tris)

    def swap_fixes(u: int, w: int) -> bool:
        swap = {u: w, w: u}
        return {tuple(sorted(swap.get(v, v) for v in tri)) for tri in tris} == family

    return [0] + [min(u for u in range(1, v + 1) if u == v or swap_fixes(u, v)) for v in range(1, k + 1)]


@settings(max_examples=300, deadline=None)
@given(families_with_first_triangle())
@example((((1, 2, 3),), 3))  # 1, 2, 3 are one class
@example((((1, 2, 3), (1, 2, 4), (3, 4, 5)), 6))  # 1 ~ 2, 3 ~ 4, and 6 lies in no triangle
def test_twins_equal_the_swapping_oracle(case):
    tris, k = case
    for fam in (tris, relabeled_min(tris, k)):
        assert extremal._twins(fam, k) == _twins_by_swapping(fam, k)


def _unfiltered_candidates(tris: tuple, k: int, cap: int) -> list[tuple]:
    """The candidate rule without the twin-orbit filter: lex-greater than
    the last triangle, within 1..min(k+3, cap), meeting 1..k, new labels
    consecutive from k+1."""
    return [
        tri for tri in combinations(range(1, min(k + 3, cap) + 1), 3)
        if tri > tris[-1] and tri[0] <= k
        and [v for v in tri if v > k] == list(range(k + 1, max(k, tri[2]) + 1))
    ]


def _nested_loop_candidates(tris: tuple, k: int, cap: int, twin: list[int]):
    """The candidate rule as a loop over every triple, each tested against
    the last triangle and the twin rule one by one."""
    lower = [0] * (k + 1)  # each label's next smaller twin, 0 for none
    latest: dict[int, int] = {}
    for v in range(1, k + 1):
        lower[v] = latest.get(twin[v], 0)
        latest[twin[v]] = v
    for a, b in combinations(range(1, min(k + 1, cap) + 1), 2):
        for c in range(b + 1, min(max(b, k) + 1, cap) + 1):
            tri = (a, b, c)
            if tri <= tris[-1] or any(v <= k and lower[v] and lower[v] not in tri for v in tri):
                continue
            yield tri, max(k, c)


@st.composite
def candidate_cases(draw):
    """(tris, k, cap, twin): a last triangle within 1..k+2, a cap, and twin
    classes of 1..k given by their least members."""
    k = draw(st.integers(3, 13))
    cap = draw(st.integers(3, 12))
    twin = [0]
    for v in range(1, k + 1):
        u = draw(st.integers(1, v))  # v starts a class, or joins that of u < v
        twin.append(v if u == v else twin[u])
    last = tuple(sorted(draw(st.lists(st.integers(1, k + 2), min_size=3, max_size=3, unique=True))))
    return ((1, 2, 3), last), k, cap, twin


@settings(max_examples=300, deadline=None)
@given(candidate_cases())
def test_candidate_table_yields_what_the_nested_loop_yields(case):
    assert list(extremal._candidates(*case)) == list(_nested_loop_candidates(*case))


@settings(max_examples=100, deadline=None)
@given(families_with_first_triangle())
@example((((1, 2, 3),), 3))  # labels 1, 2, 3 are twins: (1, 3, 4) and (2, 3, 4) are dropped
def test_twin_rule_drops_only_non_canonical_children(case):
    # New labels stop at 7, so the oracle never relabels more than 7! ways.
    # A dropped triangle's child is never lex-min, so every lex-min child of
    # the unfiltered rule is kept.
    tris, k = case
    for fam in (tris, relabeled_min(tris, k)):
        unfiltered = _unfiltered_candidates(fam, k, 7)
        kept = [tri for tri, _ in extremal._candidates(fam, k, 7, extremal._twins(fam, k))]
        assert set(kept) <= set(unfiltered)
        for tri in set(unfiltered) - set(kept):
            child = fam + (tri,)
            assert relabeled_min(child, max(k, tri[2])) != child


def test_enumeration_is_deterministic():
    a = [f.triangles for f in enumerate_connected_families(3)]
    b = [f.triangles for f in enumerate_connected_families(3)]
    assert a == b
    assert a[0] == ((1, 2, 3),) or a[0][0] == (1, 2, 3)


def test_enumerated_families_are_connected_and_small():
    for t in (1, 2, 3, 4):
        for fam in enumerate_connected_families(t):
            assert len(fam) == t
            assert _connected(fam.triangles)
            assert len(fam.vertices()) <= 2 * t + 1
            assert fam.triangles[0] == (1, 2, 3)


def test_class_count_regression_at_t4():
    # Frozen from this implementation after the t <= 3 oracle checks; guards
    # against regressions in the extension or canonicity rules.
    assert sum(1 for _ in enumerate_connected_families(4)) == 51


def test_class_count_and_order_at_t5():
    fams = [f.triangles for f in enumerate_connected_families(5)]
    assert len(fams) == 361
    assert all(a < b for a, b in zip(fams, fams[1:]))


def test_default_vertex_budget_yields_every_connected_class_at_t6():
    # 19 of the 3,683 classes need 13 = 2t + 1 vertices.
    assert sum(1 for _ in enumerate_connected_families(6)) == 3683


def test_vertex_cap_argument():
    # A budget above 2t + 1 is the full search; one below 3 holds no triangle.
    assert [f.triangles for f in enumerate_connected_families(5, max_vertices=13)] == [
        f.triangles for f in enumerate_connected_families(5)
    ]
    assert phi_exact(2, max_vertices=20).to_dict() == phi_exact(2).to_dict()
    with pytest.raises(ValueError):
        phi_exact(2, max_vertices=2)
    limited = list(enumerate_connected_families(2, max_vertices=4))
    assert [f.triangles for f in limited] == [((1, 2, 3), (1, 2, 4))]


def test_default_phi_is_exhaustive_without_the_counting_bound(monkeypatch):
    # The default budget 2t + 1 covers every connected family, so the
    # entry is exhaustive even when the counting bound rules nothing out.
    monkeypatch.setattr(extremal, "_vertex_limit", lambda *args: math.inf)
    assert phi_exact(7).exhaustive


def test_phi_small_budgets():
    values = {1: 3.0, 2: 3.0, 3: 3.0, 4: 4.0}
    for t, want in values.items():
        entry = phi_exact(t)
        assert entry.exhaustive
        assert abs(entry.phi - want) < 1e-8
        assert len(entry.witness) == t
        assert abs(lambda_of(entry.witness) - entry.phi) < 1e-9


def test_phi_five_is_three_with_the_windmill_witness():
    # The seed W_5 = (1,2,3), (1,4,5), ..., (1,10,11) is connected and no
    # swept family of 5 triangles beats its exact lambda = 3.
    entry = phi_exact(5)
    assert entry.exhaustive
    assert entry.phi == 3.0
    assert entry.witness.triangles == extremal._windmill(5)
    assert len(entry.witness.components) == 1
    assert lambda_of(entry.witness) == 3.0


def test_windmill_seed_is_canonical_with_lambda_exactly_three():
    # d1 d1^T = 3I, so both solvers return 3.0 to the bit, and a checkpoint
    # holding the seed passes the check against `_sweep_lambda`.
    # `_is_lex_min` grows about tenfold per blade on a windmill, so it is
    # checked up to W_7 (15 labels), and against brute force up to W_3.
    for r in range(1, 16):
        windmill = extremal._windmill(r)
        assert extremal._sweep_lambda(windmill) == 3.0
        assert lambda_of(TriangleFamily(windmill)) == 3.0
        k = 2 * r + 1
        if r <= 7:
            assert extremal._is_lex_min(windmill, k, extremal._twins(windmill, k))
        if k <= 8:
            assert relabeled_min(windmill, k) == windmill


_SMALL_FAMILIES = st.lists(
    st.sets(st.integers(1, 7), min_size=3, max_size=3).map(lambda v: tuple(sorted(v))),
    min_size=1,
    max_size=10,
).map(lambda tris: TriangleFamily(tuple(tris)))


@settings(max_examples=100, deadline=None)
@given(_SMALL_FAMILIES, _SMALL_FAMILIES, st.data())
def test_gluing_two_families_at_one_vertex_keeps_the_lesser_lambda(first, second, data):
    # The gluing lemma phi rests on: families sharing at most one vertex
    # share no edge, so d1 d1^T of their union is block-diagonal.
    at = data.draw(st.sampled_from(first.vertices()))
    joint = data.draw(st.sampled_from(second.vertices()))
    fresh = iter(range(max(first.vertices()) + 1, 100))
    moved = relabel(second, {v: at if v == joint else next(fresh) for v in second.vertices()})
    glued = TriangleFamily(first.triangles + moved.triangles)
    assert len(glued) == len(first) + len(second)
    assert len(glued.vertices()) == len(first.vertices()) + len(second.vertices()) - 1
    want = min(lambda_of(first), lambda_of(second))
    assert lambda_of(glued) == pytest.approx(lambda_of(disjoint_union(first, second)), abs=1e-9)
    assert lambda_of(glued) == pytest.approx(want, abs=1e-9)


def test_default_phi_witnesses_are_connected():
    # By the gluing lemma the best connected family of each size is phi.
    table = phi_table(9)
    for t, entry in table.entries.items():
        assert entry.exhaustive
        assert len(entry.witness) == t
        assert len(entry.witness.components) == 1
        assert entry.phi == entry.connected_max[-1]
    assert table.entries[8].witness.triangles == (
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 5, 6), (1, 5, 7), (1, 6, 7), (2, 3, 4), (5, 6, 7)
    )  # two K_4 sharing vertex 1


def test_capped_phi_is_the_maximum_over_families_within_the_cap():
    # Every family on at most 5 vertices is a subfamily of K_5 up to
    # relabeling, so brute force over those gives phi under the cap 5.
    k5 = complete_family(5).triangles
    for t in range(1, 7):
        want = max(lambda_of(TriangleFamily(tris)) for tris in combinations(k5, t))
        entry = phi_exact(t, max_vertices=5)
        assert entry.phi == pytest.approx(want, abs=1e-9)
        assert len(entry.witness.vertices()) <= 5
    entry = phi_exact(4, max_vertices=5)
    assert entry.exhaustive and entry.witness == complete_family(4)


def test_capped_phi_witnesses_fit_the_cap():
    for t in range(1, 7):
        for cap in range(3, 2 * t + 2):
            if math.comb(cap, 3) < t:  # no t triangles fit on cap vertices
                with pytest.raises(ValueError, match=rf"no family of \d+ triangles found within {cap} vertices$"):
                    phi_exact(t, max_vertices=cap)
                continue
            entry = phi_exact(t, max_vertices=cap)
            assert len(entry.witness) == t and len(entry.witness.vertices()) <= cap
            assert abs(lambda_of(entry.witness) - entry.phi) < 1e-9


def test_capped_phi_without_a_family_in_time_is_refused():
    with pytest.raises(ValueError, match="before the time budget ran out"):
        phi_exact(5, max_vertices=10, budget_seconds=1e-9)


def test_vertex_cap_below_2t_plus_1_is_exhaustive_when_counting_bound_rules_out_the_rest():
    # Size 5 is the only one cut short by a cap of 10; beating its best
    # value 3 needs lambda > 3, and 11 * 3 * 2 > 6 * 5 rules out every
    # family on 11 or more vertices.
    full = phi_exact(5)
    capped = phi_exact(5, max_vertices=10)
    assert capped.exhaustive
    assert capped.phi == full.phi
    assert capped.connected_max == full.connected_max


def test_vertex_cap_stays_non_exhaustive_when_the_bound_does_not_apply():
    # Within 5 vertices the best 3-triangle value is 2, the true one is 3.
    entry = phi_exact(3, max_vertices=5)
    assert entry.connected_max[2] == pytest.approx(2.0)
    assert phi_exact(3).connected_max[2] == pytest.approx(3.0)
    assert not entry.exhaustive


@lru_cache(maxsize=None)
def _enumerated_max(s: int, max_vertices: int | None) -> float:
    """The largest lambda_of over every connected class of s triangles."""
    return max(lambda_of(fam) for fam in enumerate_connected_families(s, max_vertices))


def test_phi_sweep_equals_brute_force_enumeration():
    # The enumeration shares none of the sweep's cuts, carried state,
    # bordered stacks or replace rule.  Each t is its own sweep, since a cut
    # that is unsound at one budget can be harmless at another.  Equality
    # is within 1e-9, not bitwise: at cap 7 and t = 7 the sweep keeps
    # 2.9999999999999996 where one class computes as 3.0.
    for max_vertices, t_max in ((None, 5), (7, 6)):
        for t in range(1, t_max + 1):
            entry = phi_exact(t, max_vertices=max_vertices)
            assert entry.exhaustive
            assert lambda_of(entry.witness) == pytest.approx(entry.phi, abs=1e-9)
            for s in range(1, t + 1):
                want = _enumerated_max(s, max_vertices)
                assert entry.connected_max[s - 1] == pytest.approx(want, abs=1e-9)


def test_phi_sweep_stats_are_pinned():
    # Frozen work counters of a fresh phi(t).  Each candidate is decided
    # once, before its node's stack: the canonicity test runs on every
    # child with a subtree, and no other, and only a canonical one is solved
    # and entered; every childless child that interlacing does not drop is
    # solved without a canonicity test; no family is skipped at its own
    # size.  `_candidates` drops the copies not least in their twin orbit.
    # There is one stack per entered node with a child left, plus the
    # root's, and every size's windmill fits the default cap.
    keys = ("families_solved", "canonicity_tests", "stacks", "nodes_entered",
            "canonicity_rejected", "interlacing_dropped")
    pinned = {6: (33, 35, 11, 23, 13, 196), 7: (68, 92, 22, 60, 33, 618), 8: (137, 172, 41, 126, 47, 1538)}
    for t, counts in pinned.items():
        table = phi_table(t)
        assert table.entries[t].exhaustive
        assert table.stats == dict(zip(keys, counts), sizes_seeded=t)


@pytest.mark.parametrize("t,full", [(t, True) for t in range(1, 8)] + [(t, False) for t in range(1, 6)])
def test_phi_sweep_records_only_canonical_incumbents(t, full):
    # A non-canonical child is solved only when childless, and it cannot
    # replace an incumbent: its canonical form is lex-smaller and was
    # solved or cut first.  Each incumbent's lambda is its witness's.  The
    # sweep runs under the full vertex budget or under a cap of t + 2.
    cap = extremal._resolve_cap(t, None if full else t + 2)
    best, completed, _ = extremal._phi_sweep(t, cap, None, None)
    assert completed and sorted(best) == list(range(1, t + 1))
    for lam, tris in best.values():
        k = max(tri[2] for tri in tris)
        if k <= 8:
            assert relabeled_min(tris, k) == tris
        else:
            assert extremal._is_lex_min(tris, k, extremal._twins(tris, k))
        assert lam == lambda_of(TriangleFamily(tris))


@pytest.mark.parametrize("t,full", [(t, True) for t in range(1, 9)] + [(t, False) for t in range(1, 6)])
def test_phi_sweep_enters_only_canonical_nodes(t, full, monkeypatch):
    # A child with a subtree is tested for canonicity at every depth, so
    # each node the sweep enters, the root included, is the canonical
    # representative of its class, and is entered once.  `_extend` builds
    # the state of exactly the entered nodes.  The sweep runs under the
    # full vertex budget or under a cap of t + 2.
    entered = []
    extend = extremal._extend

    def recorded(node, tri):
        entered.append(node.tris + (tri,))
        return extend(node, tri)

    monkeypatch.setattr(extremal, "_extend", recorded)
    cap = extremal._resolve_cap(t, None if full else t + 2)
    _, completed, stats = extremal._phi_sweep(t, cap, None, None)
    assert completed and entered[0] == extremal._ROOT
    assert len(set(entered)) == len(entered) == stats["nodes_entered"]
    for tris in entered:
        k = max(tri[2] for tri in tris)
        assert extremal._is_lex_min(tris, k, extremal._twins(tris, k))
        if t <= 6:
            assert relabeled_min(tris, k) == tris


def test_phi_sweep_solves_each_family_once(monkeypatch):
    # A node's own evaluation keeps its (lambda, tau) for the interlacing
    # cut, and every family is solved by the sweep's own stacks, none by
    # `spectra`'s batches (which `lambda_of` and `spectral_report` use).
    solved = []
    sweep_solve = extremal._sweep_solve

    def recorded(nodes, grams):
        solved.extend(node.tris for node in nodes)
        return sweep_solve(nodes, grams)

    def refused(*args, **kwargs):
        raise AssertionError("the sweep called spectra.spectral_reports")

    monkeypatch.setattr(extremal, "_sweep_solve", recorded)
    monkeypatch.setattr(spectra, "spectral_reports", refused)
    table = phi_table(6)
    assert len(set(solved)) == len(solved) == table.stats["families_solved"]


@st.composite
def connected_family_and_candidate(draw):
    """(tris, tri): a sorted connected family on labels 1..k and one of the
    sweep's candidate triangles for it."""
    tris = [(1, 2, 3)]
    k = 3
    for _ in range(draw(st.integers(0, 8))):
        # Meet the support; new labels are k+1, then k+2.
        tri = draw(st.sampled_from([
            tri for tri in combinations(range(1, k + 3), 3)
            if tri[0] <= k and tri not in tris and (tri[2] <= k + 1 or tri[1] == k + 1)
        ]))
        tris.append(tri)
        k = max(k, tri[2])
    tris = tuple(sorted(tris))
    candidates = [tri for tri, _ in extremal._candidates(tris, k, 12, extremal._twins(tris, k))]
    edges = {edge for old in tris for edge in combinations(old, 2)}
    closing = [tri for tri in candidates if edges.issuperset(combinations(tri, 2))]
    if closing and draw(st.booleans()):
        candidates = closing  # no new support edge: the rank may or may not grow
    assume(candidates)
    return tris, draw(st.sampled_from(candidates))


@settings(max_examples=200, deadline=None)
@given(connected_family_and_candidate())
# A closing triangle whose boundary cycle no old triangles fill: the rank grows.
@example((((1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5)), (2, 4, 5)))
def test_interlacing_bounds_a_child_by_its_node(case):
    # The child's Gram matrix d1 d1^T borders the node's (Cauchy interlacing):
    # its lambda is at most the node's lambda when the rank grows, else tau.
    tris, tri = case
    node, child = TriangleFamily(tris), TriangleFamily(tris + (tri,))
    report = spectral_report(node)
    lam, tau = report.lam, report.tau
    child_lam = lambda_of(child)
    if tau is not None:
        assert child_lam <= tau + 1e-9
    if exact_rank(build_delta1(child)) > exact_rank(build_delta1(node)):
        assert child_lam <= lam + 1e-9


@st.composite
def sweep_paths(draw, canonical=False):
    """A root-to-node path of the sweep: up to 12 triangles, each one of the
    `_candidates` of the triangles before it, or with `canonical` one whose
    child is canonical.  Half the steps pick among the first few candidates,
    which close triangles on few new labels; the rest pick any candidate."""
    tris, k = ((1, 2, 3),), 3
    for _ in range(draw(st.integers(0, 11))):
        twin = extremal._twins(tris, k)
        if canonical:
            options = [(child[-1], k2) for child, k2, _ in extremal._children(tris, k, 12, twin)]
        else:
            options = list(extremal._candidates(tris, k, 12, twin))
        if not options:
            break
        if draw(st.booleans()):
            options = options[:6]
        tri, k = draw(st.sampled_from(options))
        tris += (tri,)
    return tris


def _carried(tris: tuple):
    """The sweep's state for the node `tris`, extended a triangle at a time."""
    node = extremal._EMPTY
    for tri in tris:
        node = extremal._extend(node, tri)
    return node


def _edge_columns(node, tri: tuple) -> tuple:
    """The columns of `tri`'s edges in the node's state, None for a new edge."""
    return tuple(node.columns.get(edge) for edge in combinations(tri, 2))


@settings(max_examples=200, deadline=None)
@given(sweep_paths())
def test_carried_state_matches_the_family_built_from_scratch(tris):
    node = extremal._EMPTY
    for s in range(1, len(tris) + 1):
        # A node is extended once per entered child, so extending must not touch it.
        before = (dict(node.columns), dict(node.echelon))
        child = extremal._extend(node, tris[s - 1])
        assert (dict(node.columns), dict(node.echelon)) == before
        node = child
        fam = TriangleFamily(tris[:s])
        assert node.tris == tris[:s]
        assert len(node.echelon) == exact_rank(build_delta1(fam))
        assert len(fam.components) == 1  # no candidate is all-new
        # The cuts read each codegree as the number of d1 entries in its column.
        codegree = {e: len(entries) for e, (_, entries) in node.columns.items()}
        assert codegree == fam.support.edge_triangle_count
        assert extremal._sweep_lambda(node.tris) == _lambda_tau(fam)[0]


@settings(max_examples=100, deadline=None)
@given(st.one_of(sweep_paths(), sweep_paths(canonical=True)), st.tuples(st.booleans(), st.booleans()))
# A closing triangle (2, 4, 5) whose boundary cycle no old triangle fills:
# the rank grows.  The closing (2, 3, 4) completes the boundary of K_4,
# whose row the old rows span: the rank stays.
@example(((1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5)), (False, True))
@example(((1, 2, 3), (1, 2, 4), (1, 3, 4)), (True, False))
@example(((1, 2, 3), (1, 2, 4), (1, 3, 4)), (False, True))
def test_child_records_read_their_nodes_state_without_changing_it(tris, keep):
    # A node decides every candidate from its own state without copying
    # it: the child `keep` keeps, by whether its rank grows, has the rank
    # and border of the child built from scratch, and the node's state is
    # left as it was, order included.  Only canonical nodes are entered,
    # but the state does not depend on it, so the paths need not be
    # canonical.
    node = _carried(tris)
    k = max(tri[2] for tri in tris)
    before = (list(node.columns.items()), list(node.echelon.items()))
    for tri, _ in extremal._candidates(tris, k, 12, extremal._twins(tris, k)):
        child = extremal._child_of(node, tri, _edge_columns(node, tri), keep)
        assert (list(node.columns.items()), list(node.echelon.items())) == before
        fam = TriangleFamily(tris + (tri,))
        rank = exact_rank(build_delta1(fam))
        if keep[rank > len(node.echelon)]:
            assert child == (tris + (tri,), rank, _gram(fam)[-1, :-1].tolist())
        else:
            assert child is None


def _gram(family: TriangleFamily) -> np.ndarray:
    """The family's d1 d1^T in float64, built without the sweep's state."""
    d1 = build_delta1(family).astype(float)
    return d1 @ d1.T


def _lambda_tau(family: TriangleFamily) -> tuple[float, float]:
    """`spectra`'s (lambda, tau) of a family, tau infinite at rank 1 as the sweep reads it."""
    report = spectral_report(family)
    return report.lam, math.inf if report.tau is None else report.tau


@settings(max_examples=200, deadline=None)
@given(sweep_paths(), st.data())
def test_bordered_stack_solves_each_child_as_spectra_does(tris, data):
    # The sweep solves a node's children in one stack, each Gram matrix the
    # node's bordered by the child's new row; each (lambda, tau) must be
    # exactly the one `spectra` finds for the child on its own.  The root is
    # solved as the one child of the empty node.
    root = extremal._child_of(extremal._EMPTY, (1, 2, 3), (None, None, None), (True, True))
    assert extremal._sweep_solve([root], extremal._child_grams(np.zeros((0, 0)), [root])) == [
        (3.0, math.inf)
    ]
    node = _carried(tris)
    k = max(max(tri) for tri in tris)
    candidates = [tri for tri, _ in extremal._candidates(tris, k, 12, extremal._twins(tris, k))]
    picked = data.draw(st.lists(st.sampled_from(candidates), unique=True) if candidates else st.just([]))
    children = [
        extremal._child_of(node, tri, _edge_columns(node, tri), (True, True)) for tri in sorted(picked)
    ]
    assume(children)
    stack = extremal._child_grams(_gram(TriangleFamily(tris)), children)
    for child, gram in zip(children, stack):
        assert np.array_equal(gram, _gram(TriangleFamily(child.tris)))
    solved = extremal._sweep_solve(children, stack)
    assert solved == [_lambda_tau(TriangleFamily(child.tris)) for child in children]


def _out_of_reach(best: dict, family: TriangleFamily, r: int) -> bool:
    """Whether the vertex-count or the overlap cut rules out every family
    of r triangles that contains `family` and beats best[r], computed from
    the family's own support graph."""
    m = extremal._ceiling_to_beat(best, r)
    if not m:
        return False
    graph = family.support
    if len(graph.vertices) * (m - 1) * (m - 2) > 6 * r:
        return True
    lacking = sum(max(0, m - 2 - c) for c in graph.edge_triangle_count.values())
    return lacking > 3 * (r - len(family))


@settings(max_examples=200, deadline=None)
@given(
    sweep_paths(),
    st.integers(1, 4),
    # Incumbents whose m (`_ceiling_to_beat`) is 0, 3, 4, 5 or 6, some a
    # round-off below an integer.
    st.dictionaries(
        st.integers(1, 16),
        st.sampled_from([1.5, 2.0, 2.5, 3.0 - 1e-12, 3.0, 3.5, 4.0, 4.5, 5.0 - 1e-12, 5.0]),
    ),
)
# At m = 4 the child by (1, 5, 7) lacks 10 codegrees, one more than the
# three triangles up to size 12 can add; counting its old edge (1, 5),
# at codegree m - 2 already, as lacking one less would keep size 12 in reach.
@example(((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7), (1, 2, 8), (1, 3, 4), (1, 5, 6)), 1, {})
def test_subtree_test_matches_the_cuts_on_each_child_built_from_scratch(tris, depth, lams):
    # A node runs the subtree test of its children from its own columns,
    # with each size's codegree deficit summed once per node; it must agree
    # with both cuts computed on each child's own support graph, for the
    # drawn incumbents and for every t <= s + 4 with one m from 3 to 8 at
    # each size from s + 2 to t.
    s = len(tris)
    node = _carried(tris)
    k = max(tri[2] for tri in tris)
    cases = [({r: (lam, ()) for r, lam in lams.items()}, s + depth)]
    cases += [
        ({q: (m - 1.0, ()) for q in range(s + 2, t + 1)}, t) for t in range(s + 2, s + 5) for m in range(3, 9)
    ]
    tests = [(best, t, extremal._subtree_test(best, node, t)) for best, t in cases]
    for tri, k2 in extremal._candidates(tris, k, 12, extremal._twins(tris, k)):
        child = TriangleFamily(tris + (tri,))
        cols = _edge_columns(node, tri)
        for best, t, has_subtree in tests:
            assert has_subtree(cols, k2) == (
                not all(_out_of_reach(best, child, r) for r in range(s + 2, t + 1))
            )


_PHI_TABLE_10 = os.path.join(os.path.dirname(__file__), os.pardir, "phi_table_10.json")


def test_phi_table_seven_meets_the_staircase():
    # The abstract's theorem: the best value within budget t is the largest
    # n with comb(n, 3) <= t; at budget 4 only the clique K_4 reaches 4.
    table = phi_table(7)
    envelope = table.lambda_envelope()
    for t in range(1, 8):
        assert table.entries[t].exhaustive
        assert envelope[t] == pytest.approx(lambda_staircase(t), abs=1e-8)
        assert table.entries[t].phi <= lambda_staircase(t) + 1e-8
    assert table.entries[4].witness == complete_family(4)
    # The budgets 1..7 of the committed phi_table_10.json, witnesses included.
    with open(_PHI_TABLE_10, encoding="utf-8") as handle:
        committed = json.load(handle)["table"]
    assert table.to_dict() == {str(t): committed[str(t)] for t in range(1, 8)}


def test_committed_phi_table_ten_holds_its_witnesses():
    # phi_table_10.json is the output of scripts/phi_table.py 10; it is read
    # here, not recomputed.  The table peaks at K_5 and is not monotone.
    with open(_PHI_TABLE_10, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert "scripts/phi_table.py 10" in doc["command"]
    assert set(doc["counters"]) == {"sweep_solves", "canonicity_tests"}
    table = doc["table"]
    assert set(table) == {str(t) for t in range(1, 11)}
    for key, entry in table.items():
        assert entry["t"] == int(key) and entry["exhaustive"] is True
        witness = TriangleFamily(tuple(map(tuple, entry["witness"])))
        assert len(witness) == entry["t"]
        assert abs(lambda_of(witness) - entry["phi"]) <= 1e-8
    assert len(TriangleFamily(tuple(map(tuple, table["10"]["witness"]))).vertices()) == 5
    phi = {int(t): entry["phi"] for t, entry in table.items()}
    assert phi[8] > phi[9] < phi[10]


_PHI_TABLE_12 = os.path.join(os.path.dirname(__file__), os.pardir, "phi_table_12.json")


def test_committed_phi_table_twelve_drops_after_the_k5_peak():
    # phi_table_12.json is the output of scripts/phi_table.py 12 (about 40 s);
    # it is read here, not recomputed.  After phi(10) = 5 at K_5 the table
    # drops to phi(11) = 3, below the staircase, and phi(12) = 4.
    with open(_PHI_TABLE_12, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert "scripts/phi_table.py 12" in doc["command"]
    entries = {}
    for key, entry in doc["table"].items():
        witness = TriangleFamily(tuple(map(tuple, entry["witness"])))
        assert entry["t"] == int(key) and entry["exhaustive"] is True
        assert len(witness) == entry["t"] and len(witness.components) == 1
        assert abs(lambda_of(witness) - entry["phi"]) <= 1e-8
        entries[entry["t"]] = extremal.PhiEntry(
            entry["t"], entry["phi"], witness, True, tuple(entry["connected_max"])
        )
    assert sorted(entries) == list(range(1, 13))
    assert entries[11].phi == pytest.approx(3.0, abs=1e-8)
    assert entries[12].phi == pytest.approx(4.0, abs=1e-8)
    envelope = extremal.PhiTable(entries).lambda_envelope()
    assert envelope == pytest.approx({t: lambda_staircase(t) for t in range(1, 13)}, abs=1e-8)


def test_phi_respects_time_budget_flag():
    entry = phi_exact(5, budget_seconds=1e-9)
    assert not entry.exhaustive
    assert entry.phi <= 4.0 + 1e-8


def test_phi_checkpoint_resume(tmp_path):
    want = phi_exact(5)
    path = tmp_path / "phi5.ckpt"
    partial = phi_exact(5, budget_seconds=1e-9, checkpoint=str(path))
    assert not partial.exhaustive
    assert json.loads(path.read_text())["cursor"] == [[1, 2, 3]]  # stopped at the root
    for _ in range(50):
        entry = phi_exact(5, checkpoint=str(path))
        if entry.exhaustive:
            break
    assert entry.exhaustive
    assert abs(entry.phi - want.phi) < 1e-9
    # the finished checkpoint skips every subtree, so a rerun is instant
    again = phi_exact(5, checkpoint=str(path))
    assert abs(again.phi - want.phi) < 1e-9
    doc = json.loads(path.read_text())
    assert set(doc) == {"search", "best", "cursor"}
    assert doc["search"] == {"t": 5, "cap": 11, "layout": extremal._CHECKPOINT_LAYOUT}
    assert doc["best"]["4"][0] == want.connected_max[3]
    assert len(doc["best"]["4"][1]) == 4
    assert doc["cursor"][0] == [1, 2, 3] and 1 <= len(doc["cursor"]) <= 5


def test_checkpoint_of_another_budget_is_refused(tmp_path):
    path = str(tmp_path / "phi.ckpt")
    assert phi_exact(3, checkpoint=path).phi == pytest.approx(3.0)
    with pytest.raises(ValueError, match="another search"):
        phi_exact(4, checkpoint=path)
    with pytest.raises(ValueError, match="another search"):
        phi_exact(3, max_vertices=5, checkpoint=path)
    assert phi_exact(4).phi == pytest.approx(4.0)


def test_checkpoint_at_a_disconnected_cursor_is_refused(tmp_path):
    # An all-new triangle is no candidate, so (1,2,3), (4,5,6) is not a node
    # of the sweep and a file resting on it is refused; a node resumes.
    path = tmp_path / "phi.ckpt"
    search = {"t": 5, "cap": 11, "layout": extremal._CHECKPOINT_LAYOUT}
    for cursor, refused in (([[1, 2, 3], [1, 2, 4]], False), ([[1, 2, 3], [4, 5, 6]], True)):
        path.write_text(json.dumps({"search": search, "best": {}, "cursor": cursor}))
        if refused:
            with pytest.raises(ValueError, match="is not a node of this search"):
                phi_exact(5, checkpoint=str(path))
        else:
            assert phi_exact(5, checkpoint=str(path)).to_dict() == phi_exact(5).to_dict()


def test_checkpoint_without_header_is_refused(tmp_path):
    path = tmp_path / "phi.ckpt"
    path.write_text("1,2,3;1,2,4\n")
    with pytest.raises(ValueError, match="another search"):
        phi_exact(3, checkpoint=str(path))


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, 1e308, math.nextafter(3.0, 4.0), 3])
def test_checkpoint_whose_lambda_is_not_its_witnesses_is_refused(tmp_path, lam):
    # A stored incumbent too large would cut subtrees that beat the true
    # one; the file as written resumes.
    path = tmp_path / "phi.ckpt"
    phi_exact(6, budget_seconds=1e-9, checkpoint=str(path))
    doc = json.loads(path.read_text())
    assert doc["best"]["1"] == [3.0, [[1, 2, 3]]]
    assert phi_exact(6, checkpoint=str(path)).to_dict() == phi_exact(6).to_dict()
    doc["best"]["1"][0] = lam
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="another search.*is not the float lambda of its witness"):
        phi_exact(6, checkpoint=str(path))


def test_checkpoint_compares_a_large_incumbent_with_the_sweeps_own_lambda(tmp_path):
    # K_6 has 20 triangles on 15 edges, so lambda_of solves L1_up, whose last
    # bits differ from the sweep's d1 d1^T; the file must still resume.
    tris = complete_family(6).triangles
    lam = extremal._sweep_lambda(tris)
    assert lam != lambda_of(complete_family(6)) and lam == pytest.approx(6.0)
    path = tmp_path / "phi.ckpt"
    search = {"t": 20, "cap": 12, "layout": extremal._CHECKPOINT_LAYOUT}
    best = {"20": [lam, [list(tri) for tri in tris]]}
    path.write_text(json.dumps({"search": search, "best": best, "cursor": [[1, 2, 3]]}))
    assert extremal._Checkpoint(str(path), 20, 12).best == {20: (lam, tris)}


def test_completed_checkpoint_rerun_equals_fresh(tmp_path):
    path = str(tmp_path / "phi4.ckpt")
    fresh = phi_exact(4).to_dict()
    assert phi_exact(4, checkpoint=path).to_dict() == fresh
    assert phi_exact(4, checkpoint=path).to_dict() == fresh
    assert os.listdir(tmp_path) == ["phi4.ckpt"]  # the temp file was renamed away


def test_resume_equals_fresh_at_every_interruption_point(tmp_path, monkeypatch):
    # The first clock read sets the deadline and the next n - 1 fall before
    # it, so run n stops at its n-th deadline check; the last run completes.
    fresh = phi_exact(4).to_dict()
    for n in count(1):
        path = str(tmp_path / f"{n}.ckpt")
        reads = chain(repeat(0.0, n), repeat(2.0))
        with monkeypatch.context() as patch:
            patch.setattr(extremal, "time", SimpleNamespace(monotonic=lambda: next(reads)))
            partial = phi_exact(4, budget_seconds=1.0, checkpoint=path)
        assert phi_exact(4, checkpoint=path).to_dict() == fresh
        if partial.exhaustive:
            break
    assert partial.to_dict() == fresh
    assert n > 1


def test_repeated_tiny_budget_runs_reach_the_fresh_result(tmp_path):
    # A run checks its deadline only past the cursor, so every run that
    # stops early has moved the cursor forward.
    fresh = phi_exact(5).to_dict()
    path = tmp_path / "phi5.ckpt"
    cursors = []
    for _ in range(500):
        entry = phi_exact(5, budget_seconds=1e-9, checkpoint=str(path))
        if entry.exhaustive:
            break
        cursors.append(json.loads(path.read_text())["cursor"])
    assert entry.to_dict() == fresh
    assert all(a < b for a, b in zip(cursors, cursors[1:]))


def test_keyboard_interrupt_leaves_a_checkpoint_that_resumes_to_fresh(tmp_path, monkeypatch):
    # Run n interrupts phi 6 at its n-th stack, until a run has no n-th
    # stack and completes.  Every interrupt after the root's stack leaves a
    # checkpoint at the last node entered, canonical at every depth up to
    # t - 1 = 5, and each resumes to the fresh result along the Gram
    # matrices of the path it enters again.
    fresh = phi_exact(6).to_dict()
    solve = extremal._sweep_solve
    cursors = []
    for n in count(1):
        path = tmp_path / f"{n}.ckpt"
        calls = count(1)

        def interrupted(nodes, grams):
            if next(calls) == n:
                raise KeyboardInterrupt
            return solve(nodes, grams)

        with monkeypatch.context() as patch:
            patch.setattr(extremal, "_sweep_solve", interrupted)
            try:
                entry = phi_exact(6, checkpoint=str(path))
            except KeyboardInterrupt:
                pass
            else:
                break
        assert path.exists() is (n > 1)
        if n > 1:
            cursors.append(json.loads(path.read_text())["cursor"])
            assert phi_exact(6, checkpoint=str(path)).to_dict() == fresh
    assert entry.to_dict() == fresh
    assert cursors == sorted(cursors) and max(map(len, cursors)) == 5


@pytest.mark.parametrize("t", [1, 2])
def test_checkpoint_of_a_sweep_without_tested_children_rests_on_the_root(tmp_path, t):
    # At t <= 2 the sweep tests no child's canonicity, and the root, known
    # canonical, is the cursor; the file resumes to the fresh result.
    path = tmp_path / "phi.ckpt"
    fresh = phi_exact(t).to_dict()
    assert phi_exact(t, checkpoint=str(path)).to_dict() == fresh
    assert json.loads(path.read_text())["cursor"] == [[1, 2, 3]]
    assert phi_exact(t, checkpoint=str(path)).to_dict() == fresh


def test_checkpoint_is_saved_on_an_interval_during_the_sweep(tmp_path, monkeypatch):
    # Only the clock triggers a save before the sweep ends: with a clock
    # that stands still no solve sees the file, with one that moves a save
    # interval per read some solve does.
    fresh = phi_exact(4).to_dict()
    solve = extremal._sweep_solve
    for step, saved_midway in ((0.0, False), (extremal._SAVE_SECONDS, True)):
        path = tmp_path / f"{step}.ckpt"
        reads = count(step=step)
        seen = []

        def spy(nodes, grams):
            seen.extend(path.exists() for _ in nodes)
            return solve(nodes, grams)

        with monkeypatch.context() as patch:
            patch.setattr(extremal, "time", SimpleNamespace(monotonic=lambda: next(reads)))
            patch.setattr(extremal, "_sweep_solve", spy)
            assert phi_exact(4, checkpoint=str(path)).to_dict() == fresh
        assert any(seen) is saved_midway
        assert path.exists()


def test_phi_table_envelope_reports_running_max():
    table = phi_table(5)
    envelope = table.lambda_envelope()
    assert envelope == {1: 3.0, 2: 3.0, 3: 3.0, 4: pytest.approx(4.0), 5: pytest.approx(4.0)}
    csv = table.to_csv()
    assert csv.splitlines()[0] == "t,phi,exhaustive,witness"
    assert len(csv.splitlines()) == 6
    data = table.to_dict()
    assert set(data) == {"1", "2", "3", "4", "5"}
    assert data["4"]["exhaustive"] is True


def test_phi_rejects_bad_budget():
    with pytest.raises(ValueError):
        phi_exact(0)
    for budget in (0, -1.0, math.nan):
        with pytest.raises(ValueError, match="budget_seconds must be positive"):
            phi_exact(3, budget_seconds=budget)
