import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trispec import (
    LAPLACIAN_KINDS,
    TriangleFamily,
    build_delta0,
    build_delta1,
    build_laplacian,
    delta1_rank,
    disjoint_union,
    exact_rank,
    harmonic_dimension,
    phi_lower_bound_family,
    random_families,
    relabel,
    read_matrix_market,
    support_graph,
    write_matrix_market,
)
from trispec import incidence
from trispec.families import sign_edge_vertex, sign_triangle_edge
from trispec.incidence import _reduce_row


def rank_over_rationals(matrix) -> int:
    """Plain Gaussian elimination with Fractions; the independent rank oracle."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(matrix)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_delta_matrices_of_single_triangle():
    fam = TriangleFamily(((1, 2, 3),))
    d0 = build_delta0(support_graph(fam))
    d1 = build_delta1(fam)
    # edges ordered (1,2), (1,3), (2,3); vertices 1, 2, 3
    assert d0.tolist() == [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    assert d1.tolist() == [[1, -1, 1]]
    assert not np.any(d1 @ d0)


def test_builders_return_read_only_int64_arrays():
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4), (1, 3, 4)))
    built = [build_delta0(support_graph(fam)), build_delta1(fam)]
    built += [build_laplacian(kind, fam) for kind in LAPLACIAN_KINDS]
    assert len(built) == 7
    for m in built:
        assert type(m) is np.ndarray
        assert m.dtype == np.int64
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 7


def test_laplacian_shapes_and_diagonal():
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4), (1, 3, 4)))
    l2 = build_laplacian("L2_down", fam)
    assert l2.shape == (3, 3)
    assert all(int(v) == 3 for v in l2.diagonal())
    l1t = build_laplacian("L1_total", fam)
    l1d = build_laplacian("L1_down", fam)
    l1u = build_laplacian("L1_up", fam)
    assert np.array_equal(l1t, l1d + l1u)
    with pytest.raises(ValueError):
        build_laplacian("L3", fam)


def test_composite_is_zero_on_random_families():
    for fam in random_families(50, 101):
        g = support_graph(fam)
        d0 = build_delta0(g)
        d1 = build_delta1(fam)
        assert not np.any(d1 @ d0)


def test_exact_rank_matches_fraction_oracle_on_random_int_matrices():
    rng = random.Random(5)
    for _ in range(60):
        r = rng.randint(1, 7)
        c = rng.randint(1, 7)
        m = np.array(
            [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)], dtype=np.int64
        )
        assert exact_rank(m) == rank_over_rationals(m)


def test_exact_rank_matches_oracle_on_incidence_matrices():
    for fam in random_families(40, 17):
        g = support_graph(fam)
        d0 = build_delta0(g)
        d1 = build_delta1(fam)
        assert exact_rank(d0) == rank_over_rationals(d0)
        assert exact_rank(d1) == rank_over_rationals(d1)


def test_exact_rank_survives_entries_that_overflow_int64():
    # Products of these entries pass 2**31, which int64 elimination could not carry.
    rng = random.Random(9)
    m = np.array(
        [[rng.randint(10**5, 10**6) for _ in range(6)] for _ in range(6)],
        dtype=np.int64,
    )
    assert exact_rank(m) == rank_over_rationals(m)


_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**6), 10**6))


@st.composite
def _int_matrices(draw):
    """Tall, wide and empty shapes up to 9x9; half are a product of two
    narrow factors, so rank deficits and zero rows or columns are common."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 3))
        factor = st.integers(-300, 300)
        a = np.array(draw(st.lists(factor, min_size=rows * inner, max_size=rows * inner)))
        b = np.array(draw(st.lists(factor, min_size=inner * cols, max_size=inner * cols)))
        m = a.reshape(rows, inner).astype(np.int64) @ b.reshape(inner, cols).astype(np.int64)
    else:
        values = draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))
        m = np.array(values, dtype=np.int64).reshape(rows, cols)
    return m.astype(object) if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None)
@given(_int_matrices())
def test_exact_rank_matches_fraction_oracle_property(m):
    want = rank_over_rationals(m)
    assert exact_rank(m) == want
    assert exact_rank(m.T) == want


@settings(max_examples=200, deadline=None)
@given(_int_matrices(), st.booleans())
def test_reduce_row_grows_the_rank_exactly_when_exact_rank_does(m, reverse):
    # Rows are fed one at a time, unlike exact_rank, which reduces the
    # shorter side; reversed keys lead each row by its last nonzero column.
    echelon = {}
    for i, values in enumerate(m.tolist()):
        row = {(-j if reverse else j): int(v) for j, v in enumerate(values) if v}
        grew = _reduce_row(echelon, row)
        assert grew == (exact_rank(m[: i + 1]) > exact_rank(m[:i]))
        assert len(echelon) == exact_rank(m[: i + 1])
    assert all(min(row) == lead for lead, row in echelon.items())


def test_exact_rank_rejects_floats_and_non_matrices():
    with pytest.raises(TypeError):
        exact_rank(np.eye(3))
    with pytest.raises(ValueError):
        exact_rank(np.arange(4))


_FAMILIES = st.lists(
    st.sets(st.integers(1, 9), min_size=3, max_size=3).map(lambda v: tuple(sorted(v))),
    min_size=1,
    max_size=24,
).map(lambda tris: TriangleFamily(tuple(tris))).filter(len)


@st.composite
def _families_unions_and_relabelings(draw):
    """A family on labels 1..9 (disconnected ones are common), a disjoint
    union of two, or a family under a permutation of its labels."""
    fam = draw(_FAMILIES)
    kind = draw(st.sampled_from(("plain", "union", "relabel")))
    if kind == "union":
        return disjoint_union(fam, draw(_FAMILIES))
    if kind == "relabel":
        labels = fam.vertices()
        return relabel(fam, dict(zip(labels, draw(st.permutations(range(1, 30)))[: len(labels)])))
    return fam


@settings(max_examples=300, deadline=None)
@given(_families_unions_and_relabelings())
def test_delta1_rank_equals_exact_rank_of_delta1(fam):
    assert delta1_rank(fam) == exact_rank(build_delta1(fam))


@settings(max_examples=200, deadline=None)
@given(_families_unions_and_relabelings())
def test_delta1_kills_delta0(fam):
    # The premise of delta1_rank's bound: the rows of delta1 lie in ker delta0^T.
    assert not np.any(build_delta1(fam) @ build_delta0(fam.support))


@settings(max_examples=200, deadline=None)
@given(_families_unions_and_relabelings())
def test_build_delta1_entries_are_the_incidence_signs(fam):
    # build_delta1 writes +1, -1, +1 by position; each entry must be the sign.
    d1 = build_delta1(fam)
    for r, tri in enumerate(fam):
        for j, e in enumerate(fam.support.edges):
            assert d1[r, j] == sign_triangle_edge(tri, e)


@settings(max_examples=100, deadline=None)
@given(_families_unions_and_relabelings())
def test_build_delta0_entries_are_the_incidence_signs(fam):
    d0 = build_delta0(fam.support)
    assert d0.shape == (len(fam.support.edges), len(fam.support.vertices))
    for r, e in enumerate(fam.support.edges):
        for j, v in enumerate(fam.support.vertices):
            assert d0[r, j] == sign_edge_vertex(e, v)


def _grid(n: int, m: int, torus: bool) -> TriangleFamily:
    """Each square of an n x m grid cut into two triangles, periodic in the
    n direction (a cylinder), and in the m direction too for a torus."""
    rows = m if torus else m + 1

    def v(i, j):
        return (i % n) * rows + (j % rows) + 1

    tris = []
    for i in range(n):
        for j in range(m):
            tris += [(v(i, j), v(i + 1, j), v(i, j + 1)), (v(i + 1, j), v(i, j + 1), v(i + 1, j + 1))]
    return TriangleFamily(tuple(tris))


def _counted_delta1_rank(monkeypatch, fam: TriangleFamily) -> tuple[int, int]:
    """delta1_rank(fam) and how many rows it reduced."""
    calls = 0

    def counted(echelon, row):
        nonlocal calls
        calls += 1
        return _reduce_row(echelon, row)

    monkeypatch.setattr(incidence, "_reduce_row", counted)
    return delta1_rank(fam), calls


def test_delta1_rank_reduces_every_row_of_a_torus_and_a_cylinder(monkeypatch):
    # A torus has beta1 = 2 and beta2 = 1, a cylinder beta1 = 1: the rank
    # never reaches |E| - |V| + 1 early, so every triangle row is reduced.
    torus, cylinder = _grid(5, 5, torus=True), _grid(6, 3, torus=False)
    assert len(torus.support.edges) - len(torus.support.vertices) + 1 == len(torus) + 1
    assert len(cylinder.support.edges) - len(cylinder.support.vertices) + 1 == len(cylinder) + 1
    for fam, want in ((torus, len(torus) - 1), (cylinder, len(cylinder))):
        assert exact_rank(build_delta1(fam)) == want
        assert _counted_delta1_rank(monkeypatch, fam) == (want, len(fam))


def test_delta1_rank_stops_at_the_cycle_space_bound_on_phi_lb_3000(monkeypatch):
    # Each block reaches rank |E| - |V| + 1 after as many rows as its rank,
    # so 592 of the 3000 rows are reduced; without the stop all would be.
    fam = phi_lower_bound_family(3000).family
    calls, ranks = 0, []
    for part in fam.components:
        rank, n = _counted_delta1_rank(monkeypatch, part)
        assert rank == len(part.support.edges) - len(part.support.vertices) + 1
        ranks.append(rank)
        calls += n
    assert ranks == [117, 365, 110] and calls == 592


def test_rank_identity_on_random_families():
    # rank d0 + rank d1 + harmonic dimension accounts for every edge.
    for fam in random_families(50, 23):
        g = support_graph(fam)
        d0, d1 = build_delta0(g), build_delta1(fam)
        assert exact_rank(d0) + exact_rank(d1) + harmonic_dimension(d0, d1) == len(g.edges)


def test_harmonic_dimension_sees_the_hollow_middle():
    # Corner triangles of a subdivided triangle: the middle hole 4-5-6 is a
    # cycle no triangle fills, so exactly one harmonic class survives.
    def harmonic(fam):
        g = support_graph(fam)
        return harmonic_dimension(build_delta0(g), build_delta1(fam))

    assert harmonic(TriangleFamily(((1, 2, 3), (3, 4, 5)))) == 0
    sierpinski = TriangleFamily(((1, 4, 6), (2, 4, 5), (3, 5, 6)))
    assert harmonic(sierpinski) == 1


def test_matrix_market_round_trip(tmp_path):
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4), (2, 3, 4)))
    d1 = build_delta1(fam)
    path = tmp_path / "d1.mtx"
    write_matrix_market(path, d1, comment="triangle boundary")
    back = read_matrix_market(path)
    assert np.array_equal(back, d1)
    text = path.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate integer general")
    assert "%" in text


def test_matrix_market_rejects_foreign_headers(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n0.5\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_matrix_market_zero_row_matrix(tmp_path):
    m = np.zeros((2, 3), dtype=np.int64)
    path = tmp_path / "zero.mtx"
    write_matrix_market(path, m)
    assert np.array_equal(read_matrix_market(path), m)


def test_matrix_market_rejects_a_vector_without_naming_another_function(tmp_path):
    with pytest.raises(ValueError) as info:
        write_matrix_market(tmp_path / "v.mtx", np.arange(3))
    assert "exact_rank" not in str(info.value)
    assert not (tmp_path / "v.mtx").exists()
