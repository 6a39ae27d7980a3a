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
    exact_rank,
    harmonic_dimension,
    random_families,
    read_matrix_market,
    support_graph,
    write_matrix_market,
)
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
