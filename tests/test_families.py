import gc
import pickle
import random
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trispec import (
    EmptyFamilyError,
    FamilyParseError,
    TriangleFamily,
    build_delta0,
    build_delta1,
    delta1_rank,
    disjoint_union,
    exact_rank,
    family_to_text,
    parse_family,
    random_families,
    relabel,
    support_graph,
    vertex_triangle_counts,
)
from trispec.families import (
    SupportGraph,
    random_family,
    sign_edge_vertex,
    sign_triangle_edge,
    triangle,
)
from trispec.incidence import edge_columns


def test_triangle_normalizes_and_validates():
    assert triangle(7, 2, 5) == (2, 5, 7)
    with pytest.raises(ValueError):
        triangle(1, 1, 2)
    with pytest.raises(ValueError):
        triangle(-1, 2, 3)


def test_edge_vertex_signs():
    assert sign_edge_vertex((2, 5), 5) == 1
    assert sign_edge_vertex((2, 5), 2) == -1
    assert sign_edge_vertex((2, 5), 3) == 0


def test_triangle_edge_signs_follow_opposite_vertex():
    # Opposite vertex is the extreme one on the outer edges, the middle on (a, c).
    tri = triangle(1, 2, 3)
    assert sign_triangle_edge(tri, (1, 2)) == 1
    assert sign_triangle_edge(tri, (1, 3)) == -1
    assert sign_triangle_edge(tri, (2, 3)) == 1
    assert sign_triangle_edge(tri, (1, 4)) == 0


def test_family_sorts_and_dedupes():
    fam = TriangleFamily(((3, 2, 1), (1, 2, 3), (5, 4, 1)))
    assert fam.triangles == ((1, 2, 3), (1, 4, 5))
    assert len(fam) == 2
    assert (1, 2, 3) in fam
    assert fam.vertices() == (1, 2, 3, 4, 5)
    edges = support_graph(fam).edges
    assert (1, 2) in edges and (2, 3) in edges


def test_support_graph_counts_triangles_per_edge():
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4)))
    graph = support_graph(fam)
    assert graph.edge_triangle_count[(1, 2)] == 2
    assert graph.edge_triangle_count[(1, 3)] == 1
    assert vertex_triangle_counts(fam) == {1: 2, 2: 2, 3: 1, 4: 1}


def test_empty_family_rejected():
    with pytest.raises(EmptyFamilyError):
        support_graph(TriangleFamily(()))
    with pytest.raises(EmptyFamilyError):
        TriangleFamily(()).support


def test_support_is_built_once_and_kept_out_of_equality():
    fam = TriangleFamily(((1, 2, 3), (1, 2, 4), (3, 4, 5)))
    assert fam.support is fam.support
    assert fam.support == support_graph(fam)
    assert fam.support.adjacency is fam.support.adjacency
    assert fam.support.adjacency == {
        1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4, 5}, 4: {1, 2, 3, 5}, 5: {3, 4}
    }
    # An equal family that has not built its graph is the same value.
    fresh = TriangleFamily(fam.triangles)
    assert "support" not in vars(fresh)
    assert fresh == fam and hash(fresh) == hash(fam)
    assert len({fam, fresh}) == 1
    back = pickle.loads(pickle.dumps(fam))
    assert back == fam and back.support == fam.support


def test_connected_components_split():
    fam = TriangleFamily(((1, 2, 3), (4, 5, 6), (3, 7, 8)))
    assert fam.components == (
        TriangleFamily(((1, 2, 3), (3, 7, 8))),
        TriangleFamily(((4, 5, 6),)),
    )
    assert fam.components is fam.components
    # Each part is connected, its own only component, found by the one split.
    for part in fam.components:
        assert part.components == (part,) and vars(part)["_parts"] is None
    connected = fam.components[0]
    assert TriangleFamily(connected.triangles).components == (connected,)
    assert TriangleFamily(()).components == ()


def test_reading_components_leaves_no_reference_cycle():
    # A family that kept itself in its own cache would live on, with its
    # support graph, until the cyclic garbage collector ran.
    gc.disable()
    try:
        for tris in (((1, 2, 3), (3, 4, 5)), ((1, 2, 3), (4, 5, 6))):
            fam = TriangleFamily(tris)
            refs = [weakref.ref(fam)] + [weakref.ref(part) for part in fam.components]
            assert all(part.support for part in fam.components)
            del fam
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def _grown_components(tris) -> list[list]:
    """Components by growing a vertex set from the least unplaced triangle
    until no remaining triangle meets it."""
    parts = []
    remaining = sorted(tris)
    while remaining:
        part, reach = [remaining[0]], set(remaining[0])
        remaining = remaining[1:]
        grew = True
        while grew:
            grew, keep = False, []
            for tri in remaining:
                if reach.intersection(tri):
                    part.append(tri)
                    reach.update(tri)
                    grew = True
                else:
                    keep.append(tri)
            remaining = keep
        parts.append(sorted(part))
    return parts


_small_families = st.lists(
    st.lists(st.integers(0, 11), min_size=3, max_size=3, unique=True), min_size=1, max_size=12
).map(lambda tris: TriangleFamily(tuple(tuple(tri) for tri in tris)))


@st.composite
def _families_to_split(draw):
    """A random family, optionally joined to a second one and relabeled."""
    fam = draw(_small_families)
    if draw(st.booleans()):
        fam = disjoint_union(fam, draw(_small_families))
    if draw(st.booleans()):
        verts = fam.vertices()
        images = draw(st.lists(
            st.integers(0, 60), min_size=len(verts), max_size=len(verts), unique=True
        ))
        fam = relabel(fam, dict(zip(verts, images)))
    return fam


@settings(max_examples=300, deadline=None)
@given(_families_to_split())
def test_components_partition_the_family(fam):
    parts = fam.components
    assert [list(part) for part in parts] == _grown_components(fam.triangles)
    # A partition of the triangles, each part in family order, the parts
    # vertex-disjoint and ordered by least vertex.
    assert sorted(tri for part in parts for tri in part) == list(fam.triangles)
    assert all(list(part) == sorted(part) for part in parts)
    vertex_sets = [{v for tri in part for v in tri} for part in parts]
    assert sum(map(len, vertex_sets)) == len(fam.vertices())
    assert [min(vs) for vs in vertex_sets] == sorted(min(vs) for vs in vertex_sets)
    # rank(delta0) = |V| - #components, by exact elimination.
    assert exact_rank(build_delta0(fam.support)) == len(fam.vertices()) - len(parts)


def _reference_support(fam: TriangleFamily) -> SupportGraph:
    """The support graph by counting each triangle's edges in a dict."""
    counts: dict = {}
    for tri in fam:
        for e in combinations(tri, 2):
            counts[e] = counts.get(e, 0) + 1
    return SupportGraph(fam.vertices(), tuple(sorted(counts)), dict(sorted(counts.items())))


def _reference_components(fam: TriangleFamily) -> list[tuple]:
    """The components' triangles by a union-find over each triangle's
    vertices, each part in family order, parts by first triangle."""
    root = {v: v for v in fam.vertices()}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b, c in fam:
        root[find(b)] = find(a)
        root[find(c)] = find(a)
    parts: dict = {}
    for tri in fam:
        parts.setdefault(find(tri[0]), []).append(tri)
    return [tuple(part) for part in parts.values()]


def _reference_edge_columns(fam: TriangleFamily) -> np.ndarray:
    """Each triangle's edge columns by looking its edges up in the sorted
    edge list."""
    index = {e: i for i, e in enumerate(_reference_support(fam).edges)}
    cols = [[index[e] for e in ((a, b), (a, c), (b, c))] for a, b, c in fam]
    return np.array(cols, dtype=np.intp).reshape(len(fam), 3)


@settings(max_examples=300, deadline=None)
@given(_families_to_split())
# Parts {1, 5, 9, 11} and {2, 3, 4, 7}: labels interleave, so each part's
# columns must be renumbered within its own edges.
@example(TriangleFamily(((1, 5, 9), (2, 3, 4), (2, 3, 7), (5, 9, 11))))
def test_one_pass_equals_the_separate_definitions(fam):
    # The family's one pass gives the same support graph (edge order and
    # codegree order included), components and edge columns as the separate
    # walks it replaced; so does each part's renumbered slice of it.
    support = fam.support
    assert support == _reference_support(fam)
    assert list(support.edge_triangle_count.items()) == list(
        _reference_support(fam).edge_triangle_count.items()
    )
    assert [part.triangles for part in fam.components] == _reference_components(fam)
    assert np.array_equal(edge_columns(fam), _reference_edge_columns(fam))
    assert not edge_columns(fam).flags.writeable
    for part in fam.components:
        assert part == TriangleFamily(part.triangles)
        assert part.support == _reference_support(part)
        assert np.array_equal(edge_columns(part), _reference_edge_columns(part))
        assert delta1_rank(part) == exact_rank(build_delta1(part))


@settings(max_examples=100, deadline=None)
@given(_small_families, st.lists(st.integers(0, 11), min_size=3, max_size=3, unique=True))
@example(TriangleFamily(()), [1, 2, 3])
@example(TriangleFamily(((1, 2, 3), (1, 4, 5), (2, 6, 9))), [9, 2, 6])
@example(TriangleFamily(((1, 2, 3), (1, 4, 5), (2, 6, 9))), [7, 8, 9])
def test_membership_equals_set_membership(fam, tri):
    assert (tri in fam) == (tuple(sorted(tri)) in set(fam.triangles))


def test_relabel_requires_injection():
    fam = TriangleFamily(((1, 2, 3),))
    assert relabel(fam, {1: 10, 2: 20, 3: 30}).triangles == ((10, 20, 30),)
    with pytest.raises(ValueError):
        relabel(fam, {1: 5, 2: 5, 3: 6})


def test_disjoint_union_keeps_parts_apart():
    a = TriangleFamily(((1, 2, 3),))
    b = TriangleFamily(((1, 2, 3), (1, 2, 4)))
    u = disjoint_union(a, b)
    assert len(u) == 3
    assert sorted(len({v for tri in part for v in tri}) for part in u.components) == [3, 4]


def test_parse_family_round_trip_and_comments():
    text = "# header\n\n3 2 1\n1 2 4\n1 2 3\n"
    fam = parse_family(text)
    assert fam.triangles == ((1, 2, 3), (1, 2, 4))
    assert parse_family(family_to_text(fam)) == fam


def test_parse_family_without_a_triangle_is_empty_family_error():
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(EmptyFamilyError):
            parse_family(text)


def test_parse_family_reports_line_numbers():
    with pytest.raises(FamilyParseError) as err:
        parse_family("1 2 3\n1 2\n")
    assert err.value.line_number == 2
    with pytest.raises(FamilyParseError) as err:
        parse_family("# ok\n1 2 3\n4 4 5\n")
    assert err.value.line_number == 3
    assert "repeated" in str(err.value)
    with pytest.raises(FamilyParseError) as err:
        parse_family("1 x 3\n")
    assert err.value.line_number == 1


# Texts the parser accepts as `int` reads each label, and the triangles it
# makes of them.
_PARSED = [
    ("+1 2 3\n", ((1, 2, 3),)),
    ("0_1 2 3\n", ((1, 2, 3),)),
    ("007 08 9\n", ((7, 8, 9),)),
    ("-0 1 2\n", ((0, 1, 2),)),
    ("1\t2\t3\n\t\n 4  6 5 \n", ((1, 2, 3), (4, 5, 6))),
    ("1 2 3\r\n4 5 6\r\n", ((1, 2, 3), (4, 5, 6))),
    ("\u0661 \u0662 \u0663\n", ((1, 2, 3),)),
    ("1 2 3\n# between\n  # indented\n1 2 4\n", ((1, 2, 3), (1, 2, 4))),
    ("3 2 1\n1 2 3\n1 2 3\n", ((1, 2, 3),)),
]

# Texts it refuses: the line number and the message.
_REFUSED = [
    ("1 2 3 # trailing\n", 1, "expected three vertex labels, got 5"),
    ("\t1\t2\n", 1, "expected three vertex labels, got 2"),
    ("0_1 1 2\n", 1, "repeated vertex in triangle '0_1 1 2'"),
    ("1_ 2 3\n", 1, "non-integer vertex label in '1_ 2 3'"),
    ("1.0 2 3\n", 1, "non-integer vertex label in '1.0 2 3'"),
    ("\u22121 2 3\n", 1, "non-integer vertex label in '\u22121 2 3'"),
    ("1 -1 2\n", 1, "negative vertex label in '1 -1 2'"),
    ("1 1 -1\n", 1, "repeated vertex in triangle '1 1 -1'"),
    ("1 2 3\r\n# between\r\n\t4 4 5 \r\n", 3, "repeated vertex in triangle '4 4 5'"),
]


@pytest.mark.parametrize("text, tris", _PARSED)
def test_parse_family_accepts_what_int_reads(text, tris):
    assert parse_family(text).triangles == tris
    assert parse_family(text) == TriangleFamily(tris)


@pytest.mark.parametrize("text, line, message", _REFUSED)
def test_parse_family_refusals_name_their_line(text, line, message):
    with pytest.raises(FamilyParseError) as err:
        parse_family(text)
    assert err.value.line_number == line
    assert str(err.value) == f"line {line}: {message}"


def test_random_families_deterministic_and_bounded():
    a = random_families(20, 7)
    b = random_families(20, 7)
    assert a == b
    for fam in a:
        assert 1 <= len(fam) <= 12
        assert max(fam.vertices()) <= 8


def test_random_family_needs_four_vertices():
    # A random family draws its vertex count from 4..max_vertices.
    with pytest.raises(ValueError, match="max_vertices >= 4, got 3"):
        random_family(random.Random(1), max_vertices=3)
    assert set(random_family(random.Random(1), max_vertices=4).vertices()) <= {1, 2, 3, 4}


def test_relabel_preserves_structure_randomized():
    rng = random.Random(3)
    for fam in random_families(25, 11):
        verts = list(fam.vertices())
        images = rng.sample(range(1, 100), len(verts))
        mapped = relabel(fam, dict(zip(verts, images)))
        assert len(mapped) == len(fam)
        back = relabel(mapped, dict(zip(images, verts)))
        assert back == fam
