import pickle
import random

import pytest

from trispec import (
    EmptyFamilyError,
    FamilyParseError,
    TriangleFamily,
    connected_components,
    disjoint_union,
    family_to_text,
    parse_family,
    random_families,
    relabel,
    support_graph,
    vertex_triangle_counts,
)
from trispec.families import edge, sign_edge_vertex, sign_triangle_edge, triangle


def test_triangle_normalizes_and_validates():
    assert triangle(7, 2, 5) == (2, 5, 7)
    with pytest.raises(ValueError):
        triangle(1, 1, 2)
    with pytest.raises(ValueError):
        triangle(-1, 2, 3)


def test_edge_vertex_signs():
    assert sign_edge_vertex(edge(2, 5), 5) == 1
    assert sign_edge_vertex(edge(2, 5), 2) == -1
    assert sign_edge_vertex(edge(2, 5), 3) == 0


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
    parts = connected_components(support_graph(fam))
    assert parts == [(1, 2, 3, 7, 8), (4, 5, 6)]


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
    parts = connected_components(support_graph(u))
    assert sorted(len(p) for p in parts) == [3, 4]


def test_parse_family_round_trip_and_comments():
    text = "# header\n\n3 2 1\n1 2 4\n1 2 3\n"
    fam = parse_family(text)
    assert fam.triangles == ((1, 2, 3), (1, 2, 4))
    assert parse_family(family_to_text(fam)) == fam


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


def test_random_families_deterministic_and_bounded():
    a = random_families(20, 7)
    b = random_families(20, 7)
    assert a == b
    for fam in a:
        assert 1 <= len(fam) <= 12
        assert max(fam.vertices()) <= 8


def test_relabel_preserves_structure_randomized():
    rng = random.Random(3)
    for fam in random_families(25, 11):
        verts = list(fam.vertices())
        images = rng.sample(range(1, 100), len(verts))
        mapped = relabel(fam, dict(zip(verts, images)))
        assert len(mapped) == len(fam)
        back = relabel(mapped, dict(zip(images, verts)))
        assert back == fam
