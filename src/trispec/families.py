"""Triangle families over integer vertex labels, and their support graphs.

A family is a finite set of 3-element vertex sets ("triangles"), stored
canonically sorted so equality is structural.  Orientation is implicit in
the vertex order: every simplex is written with ascending labels and the
boundary signs below are defined relative to that ordering.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Mapping, NamedTuple

import numpy as np

Vertex = int
Edge = tuple[int, int]
Triangle = tuple[int, int, int]


class EmptyFamilyError(ValueError):
    """Raised when an operation needs at least one triangle."""


class FamilyParseError(ValueError):
    """Raised on malformed family text; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def triangle(a: int, b: int, c: int) -> Triangle:
    if len({a, b, c}) != 3:
        raise ValueError(f"triangle vertices must be distinct, got ({a}, {b}, {c})")
    for v in (a, b, c):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex labels must be non-negative integers, got {v!r}")
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


def sign_edge_vertex(e: Edge, x: int) -> int:
    """+1 if x is the larger endpoint of e, -1 if the smaller, 0 if not incident."""
    if x == e[1]:
        return 1
    if x == e[0]:
        return -1
    return 0


def sign_triangle_edge(tri: Triangle, e: Edge) -> int:
    """Incidence sign of edge e in triangle tri.

    +1 when the vertex of tri opposite to e is the largest or smallest
    vertex of tri, -1 when it is the middle one, 0 when e is not a side.
    For tri = (a, b, c) ascending this gives +1, -1, +1 on (a,b), (a,c), (b,c).
    """
    if e[0] not in tri or e[1] not in tri:
        return 0
    opposite = next(v for v in tri if v != e[0] and v != e[1])
    return 1 if opposite in (tri[0], tri[2]) else -1


@dataclass(frozen=True)
class TriangleFamily:
    """Immutable, deduplicated, lexicographically sorted tuple of triangles."""

    triangles: tuple[Triangle, ...]

    def __post_init__(self):
        tris = sorted({triangle(*t) for t in self.triangles})
        object.__setattr__(self, "triangles", tuple(tris))

    @classmethod
    def _canonical(cls, triangles: tuple[Triangle, ...], **kept) -> TriangleFamily:
        """A family of triangles that are already canonical: each an ascending
        tuple of distinct non-negative ints, the tuple sorted and free of
        duplicates.  Nothing is checked; `kept` presets cached properties."""
        family = object.__new__(cls)
        vars(family).update(triangles=triangles, **kept)
        return family

    def __len__(self) -> int:
        return len(self.triangles)

    def __iter__(self) -> Iterator[Triangle]:
        return iter(self.triangles)

    def __contains__(self, tri) -> bool:
        tri = tuple(sorted(tri))
        i = bisect_left(self.triangles, tri)
        return i < len(self.triangles) and self.triangles[i] == tri

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for t in self.triangles for v in t}))

    @cached_property
    def support(self) -> SupportGraph:
        """The support graph, built on first use and kept (equality and hashing
        still read only `triangles`); EmptyFamilyError for an empty family."""
        return support_graph(self)

    @property
    def components(self) -> tuple[TriangleFamily, ...]:
        """The connected components of the support as families, in order of
        least vertex; a connected family is its own only component."""
        return (self,) if self._parts is None else self._parts

    @cached_property
    def _walk(self) -> _Walk:
        """The one pass over the triangles (`_walk_triangles`), kept."""
        return _walk_triangles(self.triangles)

    @cached_property
    def _parts(self) -> tuple[TriangleFamily, ...] | None:
        """The components, sliced from `_walk`; None when connected, as a kept
        `(self,)` would be a cycle only gc can free.  Each part keeps its own
        slice of the walk, its columns renumbered, and `_parts` None, so no
        part is walked or split again."""
        graph, columns, edge_part = self._walk
        if edge_part is None:
            return None if self.triangles else ()
        count = max(edge_part) + 1
        # Each part's edges, still sorted, and each edge's column in its part.
        edges: list[list[Edge]] = [[] for _ in range(count)]
        local = []
        for e, p in zip(graph.edges, edge_part):
            local.append(len(edges[p]))
            edges[p].append(e)
        rows: list[list[int]] = [[] for _ in range(count)]
        for i, j in enumerate(columns[:, 0].tolist()):
            rows[edge_part[j]].append(i)
        local_columns = np.array(local, np.intp)[columns]
        parts = []
        for part_rows, part_edges in zip(rows, edges):
            part_graph = SupportGraph(
                vertices=tuple(sorted({v for e in part_edges for v in e})),
                edges=tuple(part_edges),
                edge_triangle_count={e: graph.edge_triangle_count[e] for e in part_edges},
            )
            walk = _Walk(part_graph, _frozen(local_columns[part_rows]), None)
            tris = tuple(map(self.triangles.__getitem__, part_rows))
            parts.append(TriangleFamily._canonical(tris, _walk=walk, _parts=None))
        return tuple(parts)


@dataclass(frozen=True)
class SupportGraph:
    """Vertices and edges covered by a family, with per-edge triangle counts."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    edge_triangle_count: Mapping[Edge, int]

    @cached_property
    def adjacency(self) -> Mapping[int, frozenset[int]]:
        """Neighbours of each vertex."""
        adjacency: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        return {v: frozenset(nbrs) for v, nbrs in adjacency.items()}


class _Walk(NamedTuple):
    """What one pass over a family's triangles yields (`_walk_triangles`)."""

    graph: SupportGraph
    columns: np.ndarray  # |T| x 3 intp, read-only: each triangle's edge columns
    # Each edge's component, numbered by least vertex; None below two components.
    edge_part: list[int] | None


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _walk_triangles(triangles: tuple[Triangle, ...]) -> _Walk:
    """The support graph, edge columns and components of canonical triangles,
    from one pass over them.

    The pass numbers each edge (a, b), (a, c), (b, c) of each triangle in
    order of discovery.  Sorting the edges then turns discovery numbers into
    columns, positions in the sorted edge list, and the codegrees are a
    count of the columns.  A union-find over the edges gives each edge its
    component; in sorted edge order each component first shows at its
    least vertex, so that is the order the components are numbered in.
    """
    found: dict[Edge, int] = {}
    seen: list[int] = []
    for a, b, c in triangles:
        seen += (
            found.setdefault((a, b), len(found)),
            found.setdefault((a, c), len(found)),
            found.setdefault((b, c), len(found)),
        )
    discovered = list(found)
    order = sorted(range(len(discovered)), key=discovered.__getitem__)
    edges = [discovered[i] for i in order]
    position = np.empty(len(order), np.intp)
    position[order] = np.arange(len(order))
    columns = _frozen(position[np.array(seen, np.intp).reshape(-1, 3)])
    codegree = np.bincount(columns.ravel(), minlength=len(edges)).tolist()

    vertices = sorted({v for edge in edges for v in edge})
    root = {v: v for v in vertices}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]  # path halving
            v = root[v]
        return v

    for u, v in discovered:
        root[find(v)] = find(u)
    number: dict[int, int] = {}
    edge_part = [number.setdefault(find(u), len(number)) for u, _ in edges]
    if len(number) < 2:
        edge_part = None
    graph = SupportGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        edge_triangle_count=dict(zip(edges, codegree)),
    )
    return _Walk(graph, columns, edge_part)


def support_graph(family: TriangleFamily) -> SupportGraph:
    if len(family) == 0:
        raise EmptyFamilyError("support graph of an empty family is undefined")
    return family._walk.graph


def vertex_triangle_counts(family: TriangleFamily) -> dict[int, int]:
    counts: dict[int, int] = {}
    for t in family:
        for v in t:
            counts[v] = counts.get(v, 0) + 1
    return counts


def relabel(family: TriangleFamily, mapping: Mapping[int, int]) -> TriangleFamily:
    """Apply a vertex bijection; sorting restores the canonical form."""
    tris = [tuple(mapping[v] for v in t) for t in family]
    out = TriangleFamily(tuple(tris))  # type: ignore[arg-type]
    if len(out) != len(family):
        raise ValueError("relabeling map is not injective on the support")
    return out


def disjoint_union(first: TriangleFamily, second: TriangleFamily) -> TriangleFamily:
    """Union after shifting the second family's labels above the first's.

    The second family's vertices are mapped, order preserved, onto
    consecutive labels starting just past max(first).  Either side may be
    empty, in which case the other is returned unchanged.
    """
    if len(first) == 0:
        return second
    if len(second) == 0:
        return first
    base = max(first.vertices()) + 1
    mapping = {v: base + i for i, v in enumerate(second.vertices())}
    # Labels past max(first), order kept: still sorted, with no duplicate.
    shifted = tuple(tuple(mapping[v] for v in t) for t in second)
    return TriangleFamily._canonical(first.triangles + shifted)  # type: ignore[arg-type]


def parse_family(text: str) -> TriangleFamily:
    """Parse the one-triangle-per-line format.

    Each non-comment line holds three whitespace-separated non-negative
    integers (as `int` reads them).  Lines starting with '#' and blank lines
    are ignored.  Triangles are sorted and deduplicated; a repeated vertex
    within a line is an error, and so is text without a triangle
    (EmptyFamilyError).  Each line is checked once, here, and the family is
    built from the checked triangles without checking them again.
    """
    tris: list[Triangle] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 3:
            raise FamilyParseError(
                f"expected three vertex labels, got {len(parts)}", lineno
            )
        try:
            a, b, c = map(int, parts)
        except ValueError:
            raise FamilyParseError(f"non-integer vertex label in {raw.strip()!r}", lineno)
        # Sort the three labels in place; a repeat is then a neighbour.
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if a == b or b == c:
            raise FamilyParseError(f"repeated vertex in triangle {raw.strip()!r}", lineno)
        if a < 0:
            raise FamilyParseError(f"negative vertex label in {raw.strip()!r}", lineno)
        tris.append((a, b, c))
    if not tris:
        raise EmptyFamilyError("the family text holds no triangle")
    tris.sort()
    return TriangleFamily._canonical(tuple(dict.fromkeys(tris)))


def family_to_text(family: TriangleFamily) -> str:
    return "".join(f"{a} {b} {c}\n" for a, b, c in family)


def load_family(path) -> TriangleFamily:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_family(handle.read())


def random_family(rng: random.Random, max_vertices: int = 8) -> TriangleFamily:
    """Seeded random family of at most 12 triangles on 4 to max_vertices
    labels (for audits)."""
    if max_vertices < 4:
        raise ValueError(f"random families need max_vertices >= 4, got {max_vertices}")
    n = rng.randint(4, max_vertices)
    pool = list(combinations(range(1, n + 1), 3))
    t = rng.randint(1, min(len(pool), 12))
    # Distinct combinations of an ascending range: only their order needs sorting.
    return TriangleFamily._canonical(tuple(sorted(rng.sample(pool, t))))


def random_families(count: int, seed: int, max_vertices: int = 8) -> list[TriangleFamily]:
    rng = random.Random(seed)
    return [random_family(rng, max_vertices) for _ in range(count)]
