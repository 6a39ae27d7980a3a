"""Structural certificates, the budget staircase, and exhaustive search.

The search enumerates one representative per isomorphism class by orderly
generation: families are grown one lexicographically larger triangle at a
time and a candidate is kept only when it is the canonical representative,
i.e. the minimum of its relabeling orbit.  Deleting the largest triangle
of a canonical family leaves a canonical family, so every class is
reached exactly once.  Each new triangle meets the labels already used,
so every node of the tree is connected.  Nor is a triangle generated
unless it is least in its orbit under the family's classes of twins
(vertices whose transposition is an automorphism): any other gives a
child that is not canonical.  The canonicity test searches relabelings
depth first, and gives each next label only to vertices a minimum can
give it: labels 1, 2 to an edge of maximum codegree, then to a vertex of
a triangle with the least optimistic image, and one vertex per class of
twins.  A node's twin classes are computed once and serve both its
canonicity test and its candidates.

The phi sweep tests canonicity only on a child with a subtree, before
its node's stack, and solves and enters it only when canonical, so every
node it enters is canonical.  A childless child (at the last depth, or
with every descendant cut) is solved in place, canonical or not, unless
Cauchy interlacing rules it out (see `_phi_sweep`).  Every solved family
is recorded by the replace rule alone, which a non-canonical copy never
passes.

Each node the sweep enters carries d1 by column, whose entry counts are
the codegrees the cuts read, and the echelon rows of its exact rank.  Its
candidate children are decided in one loop that reads that state without
copying it: a child's three edge columns give its subtree test; a new
edge, or else reducing its row against the echelon, gives its rank
growth; and a kept child gets its border, the row's inner products with
the node's rows.  Only a child the sweep enters copies the state and
extends it by its row.  The sweep solves d1 d1^T, the form `spectra`
picks when t <= |E|; by Kruskal-Katona that holds for every family of at
most 14 triangles, so its lambdas are those of `lambda_of`.  A node's kept
children are solved together, by one stacked eigensolve of the node's d1
d1^T bordered by each child's border, and a child is entered with its
(lambda, tau) and its d1 d1^T from that stack, so no node's d1 is ever
formed.
"""

from __future__ import annotations

import json
import math
import os
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from math import comb
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .families import TriangleFamily, vertex_triangle_counts
from .incidence import _reduce_row, build_delta1, delta1_rank
from .spectra import _check_bands, eigenvalues_symmetric, lambda_of

# Round-off allowance on a computed lambda: one this close to an integer
# counts as that integer when taking ceilings or testing integrality, and the
# phi sweep's interlacing cut needs its bound this far below the incumbent.
CEIL_GUARD = 1e-9
# A search candidate replaces the incumbent only when larger by more than this.
IMPROVE_EPS = 1e-12
# A checkpointed sweep also saves its progress this often, so a killed run
# loses at most this much work.
_SAVE_SECONDS = 60.0
# Layout of the checkpoint file, kept in its `search` key: bump it whenever
# the keys of the file or their meaning change, so an older file is refused.
_CHECKPOINT_LAYOUT = 3


def guarded_ceil(lam: float) -> int:
    """Ceiling of lambda with a 1e-9 guard against round-off just above an integer."""
    return math.ceil(lam - CEIL_GUARD)


def near_integer(lam: float) -> bool:
    return abs(lam - round(lam)) < CEIL_GUARD


@dataclass(frozen=True)
class OverlapCertificate:
    """Local overlap conclusions forced by the spectral parameter."""

    n: int
    lam: float
    lambda_near_integer: bool
    min_edge_codegree: int
    min_common_neighbors: int
    min_vertex_triangles: int
    min_degree: int
    vertex_count: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "lambda": self.lam,
            "lambda_near_integer": self.lambda_near_integer,
            "min_edge_codegree": self.min_edge_codegree,
            "min_common_neighbors": self.min_common_neighbors,
            "min_vertex_triangles": self.min_vertex_triangles,
            "min_degree": self.min_degree,
            "vertex_count": self.vertex_count,
            "pass": self.passed,
        }


def check_overlap(family: TriangleFamily, lam: float | None = None) -> OverlapCertificate:
    """Evaluate the overlap conclusions with n = guarded ceiling of lambda.

    Every support edge must sit in at least n-2 triangles, endpoints of a
    support edge share at least n-2 common neighbors, every vertex lies in
    at least n-2 triangles with graph degree at least n-1, and the support
    has at least n vertices.  `lam`, when given, is the family's lambda.
    """
    if lam is None:
        lam = lambda_of(family)
    graph = family.support
    n = guarded_ceil(lam)
    adjacency = graph.adjacency
    min_codegree = min(graph.edge_triangle_count.values())
    min_common = min(len(adjacency[u] & adjacency[v]) for u, v in graph.edges)
    min_vtris = min(vertex_triangle_counts(family).values())
    min_degree = min(len(adjacency[v]) for v in graph.vertices)
    vertex_count = len(graph.vertices)
    passed = (
        min_codegree >= n - 2
        and min_common >= n - 2
        and min_vtris >= n - 2
        and min_degree >= n - 1
        and vertex_count >= n
    )
    return OverlapCertificate(
        n=n,
        lam=lam,
        lambda_near_integer=near_integer(lam),
        min_edge_codegree=min_codegree,
        min_common_neighbors=min_common,
        min_vertex_triangles=min_vtris,
        min_degree=min_degree,
        vertex_count=vertex_count,
        passed=passed,
    )


@dataclass(frozen=True)
class CountingCertificate:
    """Size bounds forced by lambda > 2; inapplicable families pass vacuously."""

    v: int
    e: int
    t: int
    ceil_lambda: int
    lam: float
    lambda_near_integer: bool
    applicable: bool
    checks: tuple[tuple[str, int, int], ...]
    passed: bool


def check_counting(family: TriangleFamily, lam: float | None = None) -> CountingCertificate:
    """Check v(n-1) <= 2e, e(n-2) <= 3t, v(n-1)(n-2) <= 6t for n = ceil(lambda).

    The comparisons are cross-multiplied so both sides are exact integers.
    Only meaningful when lambda > 2; otherwise marked not applicable.
    `lam`, when given, is the family's lambda.
    """
    if lam is None:
        lam = lambda_of(family)
    v, e, t = len(family.support.vertices), len(family.support.edges), len(family)
    n = guarded_ceil(lam)
    applicable = n > 2
    checks = (
        ("v(n-1) <= 2e", v * (n - 1), 2 * e),
        ("e(n-2) <= 3t", e * (n - 2), 3 * t),
        ("v(n-1)(n-2) <= 6t", v * (n - 1) * (n - 2), 6 * t),
    ) if applicable else ()
    return CountingCertificate(
        v=v, e=e, t=t, ceil_lambda=n, lam=lam,
        lambda_near_integer=near_integer(lam),
        applicable=applicable, checks=checks,
        passed=all(lhs <= rhs for _, lhs, rhs in checks),
    )


@dataclass(frozen=True)
class RigidityVerdict:
    """Behaviour of lambda against the budget comb(n, 3)."""

    n: int
    family_size: int
    budget: int
    lam: float
    vertex_count: int
    branch: str
    passed: bool


def check_rigidity(n: int, family: TriangleFamily) -> RigidityVerdict:
    """Below budget lambda stays at most n-1; at budget, exceeding n-1 pins
    lambda to n and forces the complete family on n vertices."""
    if n < 3:
        raise ValueError(f"rigidity checks need n >= 3, got {n}")
    budget = comb(n, 3)
    size = len(family)
    lam = lambda_of(family)
    vertex_count = len(family.vertices())
    if size < budget:
        branch = "below_budget"
        passed = guarded_ceil(lam) <= n - 1
    elif size == budget and guarded_ceil(lam) >= n:  # lambda > n - 1
        branch = "at_budget_excess"
        passed = near_integer(lam) and round(lam) == n and vertex_count == n
    else:
        branch = "none"
        passed = True
    return RigidityVerdict(
        n=n, family_size=size, budget=budget, lam=lam,
        vertex_count=vertex_count, branch=branch, passed=passed,
    )


@dataclass(frozen=True)
class ForbiddenInterval:
    """Triangle budgets just past comb(n,3) where the staircase value n is unreachable."""

    n: int
    m: int
    t_low: int
    t_high: int

    @property
    def empty(self) -> bool:
        return self.t_high < self.t_low


def forbidden_interval(n: int) -> ForbiddenInterval:
    """Largest m with 3(m-1)(m+2) < (n-1)(n-2), then the interval
    [comb(n,3)+1, comb(n,3)+comb(m+1,2)-1] (possibly empty)."""
    if n < 3:
        raise ValueError(f"forbidden intervals need n >= 3, got {n}")
    m = 1
    while 3 * m * (m + 3) < (n - 1) * (n - 2):
        m += 1
    base = comb(n, 3)
    return ForbiddenInterval(n=n, m=m, t_low=base + 1, t_high=base + comb(m + 1, 2) - 1)


def lambda_staircase(t: int) -> int:
    """Largest n with comb(n, 3) <= t (minimum value 3; t >= 1)."""
    if t < 1:
        raise ValueError(f"staircase needs t >= 1, got {t}")
    n = 3
    while comb(n + 1, 3) <= t:
        n += 1
    return n


def lambda_staircase_many(ts) -> np.ndarray:
    """Vectorized staircase for large ranges of t."""
    ts = np.asarray(ts, dtype=np.int64)
    if ts.size and int(ts.min()) < 1:
        raise ValueError("staircase needs t >= 1")
    top = 3
    while comb(top + 1, 3) <= int(ts.max(initial=1)):
        top += 1
    thresholds = np.array([comb(n, 3) for n in range(3, top + 2)], dtype=np.int64)
    return np.searchsorted(thresholds, ts, side="right") + 2


@dataclass(frozen=True)
class WindowVerdict:
    """Vertex-count window forced when lambda exceeds n-1 strictly between budgets."""

    n: int
    applicable: bool
    vertex_count: int
    lam: float
    low: int
    high: int
    passed: bool


def vertex_window_check(family: TriangleFamily, n: int) -> WindowVerdict:
    if n < 9:
        raise ValueError(f"the vertex window statement needs n >= 9, got {n}")
    lam = lambda_of(family)
    size = len(family)
    applicable = comb(n, 3) < size < comb(n + 1, 3) and guarded_ceil(lam) >= n
    vertex_count = len(family.vertices())
    passed = (not applicable) or (n + 1 <= vertex_count <= n + 3)
    return WindowVerdict(
        n=n, applicable=applicable, vertex_count=vertex_count, lam=lam,
        low=n + 1, high=n + 3, passed=passed,
    )


# ---------------------------------------------------------------------------
# Orderly enumeration up to isomorphism.

# Every search starts from this family, canonical on labels 1..3.
_ROOT = ((1, 2, 3),)


def _twins(tris: tuple, k: int) -> list[int]:
    """The least member of each label's twin class, indexed 0..k.

    Vertices u, w are twins when the transposition (u w) is an
    automorphism, i.e. link(u) without the pairs through w equals link(w)
    without the pairs through u.  Such transpositions compose to
    automorphisms ((u x) = (u w)(w x)(u w)), so twins form classes.
    """
    link: list[set] = [set() for _ in range(k + 1)]
    for a, b, c in tris:
        link[a].add((b, c))
        link[b].add((a, c))
        link[c].add((a, b))
    size = [len(pairs) for pairs in link]
    twin = list(range(k + 1))
    for u, w in combinations(range(1, k + 1), 2):
        # Both sides drop the codeg(u, w) pairs through u and w: sizes must match.
        if twin[w] == w and size[u] == size[w] and (
            {p for p in link[u] if w not in p} == {p for p in link[w] if u not in p}
        ):
            twin[w] = twin[u]
    return twin


def _is_lex_min(tris: tuple, k: int, twin: list[int]) -> bool:
    """True iff no relabeling of 1..k makes the sorted triangle list smaller;
    `twin` is `_twins(tris, k)`.

    Depth-first search for a smaller list, giving new labels 1, 2, ... to
    old vertices in turn.  Under labels 1..j a triangle's optimistic image
    is its assigned labels sorted, then j+1, j+2, ... for its open slots.
    Every completion maps each triangle to at least that image, so the
    sorted images, strictified position by position, bound the list of any
    completion from below: a branch whose bound is lex >= `tris` is cut,
    and a branch with every triangle closed and a smaller list is a
    witness of non-minimality.

    If a smaller list exists, so does a minimum relabeling, and the search
    only has to reach one; so label j+1 goes only where a minimum puts it.

    1. Max-codegree start.  Let c be the largest codegree (triangles on an
       edge).  Labels 1, 2 on such an edge and 3..c+2 on its common
       neighbours give a list starting (1,2,3), ..., (1,2,c+2).  A list
       whose edge (1,2) lies in c' < c triangles holds (1,2,x) with
       x >= i+2 at each position i <= c' and a larger entry at c'+1, so
       it is larger.  Hence every minimum labels an edge of codegree c
       with 1 and 2, and `tris` is not minimal unless its edge (1,2) is one.
    2. Forced next label.  For j >= 2, label j+1 goes to an open vertex of
       an open triangle whose optimistic image m is least.  Closed
       triangles keep their images, and every open image is at least its
       optimistic one, hence at least m.  Giving j+1, j+2, ... to the open
       vertices of a least triangle makes m an image; a list without m
       agrees with such a list on the closed entries below m and is larger
       at the next position, so it is not a minimum.  In a minimum, m is
       the image of a triangle whose true and optimistic images agree, so
       one of its open vertices holds j+1.
    3. Twin classes (`_twins`).  While twins u and w are both open,
       composing with (u w) turns a completion giving j+1 to u into one
       giving it to w, with the same list and passing 1 and 2 alike, so
       one open member per class is tried.
    """
    if tris[0] != (1, 2, 3):
        return False
    codegree = Counter(edge for tri in tris for edge in combinations(tri, 2))
    top = max(codegree.values())
    if codegree[(1, 2)] < top:
        return False
    new_of = [0] * (k + 1)

    def bound_cmp(j: int) -> tuple[int, list[int]]:
        """The sign of the bound list against `tris`, and the open vertices
        of the least open triangles (none when every triangle is closed)."""
        los = []
        least = None
        opens: list[int] = []
        for tri in tris:
            lo = []
            free = []
            for v in tri:
                if new_of[v]:
                    lo.append(new_of[v])
                else:
                    free.append(v)
            lo.sort()
            lo.extend(range(j + 1, j + 1 + len(free)))
            lo = tuple(lo)
            los.append(lo)
            if free and (least is None or lo <= least):
                opens = opens + free if lo == least else free
                least = lo
        los.sort()
        prev = None
        for lo, ref in zip(los, tris):
            if prev is not None and lo <= prev:
                lo = (prev[0], prev[1], prev[2] + 1)
            if lo < ref:
                return -1, opens
            if lo > ref:
                return 1, opens
            prev = lo
        return 0, opens

    def descend(j: int, candidates: list[int]) -> bool:
        tried = set()
        for v in candidates:
            if twin[v] in tried:
                continue
            tried.add(twin[v])
            new_of[v] = j + 1
            verdict, opens = bound_cmp(j + 1)
            if verdict < 0:
                if j == 0:
                    opens = [w for w in opens if codegree[min(v, w), max(v, w)] == top]
                if not opens or descend(j + 1, opens):
                    return True
            new_of[v] = 0
        return False

    return not descend(0, sorted({v for edge, c in codegree.items() if c == top for v in edge}))


@cache
def _candidate_table(k: int, cap: int) -> tuple[tuple[tuple, int], ...]:
    """Every (triangle, support size) a family on labels 1..k may add
    within 1..cap, lex-sorted: (a, b, c) with a < b <= k+1 and c <= max(b,
    k) + 1, so new labels, if any, are the next consecutive ones and at
    least one label is old.  It depends on (k, cap) alone, so it is built
    once per pair; k and cap never exceed 2t+1, so the pairs are few."""
    return tuple(
        ((a, b, c), max(k, c))
        for a, b in combinations(range(1, min(k + 1, cap) + 1), 2)
        for c in range(b + 1, min(max(b, k) + 1, cap) + 1)
    )


def _candidates(tris: tuple, k: int, cap: int, twin: list[int]) -> Iterator[tuple[tuple, int]]:
    """Lex-ordered (triangle, support size) extensions of a family on labels
    1..k with twin classes `twin` (`_twins`): each triangle (a, b, c) is
    lex-greater than the last, lies within 1..cap, meets 1..k, its new
    labels, if any, are the next consecutive ones, and it is least in its
    orbit under the family's twin classes.

    All but the twin rule are read from `_candidate_table(k, cap)`, past
    the family's last triangle by bisection.  Its label ranges give the
    consecutive-label and no-all-new rules.  An all-new triangle would
    disconnect the family for good, since every later triangle is
    lex-greater and so has its least vertex above k.  So every family
    grown from (1, 2, 3) is connected.

    A triangle holding a vertex v <= k with a twin w < v outside it is
    left out too, since its child is not canonical: the permutation
    sigma = (v w) is an automorphism of the family and fixes the new
    labels, so it relabels the child as the family plus sigma(tri).
    sigma(tri) is lex-smaller than tri (v's place gets the smaller w) and
    is no triangle of the family (sigma maps those to themselves), and tri
    is greater than every triangle of the family, so that sorted list is
    lex-smaller than the child's.  It suffices to check each vertex's next
    smaller twin: if that of every vertex of tri lies in tri, then so, by
    induction down the class, does every smaller twin.  A search that only
    enters and records canonical children therefore loses nothing."""
    lower = [0] * (k + 3)  # each label's next smaller twin, 0 for none and for new labels
    latest: dict[int, int] = {}
    for v in range(1, k + 1):
        lower[v] = latest.get(twin[v], 0)
        latest[twin[v]] = v
    table = _candidate_table(k, cap)
    for tri, k2 in islice(table, bisect_right(table, tris[-1], key=itemgetter(0)), None):
        a, b, c = tri
        # A smaller twin lies in tri only as a smaller vertex of tri.
        if not (lower[a] or lower[b] not in (0, a) or lower[c] not in (0, a, b)):
            yield tri, k2


def _children(
    tris: tuple, k: int, cap: int, twin: list[int]
) -> Iterator[tuple[tuple, int, list[int]]]:
    """Lex-ordered canonical children (child, support size, its twin
    classes) of a canonical family with twin classes `twin`."""
    for tri, k2 in _candidates(tris, k, cap, twin):
        child = tris + (tri,)
        child_twin = _twins(child, k2)
        if _is_lex_min(child, k2, child_twin):
            yield child, k2, child_twin


def _resolve_cap(t: int, max_vertices: int | None) -> int:
    """A depth-t search's vertex budget: 2t+1, which no connected family of
    t triangles exceeds, or an explicit `max_vertices` clamped to it."""
    if max_vertices is None:
        return 2 * t + 1
    if max_vertices < 3:
        raise ValueError("max_vertices must be at least 3")
    return min(max_vertices, 2 * t + 1)


def enumerate_connected_families(
    t: int, max_vertices: int | None = None
) -> Iterator[TriangleFamily]:
    """One representative per isomorphism class of connected t-triangle families.

    By default every connected class is yielded; an explicit
    `max_vertices` keeps only those on at most that many vertices.
    """
    if t < 1:
        raise ValueError(f"enumeration needs t >= 1, got {t}")
    cap = _resolve_cap(t, max_vertices)

    def rec(tris: tuple, k: int, twin: list[int]) -> Iterator[TriangleFamily]:
        if len(tris) == t:
            yield TriangleFamily(tris)
            return
        for child, k2, child_twin in _children(tris, k, cap, twin):
            yield from rec(child, k2, child_twin)

    yield from rec(_ROOT, 3, _twins(_ROOT, 3))


# ---------------------------------------------------------------------------
# Exhaustive phi.


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class PhiEntry:
    t: int
    phi: float
    witness: TriangleFamily
    exhaustive: bool
    connected_max: tuple[float, ...]  # best connected value for sizes 1..t

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "phi": self.phi,
            "witness": [list(tri) for tri in self.witness],
            "exhaustive": self.exhaustive,
            "connected_max": list(self.connected_max),
        }


@dataclass
class PhiTable:
    entries: dict[int, PhiEntry]

    def lambda_envelope(self) -> dict[int, float]:
        """Running maximum of phi: the largest parameter achievable within budget."""
        out: dict[int, float] = {}
        best = -math.inf
        for t in sorted(self.entries):
            best = max(best, self.entries[t].phi)
            out[t] = best
        return out

    def to_dict(self) -> dict:
        return {str(t): self.entries[t].to_dict() for t in sorted(self.entries)}

    def to_csv(self) -> str:
        lines = ["t,phi,exhaustive,witness"]
        for t in sorted(self.entries):
            e = self.entries[t]
            wit = "|".join(",".join(str(v) for v in tri) for tri in e.witness)
            lines.append(f"{t},{e.phi!r},{int(e.exhaustive)},{wit}")
        return "\n".join(lines) + "\n"


def _triangles(value, size: int) -> tuple:
    """A JSON list of `size` integer triples as a tuple of triangles."""
    if not isinstance(value, list) or len(value) != size or not all(
        isinstance(tri, list) and len(tri) == 3 and all(type(v) is int for v in tri) for tri in value
    ):
        raise ValueError(f"expected {size} integer triples, found {value!r}")
    return tuple(tuple(tri) for tri in value)


def _is_node(tris: tuple, t: int, cap: int) -> bool:
    """True iff `tris` is a node of the depth-t sweep within the vertex budget:
    the root followed by a chain of canonical children."""
    if not 1 <= len(tris) <= t or tris[:1] != _ROOT:
        return False
    k, twin = 3, _twins(_ROOT, 3)
    for s in range(1, len(tris)):
        k, twin = next(
            ((k2, tw) for child, k2, tw in _children(tris[:s], k, cap, twin)
             if child == tris[: s + 1]),
            (0, None),
        )
        if not k:
            return False
    return True


class _Checkpoint:
    """JSON resume file: the search it belongs to, the incumbent per size
    and the cursor, the last node of the sweep entered.

    A file of another budget `t`, vertex budget `cap` or layout is refused,
    since it would skip subtrees never searched for this budget; so is one
    that does not parse, lacks a key, has a wrong type, or whose cursor is
    not a node of this search, since reading part of it could drop an
    incumbent or skip unsearched subtrees and report a wrong maximum.  So
    is an incumbent that is not a family of this search, which would be
    reported as its maximum: its size outside 1..t, or its witness not its
    own canonical form, on a label outside 1..cap, disconnected, or of a
    lambda other than `_sweep_lambda`'s.  Canonicity is not checked, since
    it costs seconds on the larger witnesses.
    """

    def __init__(self, path, t: int, cap: int):
        self.path = path
        self.search = {"t": t, "cap": cap, "layout": _CHECKPOINT_LAYOUT}
        self.best: dict[int, tuple[float, tuple]] = {}
        self.cursor: tuple = ()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            if doc["search"] != self.search:
                raise ValueError(f"found search {doc['search']!r}")
            for s, (lam, witness) in doc["best"].items():
                tris = _triangles(witness, int(s))
                family = TriangleFamily(tris)
                if not (
                    1 <= len(tris) <= t
                    and family.triangles == tris  # sorted, distinct, ascending triples
                    and set(family.vertices()) <= set(range(1, cap + 1))
                    and len(family.components) == 1
                ):
                    raise ValueError(f"witness {tris!r} is not a connected family of this search")
                # The solved lambda is finite, so this refuses Infinity and NaN too.
                if type(lam) is not float or lam != _sweep_lambda(tris):
                    raise ValueError(f"lambda {lam!r} is not the float lambda of its witness {tris!r}")
                self.best[int(s)] = (lam, tris)
            self.cursor = _triangles(doc["cursor"], len(doc["cursor"]))
            if not _is_node(self.cursor, t, cap):
                raise ValueError(f"cursor {self.cursor!r} is not a node of this search")
        except FileNotFoundError:
            return
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"checkpoint {path} belongs to another search or is malformed "
                f"(expected search {self.search!r}): {exc!r}"
            ) from None

    def write(self, cursor: tuple) -> None:
        doc = {"search": self.search, "best": self.best, "cursor": cursor}
        # Write beside the target and rename, so an interrupted write leaves
        # the previous checkpoint intact.
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
        os.replace(tmp, self.path)


def _ceiling_to_beat(best: dict[int, tuple[float, tuple]], s: int) -> int:
    """The integer m, the smallest above the incumbent best[s] >= 2, with
    ceil(lambda) >= m for every family of s triangles that beats it; 0
    without such an incumbent."""
    cur = best.get(s)
    if cur is None or cur[0] < 2.0:
        return 0
    return math.floor(cur[0] + CEIL_GUARD) + 1


def _vertex_limit(best: dict[int, tuple[float, tuple]], r: int) -> float:
    """The most vertices a family of r triangles beating best[r] can have:
    6r // ((m-1)(m-2)) by the counting bound v(m-1)(m-2) <= 6r, with m
    from `_ceiling_to_beat`; unbounded when m is 0."""
    m = _ceiling_to_beat(best, r)
    return 6 * r // ((m - 1) * (m - 2)) if m else math.inf


def _subtree_test(
    best: dict[int, tuple[float, tuple]], node: _Carried, t: int
) -> Callable[[tuple, int], bool]:
    """The subtree test of the children of the sweep node `node` (s
    triangles), as a function of a child's three edge columns in
    `node.columns` (None for a new edge) and its label count k: False when
    no family of r triangles, s + 1 < r <= t, that contains the child can
    beat best[r].

    Size r is out of reach by the vertex-count cut (such a family has at
    least k vertices, more than `_vertex_limit`) or by the overlap cut.  A
    family beating best[r] has ceil(lambda) >= m (`_ceiling_to_beat`, m >=
    3), so by the overlap theorem each of its support edges lies in at
    least m - 2 of its triangles.  Each of the r - s - 1 triangles added to
    the child raises the codegree of at most 3 edges, so size r is out of
    reach when the child's edges lack more than its room, 3(r - s - 1), in
    all: its deficit, sum of max(0, m - 2 - codegree).  That is the node's
    deficit, less 1 for each old edge of the child below m - 2, plus m - 3
    for each new edge.  Each size's m, node deficit, room and vertex limit
    are computed once per node, not once per child.
    """
    s = len(node.tris)
    sizes = []
    for r in range(s + 2, t + 1):
        m = _ceiling_to_beat(best, r)
        if not m:  # nothing to beat at size r: every child has a subtree
            return lambda cols, k: True
        deficit = sum(max(0, m - 2 - len(entries)) for _, entries in node.columns.values())
        sizes.append((m, deficit, 3 * (r - s - 1), _vertex_limit(best, r)))

    def has_subtree(cols: tuple, k: int) -> bool:
        for m, deficit, room, limit in sizes:
            if k > limit:
                continue
            for col in cols:
                deficit += m - 3 if col is None else -(len(col[1]) < m - 2)
            if deficit <= room:
                return True
        return False

    return has_subtree


@dataclass(frozen=True, eq=False)
class _Carried:
    """The incidence state of a node the sweep enters, extended from its
    parent's by one new row of d1 instead of rebuilt.

    `columns` maps each support edge to its key and its d1 entries
    ((row, sign), ...), one per triangle on the edge.  The key only orders
    the echelon: it is minus the number of edges found before it, so a new
    edge leads every row it is in.  `echelon` holds the rows `_reduce_row`
    kept (their number is rank d1).
    """

    tris: tuple
    columns: dict
    echelon: dict


_EMPTY = _Carried((), {}, {})


class _Child(NamedTuple):
    """A child of a sweep node: its triangles, the rank of its d1 and its
    border, the last row of its d1 d1^T left of the diagonal (the new
    row's inner product with each older one); all that `_sweep_solve` and
    `_child_grams` read."""

    tris: tuple
    rank: int
    border: list


def _extend(node: _Carried, tri: tuple) -> _Carried:
    """The state of the node's triangles plus the lex-greater `tri`, whose
    d1 row has signs +1, -1, +1 on its ascending edges: only that row is
    reduced, so the rank grows by 0 or 1 (by 1, without elimination, when
    a new support edge leads it)."""
    s = len(node.tris)
    columns = dict(node.columns)
    row = {}
    for sign, e in zip((1, -1, 1), combinations(tri, 2)):
        key, entries = columns.get(e, (-len(columns), ()))
        columns[e] = (key, entries + ((s, sign),))
        row[key] = sign
    echelon = dict(node.echelon)
    _reduce_row(echelon, row)
    return _Carried(node.tris + (tri,), columns, echelon)


def _child_of(node: _Carried, tri: tuple, cols: tuple, keep: tuple[bool, bool]) -> _Child | None:
    """The child of `node` by the lex-greater `tri`, whose edge columns in
    `node.columns` are `cols` (None for a new edge), when `keep[grows]`
    keeps it, `grows` telling whether its rank grows; the node's state is
    read, not copied.

    The rank grows when a new edge leads the child's row; otherwise the
    row is reduced against the node's echelon, and the one row
    `_reduce_row` may keep is popped again, which leaves the echelon as it
    was, order included.  Only a kept child's border is built."""
    echelon = node.echelon
    grows = None in cols
    if not grows and _reduce_row(echelon, {cols[0][0]: 1, cols[1][0]: -1, cols[2][0]: 1}):
        echelon.popitem()  # the row it kept, the last key inserted
        grows = True
    if not keep[grows]:
        return None
    border = [0] * len(node.tris)
    for sign, col in zip((1, -1, 1), cols):
        if col:
            for i, other in col[1]:
                border[i] += sign * other
    return _Child(node.tris + (tri,), len(echelon) + grows, border)


def _child_grams(gram: np.ndarray, children: list[_Child]) -> np.ndarray:
    """The children's Gram matrices d1 d1^T, stacked: the node's `gram`
    bordered by each child's `border` and a corner of 3.  Every entry is a
    small integer, so each matrix equals the child's own d1 d1^T exactly.
    """
    s = len(gram)
    stack = np.empty((len(children), s + 1, s + 1))
    stack[:, :s, :s] = gram
    stack[:, :s, s] = stack[:, s, :s] = [child.border for child in children]
    stack[:, s, s] = 3.0
    return stack


def _sweep_solve(nodes: list[_Child], grams: np.ndarray) -> list[tuple[float, float]]:
    """(lambda, tau) of each connected sweep node, tau infinite at rank 1,
    from its Gram matrix d1 d1^T in the stack `grams`: one
    `eigenvalues_symmetric` call, then the L2_down reading of
    `spectra.spectral_reports` with the exact nullity t - rank and the
    same zero-band check."""
    solved = []
    for node, eigs in zip(nodes, eigenvalues_symmetric(grams).tolist()):
        rank = node.rank
        nullity = len(node.tris) - rank
        _check_bands(eigs, nullity, "L2_down")
        solved.append((eigs[nullity], eigs[nullity + 1] if rank > 1 else math.inf))
    return solved


def _sweep_lambda(tris: tuple) -> float:
    """The lambda the sweep solves for the family `tris`, from its own
    d1 d1^T and `delta1_rank` (past 14 triangles `lambda_of` may differ)."""
    family = TriangleFamily(tris)
    d1 = build_delta1(family).astype(float)
    node = _Child(family.triangles, delta1_rank(family), [])
    return _sweep_solve([node], (d1 @ d1.T)[None])[0][0]


def _windmill(r: int) -> tuple:
    """W_r = (1,2,3), (1,4,5), ..., (1,2r,2r+1): r triangles sharing only
    vertex 1, so no two share an edge, d1 d1^T = 3I and lambda is exactly 3.
    It is connected, on 2r+1 vertices, and canonical."""
    return tuple((1, 2 * i, 2 * i + 1) for i in range(1, r + 1))


def _phi_sweep(
    t: int,
    cap: int,
    budget_seconds: float | None,
    checkpoint: str | None,
) -> tuple[dict[int, tuple[float, tuple]], bool]:
    """One orderly sweep collecting the best connected family per size 1..t;
    returns the incumbents and whether the sweep completed in time.

    Each size r whose windmill fits the cap (2r + 1 <= cap) starts with
    the incumbent (3.0, W_r) (`_windmill`), so the cuts read lambda = 3
    from the first node on.

    Every node is connected, and no candidate is a twin-orbit duplicate
    (see `_candidates`); a node's twin classes are computed when it is
    entered, for its canonicity test and its candidates.

    An entered node decides each candidate child once, in one loop that
    reads the node's state without copying it: the child's three edge
    columns, its subtree test (`_subtree_test`), and for a kept child its
    rank growth and border (`_child_of`).  A child has a subtree unless it
    is at depth t or every larger size is out of reach, by the counting
    bound on its vertex count or by the overlap theorem on the codegrees
    it lacks.  Both read only codegrees and the label count, which
    relabeling keeps, so only a child with a subtree is tested for
    canonicity, and kept only when canonical: every node the sweep enters
    is canonical.

    A childless child is kept, canonical or not, unless Cauchy interlacing
    rules it out: its d1 d1^T borders the node's, so its lambda is at most
    the node's lambda when its rank grows (the nullity stays) and at most
    the node's tau when it does not.  A non-canonical copy cannot beat the
    incumbent: its canonical form is lex-smaller, and nodes are entered in
    lex order, so that form was already evaluated or cut under an
    incumbent no larger.

    The kept children are solved as one stack (`_child_grams`: the node's
    d1 d1^T bordered by each child's border), walked in candidate order
    and recorded by the replace rule alone; a child with a subtree is then
    entered with its (lambda, tau) and its matrix from the stack, and only
    then is the node's state copied and extended for it (`_extend`).  The
    root is the one child of the empty node.  Incumbents change only in
    that walk, so a node's candidates are all decided against the same
    incumbents, and the cuts only tighten as incumbents grow: a child
    dropped before the stack could not replace the incumbent at its turn,
    and a child entered after its subtree was cut holds no family that can
    replace one.  So the cuts change no recorded maximum or witness; tests
    check the maxima against brute-force enumeration.

    `_sweep_solve` solves d1 d1^T (L2_down) with the exact nullity and
    `spectra`'s zero-band check.  `spectra` picks L2_down whenever t <=
    |E|, and by Kruskal-Katona t triangles span at least t edges for t <=
    14 (the least shadow of 15 is 14), so each lambda and tau is
    bit-identical to that of `spectral_reports`; above 14 triangles L2_down
    still has the same positive spectrum, so there is no L1_up path and no
    fallback.

    Every node lex-smaller than the checkpoint's cursor and not on its
    path is finished: those are skipped, and the path itself is entered
    again (a resume redoes the cursor's stack, which cannot replace an
    incumbent twice).  The last node entered becomes the cursor, canonical
    and so a node `_is_node` accepts on resume; the deadline is checked,
    and a periodic save made, only at a node past the cursor, so each run
    moves the cursor forward.
    """
    ckpt = _Checkpoint(checkpoint, t, cap) if checkpoint else None
    best: dict[int, tuple[float, tuple]] = ckpt.best if ckpt else {}
    for r in range(1, min(t, (cap - 1) // 2) + 1):
        if r not in best or 3.0 > best[r][0] + IMPROVE_EPS:
            best[r] = (3.0, _windmill(r))
    start = ckpt.cursor if ckpt else ()
    last = start
    now = time.monotonic()
    deadline = now + budget_seconds if budget_seconds is not None else math.inf
    next_save = now + _SAVE_SECONDS

    def visit(
        node: _Carried, k: int, twin: list[int], solved: tuple[float, float], gram: np.ndarray
    ) -> None:
        """Enter a canonical node whose (lambda, tau) is `solved` and whose
        d1 d1^T is `gram`, deciding each candidate child once."""
        nonlocal last, next_save
        tris = node.tris
        s = len(tris)
        last = tris
        if s == t:  # only the root, when t = 1
            return
        if tris > start:
            now = time.monotonic()
            if now > deadline:
                raise _BudgetExceeded
            if ckpt and now > next_save:
                ckpt.write(tris)
                next_save = now + _SAVE_SECONDS
        candidates = _candidates(tris, k, cap, twin)
        if len(start) > s and start[:s] == tris:  # on the cursor's path
            candidates = [(tri, k2) for tri, k2 in candidates if tri >= start[s]]
        # Cauchy interlacing bounds a childless child by its node: whether
        # one whose rank stays (tau) or grows (lambda) can beat best[s + 1].
        limit = best[s + 1][0] - CEIL_GUARD if s + 1 in best else -math.inf
        keep = (solved[1] > limit, solved[0] > limit)
        has_subtree = _subtree_test(best, node, t)
        columns = node.columns
        kept = []
        for tri, k2 in candidates:
            a, b, c = tri
            cols = (columns.get((a, b)), columns.get((a, c)), columns.get((b, c)))
            if has_subtree(cols, k2):
                child_twin = _twins(tris + (tri,), k2)
                if _is_lex_min(tris + (tri,), k2, child_twin):
                    kept.append((_child_of(node, tri, cols, (True, True)), k2, child_twin))
            elif child := _child_of(node, tri, cols, keep):
                kept.append((child, k2, None))
        if kept:
            solve(node, gram, kept)

    def solve(node: _Carried, gram: np.ndarray, kept: list) -> None:
        """Solve a node's kept (child, k, twin classes) as one stack bordering
        its d1 d1^T `gram`, record each child, and enter those with twins."""
        children = [child for child, _, _ in kept]
        grams = _child_grams(gram, children)
        for (child, k2, child_twin), child_solved, child_gram in zip(
            kept, _sweep_solve(children, grams), grams
        ):
            r = len(child.tris)
            if r not in best or child_solved[0] > best[r][0] + IMPROVE_EPS:
                best[r] = (child_solved[0], child.tris)
            if child_twin is not None:
                visit(_extend(node, child.tris[-1]), k2, child_twin, child_solved, child_gram)

    completed = True
    try:
        solve(_EMPTY, np.zeros((0, 0)), [(_Child(_ROOT, 1, []), 3, _twins(_ROOT, 3))])
    except _BudgetExceeded:
        completed = False
    finally:
        if ckpt and last:
            ckpt.write(last)
    return best, completed


def _entry(t: int, best: dict[int, tuple[float, tuple]], completed: bool, cap: int) -> PhiEntry:
    if t not in best:
        stop = "" if completed else " before the time budget ran out"
        raise ValueError(f"no family of {t} triangles found within {cap} vertices{stop}")
    phi, witness = best[t]
    # Connected families of t triangles have at most 2t+1 vertices; those
    # beyond the cap were not enumerated and must be out of reach.
    exhaustive = completed and (2 * t + 1 <= cap or cap >= _vertex_limit(best, t))
    return PhiEntry(
        t=t,
        phi=phi,
        witness=TriangleFamily(witness),
        exhaustive=exhaustive,
        connected_max=tuple(best[s][0] if s in best else -math.inf for s in range(1, t + 1)),
    )


def phi_exact(
    t: int,
    *,
    max_vertices: int | None = None,
    budget_seconds: float | None = None,
    checkpoint: str | None = None,
) -> PhiEntry:
    """Exact maximum of the spectral parameter over all t-triangle families:
    the budget-t entry of `phi_table(t, ...)`."""
    return phi_table(
        t,
        max_vertices=max_vertices,
        budget_seconds=budget_seconds,
        checkpoint=checkpoint,
    ).entries[t]


def phi_table(
    t_max: int,
    *,
    max_vertices: int | None = None,
    budget_seconds: float | None = None,
    checkpoint: str | None = None,
) -> PhiTable:
    """Entries for every budget 1..t_max from a single sweep.

    The sweep enumerates connected classes of every size up to t_max, and
    by the gluing lemma its best family of size t is phi(t): families that
    share at most one vertex share no edge, so d1 d1^T of their union is
    block-diagonal and its lambda the lesser of theirs, and gluing a
    disjoint union's components at one vertex gives a connected family of
    the same lambda on fewer vertices.  Under an explicit `max_vertices` c,
    phi(t) is the largest lambda over families on at most c vertices, and
    a size with no family found there is refused.  An entry is
    exhaustive, its phi the maximum over all families, when the sweep
    completed within `budget_seconds` and either 2t+1 <= c or the counting
    bound rules out every connected family on more than c vertices that
    beats it, which covers the glued form of any other.  The sweep resumes
    from, and records its progress in, the JSON `checkpoint`."""
    if t_max < 1:
        raise ValueError(f"phi needs t >= 1, got {t_max}")
    if budget_seconds is not None and not budget_seconds > 0:
        raise ValueError(f"budget_seconds must be positive, got {budget_seconds}")
    cap = _resolve_cap(t_max, max_vertices)
    best, completed = _phi_sweep(t_max, cap, budget_seconds, checkpoint)
    return PhiTable({t: _entry(t, best, completed, cap) for t in range(1, t_max + 1)})
