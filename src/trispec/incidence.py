"""Signed incidence matrices, combinatorial Laplacians, and exact rank.

The builders return plain read-only int64 ndarrays.  The boundary maps
follow the sign conventions in `families`: delta0 rows are edges (one -1
at the smaller endpoint, one +1 at the larger), delta1 rows are triangles
(+1, -1, +1 on their ascending edge list).  Ranks are computed over the
rationals by one exact row reduction on Python integers, never by
floating point.  `edge_columns` is the one map from a triangle to its
three edge columns: `build_delta1` fills delta1 from it, and `spectra`
scatter-adds L1_up = delta1^T delta1 from it without a dense delta1.

`delta1_rank` is the rank of a family's delta1.  It reduces the triangle
rows in family order, each edge keyed by minus its discovery index, so a
row with a new edge is kept without elimination, and it stops at the
bound |E| - |V| + c (c components): delta1 delta0 = 0 puts every row of
delta1 in ker delta0^T, of dimension |E| - rank delta0 = |E| - |V| + c.
"""

from __future__ import annotations

import math

import numpy as np

from .families import SupportGraph, TriangleFamily, _frozen

LAPLACIAN_KINDS = ("L0_up", "L1_down", "L1_up", "L2_down", "L1_total")


def build_delta0(graph: SupportGraph) -> np.ndarray:
    """Edge-vertex boundary matrix, |E| x |V|, rows and columns in graph order:
    each edge row has -1 at its smaller endpoint and +1 at its larger
    (`families.sign_edge_vertex`)."""
    vidx = {v: i for i, v in enumerate(graph.vertices)}
    ends = np.array([(vidx[u], vidx[v]) for u, v in graph.edges], dtype=np.intp)
    m = np.zeros((len(graph.edges), len(graph.vertices)), dtype=np.int64)
    m[np.arange(len(ends))[:, None], ends.reshape(-1, 2)] = (-1, 1)
    return _frozen(m)


def edge_columns(family: TriangleFamily) -> np.ndarray:
    """Each triangle's edge columns, |F| x 3 intp, rows in family order: the
    positions in the support's edge list of its ascending edges (a, b),
    (a, c), (b, c), where its delta1 row holds +1, -1, +1.  The array is the
    family's own, kept from its one pass over the triangles, and read-only."""
    return family._walk.columns


def delta1_from_columns(columns: np.ndarray, edges: int, dtype=np.int64) -> np.ndarray:
    """delta1, len(columns) x `edges`, with +1, -1, +1 at each row's
    `edge_columns`."""
    m = np.zeros((len(columns), edges), dtype=dtype)
    m[np.arange(len(columns))[:, None], columns] = (1, -1, 1)
    return m


def build_delta1(family: TriangleFamily) -> np.ndarray:
    """Triangle-edge boundary matrix, |F| x |E|, rows in family order, with
    signs +1, -1, +1 on each row's ascending edges (a, b), (a, c), (b, c)."""
    return _frozen(delta1_from_columns(edge_columns(family), len(family.support.edges)))


def build_laplacian(kind: str, family: TriangleFamily) -> np.ndarray:
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}; choose from {LAPLACIAN_KINDS}")
    d0 = build_delta0(family.support)
    if kind == "L0_up":
        return _frozen(d0.T @ d0)
    if kind == "L1_down":
        return _frozen(d0 @ d0.T)
    d1 = build_delta1(family)
    if kind == "L1_up":
        return _frozen(d1.T @ d1)
    if kind == "L2_down":
        return _frozen(d1 @ d1.T)
    return _frozen(d0 @ d0.T + d1.T @ d1)


def _as_int_array(matrix) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d integer matrix, got shape {arr.shape}")
    if arr.dtype != object and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"expected an integer matrix, got dtype {arr.dtype}")
    return arr


def _reduce_row(echelon: dict, row: dict) -> bool:
    """Reduce one sparse integer row against `echelon` and keep what is left.

    `echelon` maps each kept row's leading key (its least key) to the row;
    `row` is a {key: value} dict of nonzeros.  The row becomes
    a*row - b*pivot, with a, b the two leading entries over their gcd, and
    is divided by its content, until its leading key is new (it is kept:
    True, the rank grew) or it vanishes (False).  Python integers cannot
    overflow, so no entry is ever rounded.
    """
    while row:
        content = math.gcd(*row.values())
        if content > 1:
            row = {j: v // content for j, v in row.items()}
        lead = min(row)
        pivot = echelon.get(lead)
        if pivot is None:
            echelon[lead] = row
            return True
        g = math.gcd(row[lead], pivot[lead])
        a, b = pivot[lead] // g, row[lead] // g
        row = {j: a * v for j, v in row.items()}
        for j, v in pivot.items():
            w = row.get(j, 0) - b * v
            if w:
                row[j] = w
            else:
                del row[j]
    return False


def exact_rank(matrix) -> int:
    """Rank over the rationals by row reduction on Python integers.

    The rows of the shorter side are reduced, since rank(A) = rank(A^T);
    each is a {column: value} dict of its nonzeros, reduced by
    `_reduce_row` against the echelon rows kept so far.  int64 and object
    input take the same path.
    """
    arr = _as_int_array(matrix)
    if arr.shape[0] > arr.shape[1]:
        arr = arr.T
    echelon: dict[int, dict[int, int]] = {}
    for values in arr.tolist():
        _reduce_row(echelon, {j: int(v) for j, v in enumerate(values) if v})
    return len(echelon)


def delta1_rank(family: TriangleFamily) -> int:
    """rank(delta1) over the rationals, from the family's triangle rows.

    Each row has +1, -1, +1 at its `edge_columns`, and a column's key is
    minus the number of columns found before it in family order, so a new
    edge leads its row and `_reduce_row` keeps the row without elimination.
    The rows lie in ker delta0^T, of dimension |E| - |V| + c, so the
    reduction stops once the rank reaches min(|T|, |E| - |V| + c); short
    of that bound every row is reduced.
    """
    graph = family.support
    bound = min(len(family), len(graph.edges) - len(graph.vertices) + len(family.components))
    keys: dict[int, int] = {}
    echelon: dict = {}
    for columns in edge_columns(family).tolist():
        row = {keys.setdefault(j, -len(keys)): s for j, s in zip(columns, (1, -1, 1))}
        if _reduce_row(echelon, row) and len(echelon) == bound:
            break
    return len(echelon)


def harmonic_dimension(d0: np.ndarray, d1: np.ndarray) -> int:
    """dim(ker delta0^T  intersect  ker delta1) for the boundary matrices of
    one family, via one stacked exact rank."""
    return d0.shape[0] - exact_rank(np.vstack([d0.T, d1]))


def write_matrix_market(path, matrix, comment: str = "") -> None:
    """Write an integer matrix in MatrixMarket coordinate format (1-based)."""
    arr = _as_int_array(matrix)
    rows, cols = arr.shape
    ri, ci = np.nonzero(arr)
    lines = ["%%MatrixMarket matrix coordinate integer general\n"]
    for part in comment.splitlines():
        lines.append(f"% {part}\n")
    lines.append(f"{rows} {cols} {len(ri)}\n")
    for i, j in zip(ri, ci):
        lines.append(f"{i + 1} {j + 1} {int(arr[i, j])}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def read_matrix_market(path) -> np.ndarray:
    """Read back a coordinate-integer MatrixMarket file as a dense int64 array."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().split()
        expected = ["%%MatrixMarket", "matrix", "coordinate", "integer", "general"]
        if [w.lower() for w in header] != [w.lower() for w in expected]:
            raise ValueError(f"unsupported MatrixMarket header: {' '.join(header)}")
        size_line = None
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if size_line is None:
                size_line = line
                rows, cols, nnz = (int(x) for x in line.split())
                out = np.zeros((rows, cols), dtype=np.int64)
                seen = 0
                continue
            i, j, v = line.split()
            out[int(i) - 1, int(j) - 1] = int(v)
            seen += 1
        if size_line is None:
            raise ValueError("MatrixMarket file has no size line")
        if seen != nnz:
            raise ValueError(f"expected {nnz} entries, found {seen}")
    return out
