"""Eigenvalues of the combinatorial Laplacians and the spectral parameter.

The spectral parameter of a family is the smallest positive eigenvalue of
its triangle Laplacian (equal for the edge-indexed and triangle-indexed
Gram forms).  Zero/positive separation is decided by the exact rank of
the integer boundary factor, `incidence.delta1_rank` (a row reduction
that stops at the bound |E| - |V| + c that delta1 delta0 = 0 gives), never
by thresholding the floating spectrum; a zero band of
1e-7 * (1 + lambda_max) is kept as a sanity assertion only.

Eigenvalues come from LAPACK ``eigvalsh``; exact rank decides how many of
them are zero, so the solver only has to be accurate.  Reports are made in
batches (`spectral_reports`; `spectral_report` and `lambda_of` are batches
of one): the Gram matrices of every family in a batch are solved one
stack per kind and size, so `trispec verify all --random 200` makes about
110 ``eigvalsh`` calls for its 1,090 matrices, and each slice's
eigenvalues are bit for bit those of solving it alone.  Gram matrices are
float64 with small integer entries, so they equal the int64 products
exactly.  A block's L1_up = delta1^T delta1 is scatter-added from its
triangles' edge columns, nine signed entries per triangle, and made once,
for lambda and for L1_total alike; the other Gram matrices (L2_down, L0_up,
delta0 delta0^T) are float products through BLAS.  Everything is
computed per connected component of the support graph: all five
Laplacians are block-diagonal across components, so merging block spectra
is exact and keeps the dense eigensolver on small matrices.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .families import SupportGraph, TriangleFamily
from .incidence import build_delta0, delta1_from_columns, delta1_rank, edge_columns

ZERO_BAND_COEFF = 1e-7
PSD_TOL_COEFF = 1e-9
MIN_GAP_TOL = 1e-7
SYMMETRY_TOL = 1e-12


class SpectralError(RuntimeError):
    """Numerical failure: a failed eigensolve or an inconsistent spectrum."""


def eigenvalues_symmetric(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by LAPACK ``eigvalsh``.

    A stack of shape (..., n, n) gives the eigenvalues of each matrix in it,
    shape (..., n), from one ``eigvalsh`` call; LAPACK solves each slice on
    its own, so a slice's eigenvalues equal those of solving it alone, bit
    for bit.  Non-square or asymmetric input (any slice) is a ValueError,
    found by one symmetry scan over the whole stack; a LAPACK failure is a
    SpectralError, so it reports as a numerical failure, not a usage error.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("eigenvalues_symmetric expects a square matrix or a stack of them")
    diff = a - np.swapaxes(a, -1, -2)
    asym = float(np.abs(diff, out=diff).max(initial=0.0))
    del diff  # freed before eigvalsh makes its own copy of `a`
    if asym >= SYMMETRY_TOL:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"eigvalsh failed: {exc}") from exc


def _check_bands(eigs: list[float], nullity: int, context: str) -> None:
    """Check a Gram matrix's ascending eigenvalues against its exact nullity.

    They come as Python floats (``ndarray.tolist()``), which compare in the
    same float64 arithmetic without a numpy scalar per element.
    """
    band = ZERO_BAND_COEFF * (1.0 + (eigs[-1] if len(eigs) else 0.0))
    if len(eigs) and eigs[0] < -PSD_TOL_COEFF * (1.0 + max(eigs[-1], 0.0)):
        raise SpectralError(f"{context}: negative eigenvalue {eigs[0]:.3e} on a Gram matrix")
    if nullity and max(abs(x) for x in eigs[:nullity]) >= band:
        raise SpectralError(
            f"{context}: eigenvalue inside the exact kernel exceeds the zero band"
        )
    if nullity < len(eigs) and eigs[nullity] <= band:
        raise SpectralError(
            f"{context}: eigenvalue at the first positive index {nullity} "
            f"({eigs[nullity]:.3e}) sits inside the zero band"
        )


@dataclass(frozen=True)
class SpectralReport:
    lam: float
    tau: float | None
    nullity: int
    spectrum: tuple[float, ...]  # every eigenvalue, ascending, from dims["spectrum_source"]
    lambda_min_plus_l0: float | None
    lambda_min_plus_l1_total: float | None
    dims: dict

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "tau": self.tau,
            "nullity": self.nullity,
            "spectrum": list(self.spectrum),
            "lambda_min_plus_L0": self.lambda_min_plus_l0,
            "lambda_min_plus_L1_total": self.lambda_min_plus_l1_total,
            "dims": dict(self.dims),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# Entry (i, j) of one triangle's delta1^T delta1, i and j over its three
# edge columns, flattened row-major.
_TRIANGLE_GRAM = np.outer((1.0, -1.0, 1.0), (1.0, -1.0, 1.0)).ravel()


@dataclass(frozen=True)
class _Block:
    """One connected component: its support graph, its triangles' edge
    columns (`incidence.edge_columns`) and rank(delta1) from `delta1_rank`.

    The component is connected, so rank(delta0) is len(graph.vertices) - 1
    without elimination.
    """

    graph: SupportGraph
    columns: np.ndarray
    rank1: int

    @cached_property
    def d0(self) -> np.ndarray:
        """delta0 in float64, built once for L0_up and L1_total."""
        return build_delta0(self.graph).astype(float)

    @cached_property
    def l1_up(self) -> np.ndarray:
        """delta1^T delta1 in float64, made once: each triangle adds its
        3 x 3 sign products at its edge columns, in one ``bincount``."""
        edges = len(self.graph.edges)
        flat = self.columns[:, :, None] * edges + self.columns[:, None, :]
        weights = np.tile(_TRIANGLE_GRAM, len(self.columns))
        return np.bincount(flat.ravel(), weights, edges * edges).reshape(edges, edges)

    def l2_down(self) -> np.ndarray:
        """delta1 delta1^T in float64, from a dense delta1."""
        d1 = delta1_from_columns(self.columns, len(self.graph.edges), float)
        return d1 @ d1.T

    def l0_up(self) -> np.ndarray:
        return self.d0.T @ self.d0

    def l1_total(self) -> np.ndarray:
        total = self.d0 @ self.d0.T
        total += self.l1_up  # into the fresh product, not the cached l1_up
        return total


def _blocks(family: TriangleFamily) -> list[_Block]:
    """One block per connected component; a connected family is its own
    only component, and an empty family has none."""
    if len(family) == 0:
        return []
    return [
        _Block(part.support, edge_columns(part), delta1_rank(part))
        for part in family.components
    ]


def eigenvalues_grouped(grams: list[tuple[str, int, Callable[[], np.ndarray]]]) -> list[np.ndarray]:
    """Ascending eigenvalues of each matrix in `grams`, in list order.

    Each entry is (kind, size, build), `build()` making the size x size
    matrix.  The matrices of one (kind, size) are built into one stack just
    before its one `eigenvalues_symmetric` call and dropped after it, so
    there is one call per group and no more than one group's matrices are
    held at once.  LAPACK solves each slice on its own, so every row is
    bit for bit what solving its matrix alone gives.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for i, (kind, size, _) in enumerate(grams):
        groups.setdefault((kind, size), []).append(i)
    solved: list = [None] * len(grams)
    for (_, size), members in groups.items():
        if len(members) == 1:  # nothing to stack: solve the matrix as built, uncopied
            stack = grams[members[0]][2]()[None]
        else:
            stack = np.empty((len(members), size, size))
            for slot, i in zip(stack, members):
                slot[...] = grams[i][2]()
        for i, eigs in zip(members, eigenvalues_symmetric(stack)):
            solved[i] = eigs
        del stack
    return solved


def lambda_of(family: TriangleFamily) -> float:
    """The spectral parameter alone, skipping the graph-side eigenproblems."""
    return spectral_reports([family], graph_side=False)[0].lam


def spectral_report(family: TriangleFamily) -> SpectralReport:
    """Full spectral summary: parameter, tau, and both graph-side minima."""
    return spectral_reports([family])[0]


def spectral_reports(
    families: list[TriangleFamily], graph_side: bool = True
) -> list[SpectralReport]:
    """The spectral report of each family, in order, from one batch.

    Every block's lambda source (L2_down when t <= |E|, else L1_up) and,
    with `graph_side`, its L0_up and L1_total are solved by
    `eigenvalues_grouped`, one stack per (kind, size) across all the
    families.  Then each family's spectra are checked and merged in family
    order, so the first family that fails raises the error it raises
    alone.  Without `graph_side` both graph-side minima are None.
    """
    plans = []  # (family, blocks, source), in family order
    grams = []
    for family in families:
        blocks = _blocks(family)
        edges = sum(len(b.graph.edges) for b in blocks)
        source = "L2_down" if len(family) <= edges else "L1_up"
        plans.append((family, blocks, source))
        for b in blocks:
            if source == "L2_down":
                grams.append((source, len(b.columns), b.l2_down))
            else:
                grams.append((source, len(b.graph.edges), lambda b=b: b.l1_up))
        if graph_side:
            for b in blocks:
                grams.append(("L0_up", len(b.graph.vertices), b.l0_up))
                grams.append(("L1_total", len(b.graph.edges), b.l1_total))
    solved = iter(eigenvalues_grouped(grams))

    reports = []
    for family, blocks, source in plans:
        if len(family) == 0:
            raise SpectralError("spectral parameter of an empty family is undefined")
        merged: list[float] = []
        nullity = 0
        for b in blocks:
            eigs = next(solved).tolist()
            block_nullity = len(eigs) - b.rank1
            _check_bands(eigs, block_nullity, source)
            nullity += block_nullity
            merged.extend(eigs)
        merged.sort()
        rank = sum(b.rank1 for b in blocks)
        if rank == 0:
            raise SpectralError("boundary factor has rank zero")
        l0_min = l1_min = None
        if graph_side:
            l0_min = l1_min = math.inf
            for b in blocks:
                eigs0 = next(solved).tolist()
                _check_bands(eigs0, 1, "L0_up")  # nullity |V| - rank0 = 1
                l0_min = min(l0_min, eigs0[1])
                eigs1 = next(solved).tolist()
                null1 = len(b.graph.edges) - (len(b.graph.vertices) - 1) - b.rank1
                _check_bands(eigs1, null1, "L1_total")
                l1_min = min(l1_min, eigs1[null1])
        reports.append(
            SpectralReport(
                lam=merged[nullity],
                tau=merged[nullity + 1] if rank > 1 else None,
                nullity=nullity,
                spectrum=tuple(merged),
                lambda_min_plus_l0=l0_min,
                lambda_min_plus_l1_total=l1_min,
                dims={
                    "vertices": sum(len(b.graph.vertices) for b in blocks),
                    "edges": sum(len(b.graph.edges) for b in blocks),
                    "triangles": len(family),
                    "spectrum_source": source,
                },
            )
        )
    return reports


@dataclass(frozen=True)
class MinGapCheck:
    ok: bool
    residual: float


def verify_min_gap(report: SpectralReport) -> MinGapCheck:
    """Check that the smallest positive eigenvalue of L1_total equals the
    smaller of lambda and the smallest positive eigenvalue of L0."""
    rhs = min(report.lambda_min_plus_l0, report.lam)
    residual = abs(report.lambda_min_plus_l1_total - rhs)
    return MinGapCheck(ok=residual <= MIN_GAP_TOL * max(1.0, report.lam), residual=residual)
