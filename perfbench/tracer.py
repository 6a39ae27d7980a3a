"""Spans around trispec's public functions, recorded from outside the package.

A layer is a group of functions.  `Tracer.install` replaces every binding
of each function in every loaded `trispec` module (a name such as
`lambda_of` is bound in both `spectra` and `extremal`), and `uninstall`
puts the originals back.  A function that no longer exists is listed in
`Tracer.missing` and its layer records zero calls, so the same tracer runs
against later versions of the package.

Spans are kept in memory and reduced to per-layer metrics after a pass:
a span's self time is its duration minus the part of it that child spans
cover, and a layer's call count only counts entries that are not nested
inside another span of the same layer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from contextlib import contextmanager

# Functions outside the package (the numpy solvers) are traced only when a
# trispec module calls them, so a replacement for the Jacobi solver lands in
# the same `spectra.eigensolve` layer.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("trispec.cli", "main"), ("trispec.cli", "_parallel_map")),
    "constructions": tuple(
        ("trispec.constructions", name)
        for name in (
            "complete_family",
            "gcb_family",
            "gcb_closed_form_spectrum",
            "gcb_lambda",
            "eigvec_c",
            "eigvec_bc",
            "eigvec_residual",
            "eigvec_matrix",
            "frobenius_decompose",
            "phi_lower_bound_family",
            "parse_construction",
        )
    ),
    "extremal.phi": (("trispec.extremal", "phi_exact"), ("trispec.extremal", "phi_table")),
    "extremal.certificates": tuple(
        ("trispec.extremal", name)
        for name in ("check_overlap", "check_counting", "check_rigidity", "vertex_window_check")
    ),
    "spectra.spectral_report": (
        ("trispec.spectra", "spectral_report"),
        ("trispec.spectra", "verify_min_gap"),
    ),
    "spectra.lambda_of": (("trispec.spectra", "lambda_of"),),
    "spectra.eigensolve": (
        ("trispec.spectra", "eigenvalues_symmetric"),
        ("numpy.linalg", "eigvalsh"),
        ("numpy.linalg", "eigh"),
    ),
    "incidence.exact_rank": (("trispec.incidence", "exact_rank"),),
    "incidence.build": tuple(
        ("trispec.incidence", name)
        for name in ("build_delta0", "build_delta1", "build_laplacian")
    ),
    "families.support_graph": (("trispec.families", "support_graph"),),
}


class Span:
    __slots__ = ("group", "parent", "info", "start", "end")

    def __init__(self, group, parent=None, info=None, start=0.0, end=0.0):
        self.group = group
        self.parent = parent
        self.info = info
        self.start = start
        self.end = end


def _matrix(args, kwargs):
    value = args[0] if args else next(iter(kwargs.values()), None)
    if hasattr(value, "dtype"):
        return value
    for attr in ("entries", "data"):
        inner = getattr(value, attr, None)
        if inner is not None and hasattr(inner, "shape"):
            return inner
    return value


def _shape(matrix) -> tuple[int, int]:
    shape = getattr(matrix, "shape", None)
    if shape is None:
        rows = len(matrix)
        return rows, (len(matrix[0]) if rows else 0)
    return int(shape[0]), int(shape[-1])


def _eigensolve_info(args, kwargs):
    return _shape(_matrix(args, kwargs))[1]


def _rank_info(args, kwargs):
    matrix = _matrix(args, kwargs)
    rows, cols = _shape(matrix)
    return rows * cols, getattr(matrix, "dtype", None) == object


_INFO = {"spectra.eigensolve": _eigensolve_info, "incidence.exact_rank": _rank_info}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Records one span per call into a wrapped function while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, group: str, fn, foreign: bool):
        info = _INFO.get(group)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if foreign and not sys._getframe(1).f_globals.get("__name__", "").startswith(
                "trispec"
            ):
                return fn(*args, **kwargs)
            stack = self._stack()
            # A pool thread has no open span of its own; it works for the
            # span the main thread has open while it waits on the pool.
            outer = stack or self._main_stack
            span = Span(group, outer[-1] if outer else None, info(args, kwargs) if info else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._main_stack = self._stack()
        targets = [
            (group, _module(module_name), module_name, attr)
            for group, pairs in self.layers.items()
            for module_name, attr in pairs
        ]
        package = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "trispec" or name.startswith("trispec."))
        ]
        for group, home, module_name, attr in targets:
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(group, original, not module_name.startswith("trispec"))
            for module in [home] + [m for m in package if m is not home]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    total = 0.0
    reach = start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer sum of span duration minus the time its child spans cover.

    Children in pool threads may overlap each other, so the covered part is
    the union of their intervals, not the sum of their durations.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out: dict[str, float] = {}
    for span in spans:
        own = span.end - span.start - _covered(span.start, span.end, children.get(id(span), []))
        out[span.group] = out.get(span.group, 0.0) + own
    return out


def _inside(span: Span, group: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.group == group:
            return True
        parent = parent.parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, every layer present."""
    entries: dict[str, list[Span]] = {group: [] for group in LAYERS}
    for span in spans:
        if not _inside(span, span.group):
            entries.setdefault(span.group, []).append(span)
    own = self_times(spans)
    out: dict[str, float] = {}
    for group in (
        "spectra.eigensolve",
        "incidence.exact_rank",
        "incidence.build",
        "families.support_graph",
        "spectra.lambda_of",
    ):
        out[f"{group}.calls"] = len(entries[group])
        out[f"{group}.self_s"] = own.get(group, 0.0)
    dims = [span.info for span in entries["spectra.eigensolve"]]
    out["spectra.eigensolve.dim_max"] = max(dims, default=0)
    out["spectra.eigensolve.n3_sum"] = sum(n**3 for n in dims)
    ranks = [span.info for span in entries["incidence.exact_rank"]]
    out["incidence.exact_rank.cells"] = sum(cells for cells, _ in ranks)
    out["incidence.exact_rank.object_calls"] = sum(1 for _, is_object in ranks if is_object)
    for group in (
        "spectra.spectral_report",
        "extremal.phi",
        "extremal.certificates",
        "constructions",
        "cli",
    ):
        out[f"{group}.self_s"] = own.get(group, 0.0)
    out["extremal.lambda_evals"] = sum(
        1 for span in entries["spectra.lambda_of"] if _inside(span, "extremal.phi")
    )
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the lower median over passes: a value one pass measured,
    so counts stay whole numbers."""
    return {name: statistics.median_low(p[name] for p in passes) for name in passes[0]}
