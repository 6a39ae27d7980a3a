import json
import re
from pathlib import Path

import numpy as np
import pytest

import trispec
from trispec import cli, complete_family, extremal, spectra
from tracer import LAYERS, Span, Tracer, layer_metrics, self_times

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_time_subtracts_nested_children():
    root = Span("cli", None, None, 0.0, 10.0)
    lam = Span("spectra.lambda_of", root, None, 1.0, 5.0)
    eig = Span("spectra.eigensolve", lam, 7, 2.0, 4.0)
    build = Span("incidence.build", root, None, 6.0, 7.0)
    own = self_times([root, lam, eig, build])
    assert own == pytest.approx(
        {"cli": 5.0, "spectra.lambda_of": 2.0, "spectra.eigensolve": 2.0, "incidence.build": 1.0}
    )


def test_self_time_counts_overlapping_pool_children_once():
    pool = Span("cli", None, None, 0.0, 10.0)
    first = Span("spectra.spectral_report", pool, None, 1.0, 6.0)
    second = Span("spectra.spectral_report", pool, None, 4.0, 8.0)
    late = Span("constructions", pool, None, 9.5, 12.0)
    own = self_times([pool, first, second, late])
    assert own["cli"] == pytest.approx(10.0 - 7.0 - 0.5)
    assert own["spectra.spectral_report"] == pytest.approx(9.0)


def test_layer_metrics_count_outermost_entries():
    phi = Span("extremal.phi", None, None, 0.0, 10.0)
    lam = Span("spectra.lambda_of", phi, None, 1.0, 3.0)
    jacobi = Span("spectra.eigensolve", lam, 5, 1.5, 2.5)
    lapack = Span("spectra.eigensolve", jacobi, 5, 1.6, 2.0)
    loose = Span("spectra.lambda_of", None, None, 11.0, 12.0)
    rank = Span("incidence.exact_rank", loose, (12, True), 11.1, 11.2)
    m = layer_metrics([phi, lam, jacobi, lapack, loose, rank])
    assert m["spectra.eigensolve.calls"] == 1
    assert m["spectra.eigensolve.n3_sum"] == 125
    assert m["spectra.eigensolve.dim_max"] == 5
    assert m["spectra.eigensolve.self_s"] == pytest.approx(1.0)
    assert m["spectra.lambda_of.calls"] == 2
    assert m["extremal.lambda_evals"] == 1
    assert m["incidence.exact_rank.cells"] == 12
    assert m["incidence.exact_rank.object_calls"] == 1
    assert m["extremal.phi.self_s"] == pytest.approx(8.0)


def _bindings():
    modules = [trispec, cli, spectra, extremal]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def test_wrappers_patch_every_binding_and_restore_originals():
    before = _bindings()
    eigvalsh = np.linalg.eigvalsh
    tracer = Tracer()
    with tracer.installed():
        assert spectra.lambda_of is not before[("trispec.spectra", "lambda_of")]
        assert extremal.lambda_of is spectra.lambda_of
        assert trispec.lambda_of is spectra.lambda_of
        assert np.linalg.eigvalsh is not eigvalsh
        assert extremal.lambda_of(complete_family(4)) == pytest.approx(4.0)
    assert _bindings() == before
    assert np.linalg.eigvalsh is eigvalsh
    groups = {span.group for span in tracer.spans}
    assert {"spectra.lambda_of", "spectra.eigensolve", "incidence.exact_rank"} <= groups


def test_absent_functions_are_reported_not_fatal():
    layers = dict(LAYERS)
    layers["spectra.eigensolve"] = LAYERS["spectra.eigensolve"] + (("trispec.spectra", "gone"),)
    layers["cli"] = (("trispec.cli", "main"), ("trispec.nowhere", "_parallel_map"))
    tracer = Tracer(layers)
    with tracer.installed():
        pass
    assert set(tracer.missing) == {"trispec.nowhere._parallel_map", "trispec.spectra.gone"}
    assert layer_metrics(tracer.spans)["spectra.eigensolve.calls"] == 0


def test_numpy_solver_is_traced_only_when_trispec_calls_it():
    namespace = {"__name__": "trispec._probe", "np": np}
    exec("def solve(a):\n    return np.linalg.eigvalsh(a)\n", namespace)
    tracer = Tracer()
    with tracer.installed():
        np.linalg.eigvalsh(np.eye(3))
        namespace["solve"](np.eye(4))
    spans = [s for s in tracer.spans if s.group == "spectra.eigensolve"]
    assert [s.info for s in spans] == [4]


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(layer_metrics([])) | {"trace.overhead_ratio"}
