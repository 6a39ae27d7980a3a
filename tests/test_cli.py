import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trispec import (
    cli,
    complete_family,
    eigenvalues_symmetric,
    extremal,
    families,
    family_to_text,
    phi_lower_bound_family,
    read_matrix_market,
    spectra,
)
from trispec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lambda_of_construction(capsys):
    code, out, _ = run(capsys, "lambda", "kn:5")
    assert code == 0
    report = json.loads(out)
    assert report["lambda"] == pytest.approx(5.0, abs=1e-8)
    assert set(report) == {
        "lambda",
        "tau",
        "nullity",
        "spectrum",
        "lambda_min_plus_L0",
        "lambda_min_plus_L1_total",
        "dims",
    }


def test_lambda_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n1 2 4\n1 3 4\n"))
    code, out, _ = run(capsys, "lambda", "-")
    assert code == 0
    assert json.loads(out)["lambda"] == pytest.approx(1.0, abs=1e-8)


def test_lambda_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "lambda", "/no/such/family.txt")
    assert code == 4
    assert "i/o error" in err


def test_lambda_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 5\n")
    code, _, err = run(capsys, "lambda", str(bad))
    assert code == 2
    assert "line 2" in err


def test_lambda_validates_each_triangle_once(tmp_path, capsys, monkeypatch):
    # From text the parser checks each line and builds the family without
    # triangle(); a construction builds its triangles canonical and checks
    # none, and joining them, splitting the result into components and
    # ranking them checks none either.
    witness = phi_lower_bound_family(100).family
    witness = families.relabel(witness, {v: 3 * v % 101 for v in witness.vertices()})
    path = tmp_path / "witness.txt"
    path.write_text(families.family_to_text(witness))
    calls = []
    original = families.triangle
    monkeypatch.setattr(families, "triangle", lambda *t: calls.append(t) or original(*t))
    code, out, _ = run(capsys, "lambda", str(path))
    assert code == 0 and calls == []
    assert json.loads(out)["dims"]["triangles"] == 100
    for name, size in (("kn:6", 20), ("phi-lb:100", 100)):
        code, out, _ = run(capsys, "lambda", name)
        assert code == 0 and json.loads(out)["dims"]["triangles"] == size
        assert calls == []


def test_verify_rigidity_checks_no_triangle(capsys, monkeypatch):
    # K_n and its prefixes minus one or two triangles are already canonical.
    calls = []
    original = families.triangle
    monkeypatch.setattr(families, "triangle", lambda *t: calls.append(t) or original(*t))
    code, out, _ = run(capsys, "verify", "rigidity")
    assert code == 0 and "suite=rigidity checks=9 failures=0" in out
    assert calls == []


def test_intro_families_check_no_triangle(monkeypatch):
    # intro:1..3 are sorted prefixes of K_4, already canonical.
    calls = []
    original = families.triangle
    monkeypatch.setattr(families, "triangle", lambda *t: calls.append(t) or original(*t))
    intro = cli._intro_families()
    assert calls == []
    assert [(name, fam.triangles) for name, fam in intro] == [
        ("intro:1", ((1, 2, 3),)),
        ("intro:2", ((1, 2, 3), (1, 2, 4))),
        ("intro:3", ((1, 2, 3), (1, 2, 4), (1, 3, 4))),
        ("intro:4", ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))),
    ]


def test_phi_has_no_vertex_cap_option(capsys):
    # phi searches every connected family, on at most 2t + 1 vertices, so a
    # vertex cap is an unrecognised argument.
    code, out, err = run(capsys, "phi", "5", "--max-vertices", "4")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --max-vertices 4" in err


def test_lambda_of_a_comment_only_file_is_a_parse_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no triangles here\n\n")
    code, out, err = run(capsys, "lambda", str(empty))
    assert (code, out) == (2, "")
    assert "no triangle" in err


def test_lambda_of_empty_stdin_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run(capsys, "lambda", "-")
    assert (code, out) == (2, "")
    assert "no triangle" in err


def test_bad_construction_is_usage_error(capsys):
    code, _, err = run(capsys, "lambda", "frob:2,100")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_two(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify", "nosuch")[0] == 2


def test_version_flag(capsys):
    code, out, err = run(capsys, "--version")
    assert code == 0
    assert "trispec" in out + err


def test_verify_gcb_passes_without_seed(capsys):
    code, out, _ = run(capsys, "verify", "gcb", "--c", "3..4", "--b", "1..2")
    assert code == 0
    assert "suite=gcb checks=16 failures=0" in out


def test_verify_randomized_requires_seed(capsys):
    code, _, err = run(capsys, "verify", "hodge", "--random", "4")
    assert code == 2
    assert "--seed" in err


def test_verify_hodge_small(capsys):
    code, out, _ = run(capsys, "verify", "hodge", "--seed", "3", "--random", "4")
    assert code == 0
    assert "suite=hodge checks=12 failures=0" in out


def test_verify_rigidity_range(capsys):
    code, out, _ = run(capsys, "verify", "rigidity", "--n", "4..5")
    assert code == 0
    assert "suite=rigidity checks=6 failures=0" in out


@pytest.mark.parametrize("n_range", ["3", "3..5", "2..4"])
def test_verify_rigidity_rejects_n_below_four(capsys, n_range):
    # kn:3 minus one triangle is empty: a usage error, not a numerical failure.
    code, out, err = run(capsys, "verify", "rigidity", "--n", n_range)
    assert code == 2
    assert "n >= 4" in err
    assert out == ""


@pytest.mark.parametrize("suite", ["hodge", "all"])
def test_verify_random_families_reject_max_vertices_below_four(capsys, suite):
    # A random family draws its vertex count from 4..max_vertices.
    code, out, err = run(capsys, "verify", suite, "--seed", "1", "--max-vertices", "3")
    assert code == 2
    assert "--max-vertices >= 4, got 3" in err
    assert out == ""
    assert run(capsys, "verify", "hodge", "--seed", "1", "--random", "2", "--max-vertices", "4")[0] == 0


def test_verify_rejects_a_negative_random_count(capsys):
    # A negative count would draw no families and report checks=0 as a pass.
    code, out, err = run(capsys, "verify", "hodge", "--seed", "1", "--random", "-3")
    assert code == 2
    assert "--random must be at least 0, got -3" in err
    assert out == ""
    # Zero is valid: the hodge suite reads only random families.
    code, out, _ = run(capsys, "verify", "hodge", "--seed", "1", "--random", "0")
    assert code == 0
    assert "suite=hodge checks=0 failures=0" in out


@pytest.mark.parametrize("option,value", [("--c", "abc"), ("--b", "1..x"), ("--n", "5..3")])
def test_verify_parses_every_range_before_any_suite_prints(capsys, option, value):
    code, out, err = run(capsys, "verify", "all", "--seed", "1", "--random", "2", option, value)
    assert code == 2
    assert out == ""
    assert f"argument {option}: expected an integer or a nonempty range like 3..5, got {value!r}" in err


def test_verify_evaluates_each_audited_family_once(capsys, monkeypatch):
    calls = {"spectral_reports": 0, "lambda_of": 0, "support_graph": 0, "random_families": 0}
    reported = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "spectral_reports":
                reported.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "spectral_reports")
    counted(extremal, "lambda_of")
    counted(families, "support_graph")
    counted(cli, "random_families")
    suite_builds = {}

    def measured(name):
        suite = cli._SUITES[name]

        def wrapper(args, audited):
            audited()  # the reports, made here if no earlier suite asked
            before = calls["support_graph"]
            result = suite(args, audited)
            suite_builds[name] = calls["support_graph"] - before
            return result

        monkeypatch.setitem(cli._SUITES, name, wrapper)

    measured("overlap")
    measured("counting")
    code, out, _ = run(capsys, "verify", "all", "--seed", "3", "--random", "5")
    assert code == 0
    assert "suite=overlap checks=25 failures=0" in out
    # One report per grid (19) and random (5) family, all in one batch;
    # lambda_of inside the certificates only for the nine rigidity checks
    # (n = 4..6, three each); the overlap and counting certificates reuse
    # the graph each family built for its report.
    assert reported == [19 + 5] and calls["lambda_of"] == 9
    # hodge and the reports read one list of random families.
    assert calls["random_families"] == 1
    assert calls["support_graph"] > 0
    assert suite_builds == {"overlap": 0, "counting": 0}


def test_verify_solves_one_stack_per_kind_and_size(capsys, monkeypatch):
    # The reports and hodge's Gram matrices go through eigenvalues_grouped,
    # one eigenvalues_symmetric call per distinct (kind, size) group; the
    # nine gcb cells solve their L2_down alone.
    shapes, groups = [], []
    solve, grouped = spectra.eigenvalues_symmetric, spectra.eigenvalues_grouped

    def counted_solve(matrix):
        shapes.append(np.shape(matrix))
        return solve(matrix)

    def counted_grouped(grams):
        groups.append(len({(kind, size) for kind, size, _ in grams}))
        return grouped(grams)

    for module in (spectra, cli):
        monkeypatch.setattr(module, "eigenvalues_symmetric", counted_solve)
        monkeypatch.setattr(module, "eigenvalues_grouped", counted_grouped)
    code, _, _ = run(capsys, "verify", "all", "--seed", "1", "--random", "200")
    assert code == 0
    assert len(shapes) == sum(groups) + 9 == 109
    # The same 1,090 matrices that solving one at a time takes.
    assert sum(shape[0] if len(shape) == 3 else 1 for shape in shapes) == 1090


def test_verify_prints_earlier_suites_before_a_report_fails(capsys, monkeypatch):
    # intro:2 is the first audited family to fail a zero band this wide; the
    # hodge lines print before mingap asks for the reports.
    monkeypatch.setattr(spectra, "ZERO_BAND_COEFF", 0.5)
    with pytest.raises(spectra.SpectralError) as alone:
        spectra.spectral_report(cli._intro_families()[1][1])
    code, out, err = run(capsys, "verify", "all", "--seed", "1", "--random", "5")
    assert code == 3
    assert out.splitlines()[-1] == "suite=hodge checks=15 failures=0"
    assert err == f"numerical failure: {alone.value}\n"


def test_verify_gcb_builds_each_cell_family_once(capsys, monkeypatch):
    from trispec import constructions

    calls = []
    original = constructions.gcb_family

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(constructions, "gcb_family", counted)
    monkeypatch.setattr(cli, "gcb_family", counted)
    code, out, _ = run(capsys, "verify", "gcb")
    assert code == 0 and "suite=gcb checks=36 failures=0" in out
    assert sorted((s.c, s.b) for s in calls) == [(c, b) for c in (3, 4, 5) for b in (1, 2, 3)]


def test_phi_subcommand_writes_json(tmp_path, capsys):
    out_path = tmp_path / "phi3.json"
    code, out, _ = run(capsys, "phi", "3", "--json", str(out_path))
    assert code == 0
    shown = json.loads(out)
    assert shown["phi"] == pytest.approx(3.0)
    assert shown["exhaustive"] is True
    assert json.loads(out_path.read_text()) == shown


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "trispec", "phi", "3"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == run(capsys, "phi", "3")[1]


def test_phi_refuses_checkpoint_of_another_budget(tmp_path, capsys):
    path = str(tmp_path / "phi.ckpt")
    assert run(capsys, "phi", "3", "--checkpoint", path)[0] == 0
    code, _, err = run(capsys, "phi", "4", "--checkpoint", path)
    assert code == 2
    assert "another search" in err


@pytest.mark.parametrize(
    "search",
    [
        {"t": 4, "cap": 9, "layout": 3},  # also keyed on a vertex cap, now gone
        {"t": 4, "cap": 9, "version": "0.1.0"},  # keyed on the tool version, before layouts
        {"t": 4, "layout": 1},  # incumbents grown without the windmill seed
        {"t": 4, "cap": 9, "prune": True, "layout": 2},  # also keyed on `prune`, now gone
        {"t": 4, "layout": 4},  # each witness stored beside its lambda
    ],
    ids=["vertex-cap", "version", "unseeded", "prune", "lambda-pairs"],
)
def test_phi_refuses_checkpoint_of_an_older_layout(tmp_path, capsys, search):
    # Each file is the one `phi 4` writes, under an older `search`; the
    # layout-4 file also holds `best` as that layout did, [lambda, witness].
    path = tmp_path / "phi.ckpt"
    assert run(capsys, "phi", "4", "--checkpoint", str(path))[0] == 0
    doc = json.loads(path.read_text())
    assert doc["search"] == {"t": 4, "layout": 5}
    if search.get("layout") == 4:
        doc["best"] = {
            s: [extremal._sweep_lambda(tuple(map(tuple, witness))), witness]
            for s, witness in doc["best"].items()
        }
    doc["search"] = search
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "phi", "4", "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert "belongs to another search" in err and "found search" in err


@pytest.mark.parametrize(
    "t,witness",
    [
        (3, [[1, 2, 3], [1, 4, 5], [1, 6, 8]]),  # label 8 past 2t + 1
        (3, [[1, 2, 3], [1, 2, 3], [1, 2, 3]]),  # one triangle, three times
        (3, [[1, 2, 3], [4, 5, 6]]),  # disconnected
        (3, [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6]]),  # 4 triangles in a 3-search
    ],
)
def test_phi_refuses_checkpoint_incumbent_outside_the_search(tmp_path, capsys, t, witness):
    # The file holds witnesses only, so the witness itself tells it apart.
    # The first one's lambda 3.0 only ties the seed, so offered it would
    # lose; the label check refuses it before that.
    path = tmp_path / "phi.ckpt"
    path.write_text(json.dumps({
        "search": {"t": t, "layout": extremal._CHECKPOINT_LAYOUT},
        "best": {str(len(witness)): witness},
        "cursor": [[1, 2, 3]],
    }))
    code, out, err = run(capsys, "phi", str(t), "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert "another search" in err


def test_phi_refuses_malformed_checkpoint(tmp_path, capsys):
    path = tmp_path / "phi.ckpt"
    assert run(capsys, "phi", "4", "--checkpoint", str(path))[0] == 0
    finished = path.read_text()
    doc = json.loads(finished)
    del doc["cursor"]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "phi", "4", "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert "another search" in err and str(path) in err
    path.write_text(finished[: len(finished) // 2])
    code, out, err = run(capsys, "phi", "4", "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert "another search" in err


def test_phi_refuses_checkpoint_whose_triangles_are_malformed(tmp_path, capsys):
    # Each document parses and unpacks; only its triangle lists are wrong.
    path = tmp_path / "phi.ckpt"
    assert run(capsys, "phi", "4", "--checkpoint", str(path))[0] == 0
    doc = json.loads(path.read_text())
    witness = doc["best"]["4"]
    bad = [
        dict(doc, best={**doc["best"], "4": witness[:3]}),  # 3 triples for size 4
        dict(doc, best={**doc["best"], "4": [["1", 2, 3]] + witness[1:]}),
        dict(doc, best={**doc["best"], "4": [[True, 2, 3]] + witness[1:]}),
        dict(doc, cursor=[[1, 2]]),
    ]
    for broken in bad:
        path.write_text(json.dumps(broken))
        code, out, err = run(capsys, "phi", "4", "--checkpoint", str(path))
        assert (code, out) == (2, "")
        assert "another search or is malformed" in err
        assert "integer triples" in err


def test_phi_refuses_checkpoint_cursor_outside_the_search(tmp_path, capsys):
    path = tmp_path / "phi.ckpt"
    assert run(capsys, "phi", "4", "--checkpoint", str(path))[0] == 0
    doc = json.loads(path.read_text())
    not_canonical = [[1, 2, 3], [2, 3, 4]]
    longer_than_t = [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 2, 6], [1, 2, 7]]
    for cursor in (not_canonical, longer_than_t):
        path.write_text(json.dumps(dict(doc, cursor=cursor)))
        code, out, err = run(capsys, "phi", "4", "--checkpoint", str(path))
        assert (code, out) == (2, "")
        assert "another search" in err


def test_phi_rejects_budget_that_is_not_positive(capsys):
    for budget in ("0", "nan"):
        code, out, err = run(capsys, "phi", "3", "--budget-seconds", budget)
        assert (code, out) == (2, "")
        assert "budget_seconds must be positive" in err


def test_eigensolver_failure_is_numerical_exit(capsys, monkeypatch):
    def fail(_matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, _, err = run(capsys, "lambda", "kn:4")
    assert code == 3
    assert "numerical failure" in err


def test_manifest_tolerances_are_the_values_in_force(tmp_path, capsys, monkeypatch):
    path = tmp_path / "run.json"
    assert run(capsys, "lambda", "kn:4", "--manifest", str(path))[0] == 0
    tolerances = json.loads(path.read_text())["tolerances"]
    assert tolerances == {
        "eigenvalue_abs": cli.TOLERANCES["eigenvalue_abs"],
        "cluster_radius": cli.TOLERANCES["cluster_radius"],
        "min_gap": spectra.MIN_GAP_TOL,
        "ceil_guard": extremal.CEIL_GUARD,
        "zero_band_coeff": spectra.ZERO_BAND_COEFF,
        "psd_tol_coeff": spectra.PSD_TOL_COEFF,
        "symmetry": spectra.SYMMETRY_TOL,
        "improve_eps": extremal.IMPROVE_EPS,
    }
    # The suites read their thresholds from the same dict the manifest records.
    monkeypatch.setitem(cli.TOLERANCES, "eigenvalue_abs", -1.0)
    code, out, _ = run(capsys, "verify", "hodge", "--seed", "3", "--random", "1")
    assert code == 1
    assert "FAIL hodge random:0 up/down spectra" in out
    monkeypatch.setitem(cli.TOLERANCES, "eigenvalue_abs", 1e-8)
    monkeypatch.setitem(cli.TOLERANCES, "cluster_radius", -1.0)
    code, out, _ = run(capsys, "verify", "gcb", "--c", "3", "--b", "2")
    assert code == 1
    assert "FAIL gcb gcb:3,2 spectrum" in out


def test_export_round_trip(tmp_path, capsys):
    outdir = tmp_path / "k4"
    code, out, _ = run(capsys, "export", "kn:4", str(outdir), "--matrices", "d1,L1up")
    assert code == 0
    listed = out.strip().splitlines()
    assert listed[-1].endswith("manifest.json")
    assert sorted(os.listdir(outdir)) == ["L1_up.mtx", "d1.mtx", "manifest.json"]
    l1up = read_matrix_market(outdir / "L1_up.mtx")
    eigs = eigenvalues_symmetric(l1up.astype(float))
    positive = eigs[eigs > 1e-10]
    assert positive[0] == pytest.approx(4.0, abs=1e-10)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["outputs"] == ["d1.mtx", "L1_up.mtx"]
    assert manifest["command"].startswith("trispec export kn:4")


def test_export_single_triangle_d1(tmp_path, capsys):
    outdir = tmp_path / "t1"
    code, _, _ = run(capsys, "export", "intro-none", str(outdir), "--matrices", "d1")
    assert code == 4  # not a construction prefix, so it is treated as a path

    code, _, _ = run(capsys, "export", "kn:3", str(outdir), "--matrices", "d1")
    assert code == 0
    d1 = read_matrix_market(outdir / "d1.mtx")
    assert d1.shape == (1, 3)
    assert list(d1[0]) == [1, -1, 1]
    with open(outdir / "d1.mtx", "r", encoding="utf-8") as handle:
        body = [ln for ln in handle if ln.strip() and not ln.startswith("%")]
    assert body[0].split() == ["1", "3", "3"]
    assert len(body) == 4  # size line plus three stored entries


def test_export_rejects_unknown_matrix(tmp_path, capsys):
    code, _, err = run(capsys, "export", "kn:3", str(tmp_path / "x"), "--matrices", "bogus")
    assert code == 2
    assert "unknown matrix" in err


def test_manifest_determinism(tmp_path, capsys):
    path = tmp_path / "run.json"
    argv = ["lambda", "gcb:4,2", "--manifest", str(path)]
    assert main(list(argv)) == 0
    first = json.loads(path.read_text())
    assert main(list(argv)) == 0
    second = json.loads(path.read_text())
    capsys.readouterr()
    t1 = first.pop("timing_seconds")
    t2 = second.pop("timing_seconds")
    assert first == second
    assert t1 >= 0 and t2 >= 0
    assert first["version"]
    assert len(first["input_sha256"]) == 64


def test_lambda_formats_the_family_only_for_a_manifest(tmp_path, capsys, monkeypatch):
    texts = []

    def recorded(fam):
        texts.append(families.family_to_text(fam))
        return texts[-1]

    monkeypatch.setattr(cli, "family_to_text", recorded)
    plain = run(capsys, "lambda", "gcb:4,2")
    assert plain[0] == 0 and texts == []
    path = tmp_path / "run.json"
    assert run(capsys, "lambda", "gcb:4,2", "--manifest", str(path)) == plain
    manifest = json.loads(path.read_text())
    assert texts and manifest["input_sha256"] == hashlib.sha256(texts[0].encode("utf-8")).hexdigest()


def _manifest(tmp_path, *argv):
    path = tmp_path / "run.json"
    assert main([*argv, "--manifest", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "argv, option",
    [
        (["phi", "3"], ["--budget-seconds", "100"]),
        (["verify", "hodge", "--seed", "1", "--random", "2"], ["--max-vertices", "6"]),
        (["verify", "rigidity"], ["--n", "4"]),
        (["verify", "gcb", "--b", "1"], ["--c", "3"]),
        (["verify", "gcb", "--c", "3"], ["--b", "2"]),
    ],
    ids=["phi-budget", "verify-max-vertices", "verify-n", "verify-c", "verify-b"],
)
def test_manifest_digest_covers_each_option_that_changes_the_output(tmp_path, capsys, argv, option):
    first = _manifest(tmp_path, *argv)
    again = _manifest(tmp_path, *argv)
    other = _manifest(tmp_path, *argv, *option)
    capsys.readouterr()
    assert other["input_sha256"] != first["input_sha256"]
    assert first.pop("timing_seconds") >= 0 and again.pop("timing_seconds") >= 0
    assert first == again


def test_phi_manifest_records_the_sweep_stats(tmp_path, capsys):
    # Two runs differ only in timing, and stdout does not show the stats.
    first, again = _manifest(tmp_path, "phi", "6"), _manifest(tmp_path, "phi", "6")
    assert "stats" not in capsys.readouterr().out
    assert first.pop("timing_seconds") >= 0 and again.pop("timing_seconds") >= 0
    assert first == again and first["stats"] == extremal.phi_table(6).stats


def test_lean_commands_load_neither_openssl_nor_fractions(tmp_path, capsys):
    script = (
        "import contextlib, io, json, sys\n"
        "from trispec import cli\n"
        "seen = []\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    heavy = ('hashlib', '_hashlib', 'fractions', 'decimal')\n"
        "    seen.append([code, [m for m in heavy if m in sys.modules]])\n"
        "print(json.dumps(seen))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    commands = ["phi 3", "lambda kn:4", "verify hodge --seed 1 --random 5", "verify gcb"]
    result = subprocess.run(
        [sys.executable, "-c", script, *commands],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, []]] * len(commands)
    # A manifest, which needs hashlib, still gets it, and the gcb suite's
    # exact eigenvector checks, now in integers, all still run.
    manifest = _manifest(tmp_path, "lambda", "kn:4")
    text = family_to_text(complete_family(4))
    assert manifest["input_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    code, out, _ = run(capsys, "verify", "gcb")
    assert code == 0
    assert "suite=gcb checks=36 failures=0" in out


def test_export_determinism(tmp_path, capsys):
    def snapshot(outdir):
        assert main(["export", "gcb:3,2", str(outdir), "--matrices", "d0,d1,L2down"]) == 0
        capsys.readouterr()
        files = {}
        for name in sorted(os.listdir(outdir)):
            text = (outdir / name).read_text()
            if name == "manifest.json":
                data = json.loads(text)
                data.pop("timing_seconds")
                data["command"] = data["command"].rsplit(" ", 2)[0]
                files[name] = json.dumps(data, sort_keys=True)
            else:
                files[name] = text
        return files

    a = snapshot(tmp_path / "a")
    b = snapshot(tmp_path / "b")
    assert set(a) == {"d0.mtx", "d1.mtx", "L2_down.mtx", "manifest.json"}
    # matrix bytes are identical run to run; manifests differ only in outdir
    assert {k: v for k, v in a.items() if k != "manifest.json"} == {
        k: v for k, v in b.items() if k != "manifest.json"
    }
