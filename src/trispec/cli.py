"""Command line front end: compute, verify, search, export.

Exit codes: 0 success, 1 verification failures, 2 usage or parse errors,
3 numerical failures, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import combinations
from math import comb

import numpy as np

from . import __version__
from .constructions import (
    GcbSpec,
    complete_family,
    eigvec_bc,
    eigvec_c,
    eigvec_matrix,
    eigvec_residual,
    gcb_closed_form_spectrum,
    gcb_family,
    gcb_lambda,
    parse_construction,
)
from .extremal import (
    CEIL_GUARD,
    IMPROVE_EPS,
    check_counting,
    check_overlap,
    check_rigidity,
    phi_table,
)
from .families import (
    TriangleFamily,
    family_to_text,
    load_family,
    parse_family,
    random_families,
)
from .incidence import (
    build_delta0,
    build_delta1,
    build_laplacian,
    delta1_rank,
    exact_rank,
    harmonic_dimension,
    write_matrix_market,
)
from .spectra import (
    MIN_GAP_TOL,
    PSD_TOL_COEFF,
    SYMMETRY_TOL,
    ZERO_BAND_COEFF,
    SpectralError,
    SpectralReport,
    eigenvalues_grouped,
    eigenvalues_symmetric,
    lambda_of,
    spectral_report,
    spectral_reports,
    verify_min_gap,
)

# The tolerances in force, as the manifest records them: the verify suites
# look their thresholds up here, the others are the constants the code reads.
TOLERANCES = {
    "eigenvalue_abs": 1e-8,
    "cluster_radius": 1e-6,
    "min_gap": MIN_GAP_TOL,
    "ceil_guard": CEIL_GUARD,
    "zero_band_coeff": ZERO_BAND_COEFF,
    "psd_tol_coeff": PSD_TOL_COEFF,
    "symmetry": SYMMETRY_TOL,
    "improve_eps": IMPROVE_EPS,
}

_CONSTRUCTIONS = ("kn", "gcb", "frob", "phi-lb")
_RANDOMIZED_SUITES = {"hodge", "mingap", "overlap", "counting", "all"}

_MATRIX_KINDS = {
    "d0": "d0",
    "delta0": "d0",
    "d1": "d1",
    "delta1": "d1",
    "l0": "L0_up",
    "l0up": "L0_up",
    "l1down": "L1_down",
    "l1up": "L1_up",
    "l2down": "L2_down",
    "l1": "L1_total",
    "l1total": "L1_total",
}


def _load_source(token: str) -> TriangleFamily:
    if token == "-":
        return parse_family(sys.stdin.read())
    if ":" in token and token.split(":", 1)[0] in _CONSTRUCTIONS:
        return parse_construction(token)
    return load_family(token)


def _write_manifest(
    path, args, input_text: str, outputs: list[str], started: float, stats: dict | None = None
) -> None:
    """Write the run manifest to `path`, with `stats` when given; without a
    path, write nothing and load no hashlib."""
    if not path:
        return
    import hashlib  # deferred to here: it loads OpenSSL
    data = {
        "command": "trispec " + " ".join(args.argv),
        "input_sha256": hashlib.sha256(input_text.encode("utf-8")).hexdigest(),
        "version": __version__,
        "tolerances": TOLERANCES,
        "timing_seconds": time.monotonic() - started,
        "outputs": outputs,
    }
    if stats is not None:
        data["stats"] = stats
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Verification suites.


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.failures = 0

    def check(self, ok: bool, label: str, detail: str = "") -> None:
        if not ok:
            self.failures += 1
        tag = "ok" if ok else "FAIL"
        self.lines.append(f"{tag} {self.name} {label}" + (f" {detail}" if detail else ""))


def _intro_families() -> list[tuple[str, TriangleFamily]]:
    k4 = complete_family(4)  # intro:s is its sorted prefix of s triangles
    prefixes = [TriangleFamily._canonical(k4.triangles[:s]) for s in (1, 2, 3)]
    return [(f"intro:{s}", fam) for s, fam in enumerate(prefixes + [k4], 1)]


def _grid_families() -> list[tuple[str, TriangleFamily]]:
    fams = _intro_families()
    fams += [(f"kn:{n}", complete_family(n)) for n in range(3, 9)]
    fams += [
        (f"gcb:{c},{b}", gcb_family(GcbSpec(c, b)))
        for c in range(3, 6)
        for b in range(1, 4)
    ]
    return fams


def _named_random(args) -> list[tuple[str, TriangleFamily]]:
    fams = random_families(args.random, args.seed, max_vertices=args.max_vertices)
    return [(f"random:{i}", fam) for i, fam in enumerate(fams)]


def _suite_hodge(args, audited) -> _Suite:
    suite = _Suite("hodge")
    rows = []
    grams = []
    for label, fam in args.randoms:
        d0 = build_delta0(fam.support)
        d1 = build_delta1(fam)
        r0 = len(fam.support.vertices) - len(fam.components)
        r1 = delta1_rank(fam)  # independent of the stacked rank in `harmonic`
        edges = d0.shape[0]
        harmonic = harmonic_dimension(d0, d1)
        rows.append((label, len(fam), not np.any(d1 @ d0), r0, r1, harmonic, edges))
        d1f = d1.astype(float)
        grams.append(("up", edges, lambda d1f=d1f: d1f.T @ d1f))
        grams.append(("down", len(fam), lambda d1f=d1f: d1f @ d1f.T))
    # Both Gram spectra of every family, one stack per (kind, size).
    solved = iter(eigenvalues_grouped(grams))
    for label, t, closed, r0, r1, harmonic, edges in rows:
        up, down = next(solved), next(solved)
        gap = float(np.max(np.abs(up[edges - r1 :] - down[t - r1 :]))) if r1 else 0.0
        suite.check(closed, f"{label} d1*d0=0")
        suite.check(
            r0 + r1 + harmonic == edges,
            f"{label} rank split",
            f"r0={r0} r1={r1} harmonic={harmonic}",
        )
        suite.check(
            gap <= TOLERANCES["eigenvalue_abs"], f"{label} up/down spectra", f"residual={gap:.3e}"
        )
    return suite


def _suite_mingap(args, audited) -> _Suite:
    suite = _Suite("mingap")
    for label, _fam, report in audited():
        check = verify_min_gap(report)
        suite.check(check.ok, label, f"residual={check.residual:.3e}")
    return suite


def _suite_overlap(args, audited) -> _Suite:
    suite = _Suite("overlap")
    certs = {}
    for label, fam, report in audited():
        cert = certs[label] = check_overlap(fam, report.lam)
        suite.check(cert.passed, label, f"n={cert.n} d_e={cert.min_edge_codegree}")
    k5 = certs["kn:5"]
    suite.check(
        k5.min_edge_codegree == k5.n - 2 and k5.min_degree == k5.n - 1,
        "kn:5 sharpness",
        f"d_e={k5.min_edge_codegree} d_min={k5.min_degree} n={k5.n}",
    )
    return suite


def _suite_counting(args, audited) -> _Suite:
    suite = _Suite("counting")
    for label, fam, report in audited():
        cert = check_counting(fam, report.lam)
        note = "vacuous" if not cert.applicable else f"n={cert.ceil_lambda} v={cert.v} e={cert.e} t={cert.t}"
        suite.check(cert.passed, label, note)
    return suite


def _suite_rigidity(args, audited) -> _Suite:
    suite = _Suite("rigidity")
    for n in args.n:
        full = complete_family(n)
        at_budget = check_rigidity(n, full)
        suite.check(
            at_budget.branch == "at_budget_excess" and at_budget.passed,
            f"kn:{n} at budget",
            f"lambda={at_budget.lam:.9f}",
        )
        for drop in (1, 2):
            sub = TriangleFamily._canonical(full.triangles[:-drop])  # a sorted prefix
            verdict = check_rigidity(n, sub)
            suite.check(
                verdict.branch == "below_budget" and verdict.passed,
                f"kn:{n} minus {drop}",
                f"lambda={verdict.lam:.9f} bound={n - 1}",
            )
    return suite


def _check_gcb_cell(suite: _Suite, c: int, b: int) -> None:
    spec = GcbSpec(c, b)
    fam = gcb_family(spec)
    closed = gcb_closed_form_spectrum(spec)
    d1 = build_delta1(fam)
    l2 = d1 @ d1.T
    l1up = d1.T @ d1
    eigs = eigenvalues_symmetric(l2)
    values = [v for v, _ in closed.rows]
    counts = dict.fromkeys(values, 0)
    worst = 0.0
    for e in eigs:
        v = min(values, key=lambda val: abs(e - val))
        worst = max(worst, abs(e - v))
        if abs(e - v) <= TOLERANCES["cluster_radius"]:
            counts[v] += 1
    mult_ok = all(counts[v] == m for v, m in closed.rows)
    lam = lambda_of(fam)
    w_vecs = [eigvec_bc(spec, x, y, fam) for x, y in combinations(range(1, c + 1), 2)]
    vec_ok = all(eigvec_residual(l1up, w, b + c) for w in w_vecs)
    ranks_ok = exact_rank(eigvec_matrix(w_vecs)) == comb(c, 2)
    if b >= 2:
        v_vecs = [
            eigvec_c(spec, x, y, fam)
            for x in range(2, c + 1)
            for y in range(c + 1, b + c)
        ]
        vec_ok = vec_ok and all(eigvec_residual(l2, v, c) for v in v_vecs)
        ranks_ok = ranks_ok and exact_rank(eigvec_matrix(v_vecs)) == (b - 1) * (c - 1)
    label = f"gcb:{c},{b}"
    tol = TOLERANCES["eigenvalue_abs"]
    suite.check(mult_ok and worst <= tol, f"{label} spectrum", f"residual={worst:.3e}")
    suite.check(abs(lam - gcb_lambda(spec)) <= tol, f"{label} lambda", f"lambda={lam:.9f}")
    suite.check(vec_ok, f"{label} eigenvectors", "exact residual 0")
    suite.check(ranks_ok, f"{label} eigenvector ranks")


def _suite_gcb(args, audited) -> _Suite:
    suite = _Suite("gcb")
    for c in args.c:
        for b in args.b:
            _check_gcb_cell(suite, c, b)
    return suite


_SUITES = {
    "hodge": _suite_hodge,
    "mingap": _suite_mingap,
    "overlap": _suite_overlap,
    "counting": _suite_counting,
    "rigidity": _suite_rigidity,
    "gcb": _suite_gcb,
}


def _parse_range(text: str) -> list[int]:
    """'3..5' -> [3, 4, 5]; '4' -> [4]; argparse names the option on error."""
    lo, sep, hi = text.partition("..")
    try:
        out = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        out = []
    if not out:
        raise argparse.ArgumentTypeError(f"expected an integer or a nonempty range like 3..5, got {text!r}")
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_lambda(args) -> int:
    started = time.monotonic()
    fam = _load_source(args.source)
    report = spectral_report(fam)
    print(report.to_json())
    if args.manifest:
        _write_manifest(args.manifest, args, family_to_text(fam), [], started)
    return 0


def _cmd_verify(args) -> int:
    started = time.monotonic()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if args.suite in _RANDOMIZED_SUITES and args.seed is None:
        raise ValueError("--seed is required for randomized suites")
    if args.suite in _RANDOMIZED_SUITES and args.max_vertices < 4:
        raise ValueError(f"random families need --max-vertices >= 4, got {args.max_vertices}")
    if args.suite in _RANDOMIZED_SUITES and args.random < 0:
        raise ValueError(f"--random must be at least 0, got {args.random}")
    if "rigidity" in names and min(args.n) < 4:
        # kn:3 minus a triangle is empty, so it has no lambda.
        raise ValueError(f"the rigidity suite needs n >= 4, got --n {min(args.n)}")

    # One list of random families per run, read by hodge and by the reports.
    args.randoms = _named_random(args) if args.suite in _RANDOMIZED_SUITES else []

    # One report per grid and random family, all from one batch, shared by
    # the suites that read lambda and made when the first of them asks, so a
    # SpectralError still surfaces after the earlier suites' lines have
    # printed.
    @functools.cache
    def audited() -> list[tuple[str, TriangleFamily, SpectralReport]]:
        fams = _grid_families() + args.randoms
        reports = spectral_reports([fam for _, fam in fams])
        return [(label, fam, report) for (label, fam), report in zip(fams, reports)]

    total_failures = 0
    for name in names:
        suite = _SUITES[name](args, audited)
        for line in suite.lines:
            print(line)
        print(f"suite={name} checks={len(suite.lines)} failures={suite.failures}")
        total_failures += suite.failures
    key = (
        f"verify {' '.join(names)} seed={args.seed} random={args.random}"
        f" max_vertices={args.max_vertices} n={args.n} c={args.c} b={args.b}"
    )
    _write_manifest(args.manifest, args, key, [], started)
    return 1 if total_failures else 0


def _cmd_phi(args) -> int:
    started = time.monotonic()
    table = phi_table(args.t, budget_seconds=args.budget_seconds, checkpoint=args.checkpoint)
    entry = table.entries[args.t]
    text = json.dumps(entry.to_dict(), sort_keys=True, indent=2)
    print(text)
    outputs = []
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        outputs.append(args.json)
    # A resumed search prints what a fresh one does, so --checkpoint is left out.
    key = f"phi {args.t} budget_seconds={args.budget_seconds}"
    _write_manifest(args.manifest, args, key, outputs, started, table.stats)
    return 0


def _cmd_export(args) -> int:
    started = time.monotonic()
    fam = _load_source(args.source)
    kinds = []
    for token in args.matrices.split(","):
        norm = token.strip().lower().replace("_", "").replace("-", "")
        if norm not in _MATRIX_KINDS:
            raise ValueError(
                f"unknown matrix {token!r}; choose from d0,d1,L0,L1down,L1up,L2down,L1total"
            )
        kinds.append(_MATRIX_KINDS[norm])
    os.makedirs(args.outdir, exist_ok=True)
    written = []
    for kind in kinds:
        if kind == "d0":
            entries = build_delta0(fam.support)
        elif kind == "d1":
            entries = build_delta1(fam)
        else:
            entries = build_laplacian(kind, fam)
        name = f"{kind}.mtx"
        write_matrix_market(
            os.path.join(args.outdir, name), entries, comment=f"{kind} of {args.source}"
        )
        written.append(name)
        print(os.path.join(args.outdir, name))
    manifest = os.path.join(args.outdir, "manifest.json")
    _write_manifest(manifest, args, family_to_text(fam), written, started)
    print(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trispec",
        description="Spectral parameter of triangle families: compute, verify, search, export.",
    )
    parser.add_argument("--version", action="version", version=f"trispec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lambda", help="print the spectral report of a family as JSON")
    sp.add_argument(
        "source",
        help="family file, '-' for stdin, or a construction like kn:5, gcb:4,2, frob:3,73, phi-lb:81",
    )
    sp.add_argument("--manifest", metavar="PATH", help="also write a run manifest")
    sp.set_defaults(func=_cmd_lambda)

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    sp.add_argument("--random", type=int, default=50, help="number of random families")
    sp.add_argument("--seed", type=int, help="PRNG seed (required for randomized suites)")
    sp.add_argument("--max-vertices", type=int, default=8)
    # Ranges are parsed with the other arguments, before any suite prints.
    sp.add_argument("--c", type=_parse_range, default="3..5", help="clique sizes for the gcb suite, e.g. 3..5")
    sp.add_argument("--b", type=_parse_range, default="1..3", help="apex counts for the gcb suite")
    sp.add_argument("--n", type=_parse_range, default="4..6", help="vertex counts for the rigidity suite")
    sp.add_argument("--manifest", metavar="PATH")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("phi", help="exact extremal value for a triangle budget")
    sp.add_argument("t", type=int)
    sp.add_argument("--budget-seconds", type=float)
    sp.add_argument("--checkpoint", metavar="PATH", help="resumable progress file")
    sp.add_argument("--json", metavar="PATH", help="also write the entry to a file")
    sp.add_argument("--manifest", metavar="PATH")
    sp.set_defaults(func=_cmd_phi)

    sp = sub.add_parser("export", help="write matrices of a family in MatrixMarket form")
    sp.add_argument("source")
    sp.add_argument("outdir")
    sp.add_argument("--matrices", default="d0,d1,L2down")
    sp.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    args.argv = argv
    try:
        return args.func(args)
    except ValueError as exc:  # FamilyParseError and EmptyFamilyError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
