"""Run one workload in this process and print the raw samples as JSON.

`run.py` starts this script in a fresh interpreter for every workload, so
the import of trispec is part of the timed set-up.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --workdir DIR [--setup-only]

The last line of standard output is one JSON object; the output of the
`trispec` commands themselves is captured and checked, not printed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """Import trispec from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import trispec.cli

    if Path(trispec.__file__).resolve().parent != src / "trispec":
        raise SystemExit(f"trispec was imported from {trispec.__file__}, not from {src}")
    return trispec.cli


def run_pass(cli, argv: list[str]):
    out = io.StringIO()
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - wall0, time.process_time() - cpu0, code, out.getvalue()


def measure(cli, workload, argv: list[str], seconds: float, trace: bool) -> dict:
    """Repeat the command until the next pass would overrun `seconds`.

    Untraced passes give the end-to-end samples.  With `trace`, traced and
    untraced passes alternate, at least one of each.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: list[float] = []
    layers: list[dict] = []
    missing: list[str] = []
    failures: list[str] = []
    attempted = 0
    traced = False
    start = time.perf_counter()
    while True:
        if traced:
            tracer = Tracer()
            with tracer.installed():
                wall, cpu, code, out = run_pass(cli, argv)
            layers.append(layer_metrics(tracer.spans))
            missing = tracer.missing
        else:
            wall, cpu, code, out = run_pass(cli, argv)
            cpus.append(cpu)
        walls[traced].append(wall)
        gates = workload.check(code, out)
        attempted += len(gates)
        failures += [label for label, ok in gates if not ok]
        enough = walls[False] and (walls[True] or not trace)
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(walls[False] + walls[True]) > seconds:
            break
        traced = trace and not traced
    return {
        "walls": walls[False],
        "cpus": cpus,
        "traced_walls": walls[True],
        "layers": layers,
        "missing": missing,
        "attempted": attempted,
        "failures": failures,
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True, help="directory for input files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    cli = import_cli()
    argv = workload.prepare(args.seed, args.workdir)
    result = {"setup_s": time.perf_counter() - started}
    if not args.setup_only:
        result.update(measure(cli, workload, argv, args.seconds, bool(args.trace)))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
