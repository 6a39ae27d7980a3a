"""trispec benchmark driver.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter (`worker.py`) started from this
process, which calls `trispec.cli.main(argv)` in process and checks every
output against `references.json`.  With `--trace 0` it prints the
end-to-end metrics declared in BENCHMARK.json; with `--trace 1` the
per-layer metrics from a traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The workers run with the program's defaults: thread-count overrides for
trispec and BLAS are removed from their environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import median_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# Interpreters that only set up, besides the measuring one: import time is
# paid once per process, so setup_s is a median over several processes.  Half
# run before the measuring one and half after, because this machine's speed
# drifts over tens of seconds.
SETUP_PROBES = 8
# Each workload, its workers included, must end within this many seconds.
RUN_LIMIT_S = 170.0
THREAD_OVERRIDES = (
    "TRISPEC_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def code_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def spawn(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_OVERRIDES}
    # run() kills the worker if the deadline passes or this process is interrupted.
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics as {name: value}, raw worker result)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
        base += ["--workdir", workdir]

        def probes(count: int) -> list[float]:
            return [spawn(base + ["--setup-only"], deadline)["setup_s"] for _ in range(count)]

        setups = [] if trace else probes(SETUP_PROBES // 2)
        result = spawn(base + ["--trace", str(int(trace))], deadline)
        if not trace:
            setups += probes(SETUP_PROBES - len(setups)) + [result["setup_s"]]
    if trace:
        metrics = median_metrics(result["layers"])
        metrics["trace.overhead_ratio"] = statistics.median(
            result["traced_walls"]
        ) / statistics.median(result["walls"])
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(result["walls"]),
            "cpu_s": statistics.median(result["cpus"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
    return metrics, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="trispec benchmark driver")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trispec" / "__init__.py").is_file():
        print(f"error: no trispec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        runs = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
        }
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    report = {}
    env = None
    for name, (metrics, raw) in runs.items():
        if set(metrics) != set(units):
            print(f"error: {name} metrics differ from BENCHMARK.json", file=sys.stderr)
            return 1
        env = raw["env"]
        attempted += raw["attempted"]
        failed += len(raw["failures"])
        walls = raw["traced_walls"] if args.trace else raw["walls"]
        print(
            f"{name}: seed {args.seed}, {len(walls)} {'traced ' if args.trace else ''}passes "
            f"of {min(walls):.4g} to {max(walls):.4g} s"
        )
        for metric in sorted(metrics):
            value = metrics[metric]
            print(f"  {metric:36s} {value:14.6g} {units[metric]}")
            report[metric if len(names) == 1 else f"{name}.{metric}"] = {
                "value": value,
                "unit": units[metric],
            }
        rate = len(raw["failures"]) / raw["attempted"]
        print(f"  {'error_rate':36s} {rate:14.6g} ratio ({len(raw['failures'])}/{raw['attempted']})")
        for label in sorted(set(raw["failures"])):
            print(f"  FAILED check: {label}")
        if raw["missing"]:
            print(f"  not traced (absent): {', '.join(raw['missing'])}")
    print("env " + json.dumps({**env, **code_identity()}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
