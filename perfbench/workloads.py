"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload is one `trispec` command line run in process.  `prepare`
builds the inputs (the set-up the benchmark times separately) and returns
the argument list; `check` turns one run's exit code and standard output
into named pass/fail gates.  Floats are compared within the stored
tolerance, never exactly.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())
TOL = REFERENCES["tolerance"]

_SUITE_LINE = re.compile(r"^suite=(\S+) checks=(\d+) failures=(\d+)$", re.MULTILINE)


def _close(value, expected) -> bool:
    return isinstance(value, (int, float)) and math.isclose(value, expected, rel_tol=0, abs_tol=TOL)


def _json_or_none(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def shuffled_family(family, seed: int):
    """The family with its vertex labels permuted by a seeded shuffle."""
    from trispec.families import relabel

    labels = list(family.vertices())
    image = random.Random(seed).sample(labels, len(labels))
    return relabel(family, dict(zip(labels, image)))


class SpectralLarge:
    name = "spectral_large"

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        from trispec.constructions import phi_lower_bound_family
        from trispec.families import family_to_text

        family = shuffled_family(phi_lower_bound_family(3000).family, seed)
        path = workdir / "phi-lb-3000.txt"
        path.write_text(family_to_text(family), encoding="utf-8")
        return ["lambda", str(path)]

    def check(self, code: int, out: str) -> list[tuple[str, bool]]:
        ref = REFERENCES[self.name]
        report = _json_or_none(out) if code == 0 else None
        if not isinstance(report, dict):
            return [("exit 0 with a JSON report", False)]
        dims = report.get("dims", {})
        return [
            ("exit 0 with a JSON report", True),
            ("lambda", _close(report.get("lambda"), ref["lambda"])),
            ("tau", _close(report.get("tau"), ref["tau"])),
            ("dims", all(dims.get(k) == v for k, v in ref["dims"].items())),
        ]


class PhiSearch:
    name = "phi_search"

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        return ["phi", "7"]

    def check(self, code: int, out: str) -> list[tuple[str, bool]]:
        ref = REFERENCES[self.name]
        entry = _json_or_none(out) if code == 0 else None
        if not isinstance(entry, dict):
            return [("exit 0 with a JSON entry", False)]
        got = entry.get("connected_max")
        want = ref["connected_max"]
        return [
            ("exit 0 with a JSON entry", True),
            ("phi", _close(entry.get("phi"), ref["phi"])),
            (
                "connected_max",
                isinstance(got, list)
                and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)),
            ),
        ]


class VerifyAudit:
    name = "verify_audit"

    def prepare(self, seed: int, workdir: Path) -> list[str]:
        return ["verify", "all", "--seed", str(seed), "--random", "200"]

    def check(self, code: int, out: str) -> list[tuple[str, bool]]:
        want = REFERENCES[self.name]["checks"]
        suites = {name: (int(n), int(f)) for name, n, f in _SUITE_LINE.findall(out)}
        gates = [("exit 0", code == 0)]
        gates += [(f"{name} has no failures", suites.get(name, (0, 1))[1] == 0) for name in want]
        gates.append(("check counts", {k: n for k, (n, _) in suites.items()} == want))
        return gates


WORKLOADS = {w.name: w for w in (SpectralLarge(), PhiSearch(), VerifyAudit())}
