"""Write the exact phi table for budgets 1..T, with the sweep's work counters.

    PYTHONPATH=src python3 scripts/phi_table.py 10 > phi_table_10.json

The counters are the families the sweep solves (a stacked solve counts
each family in its stack) and its canonicity tests; both are
deterministic, so a rerun reproduces the file.
"""

import json
import sys

from trispec import extremal, phi_table


def main(t: int) -> dict:
    counts = {"sweep_solves": 0, "canonicity_tests": 0}

    def counted(name: str, key: str, weight) -> None:
        inner = getattr(extremal, name)

        def wrapper(*args):
            counts[key] += weight(*args)
            return inner(*args)

        setattr(extremal, name, wrapper)

    counted("_sweep_solve", "sweep_solves", lambda nodes, grams: len(nodes))
    counted("_is_lex_min", "canonicity_tests", lambda *args: 1)
    table = phi_table(t).to_dict()
    return {
        "command": f"PYTHONPATH=src python3 scripts/phi_table.py {t} > phi_table_{t}.json",
        "counters": counts,
        "table": table,
    }


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1])), indent=1))
