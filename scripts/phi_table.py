"""Write the exact phi table for budgets 1..T, with the sweep's work counters.

    PYTHONPATH=src python3 scripts/phi_table.py 10 > phi_table_10.json

The counters are the table's `stats`, written whole: the families the
sweep solves (`families_solved`: a stacked solve counts each family in its
stack), its canonicity tests and the rest of `_phi_sweep`'s counters.  All
are deterministic for a fresh sweep, so a rerun reproduces the file.
"""

import json
import sys

from trispec import phi_table


def main(t: int) -> dict:
    table = phi_table(t)
    return {
        "command": f"PYTHONPATH=src python3 scripts/phi_table.py {t} > phi_table_{t}.json",
        "stats": table.stats,
        "table": table.to_dict(),
    }


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1])), indent=1))
