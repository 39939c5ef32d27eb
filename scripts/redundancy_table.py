#!/usr/bin/env python3
"""Print the redundancy comparison table across all function families.

For each (function, t) pair this shows the best lower bound we can prove,
the two classical alternatives (protect all k data bits, or transmit the
function value separately and protect that), and the redundancy our
encoders actually achieve. Starred entries are estimates.

Usage:
    python scripts/redundancy_table.py [--k 1024] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys

from fcodes import tables

# the families whose rows take a free k; a min-max row's k is w*l, so those
# rows keep their w-only form
FREE_K = ("binary", "wt", "delta_T")
ROWS = [
    ("binary", 1, {}),
    ("binary", 2, {}),
    ("binary", 3, {}),
    ("wt", 1, {}),
    ("wt", 2, {}),
    ("delta_T", 1, {"T": "5"}),
    ("delta_T", 2, {"T": "7"}),
    ("minmax", 1, {"w": "3"}),
    ("minmax", 2, {"w": "3"}),
    ("minmax", 1, {"w": "4"}),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, help="message length of the binary, wt and delta_T rows")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for name, t, params in ROWS:
        p = dict(params)
        if args.k is not None and name in FREE_K:
            p.setdefault("k", str(args.k))
        rows.append(tables.table_row(name, t, p))

    if args.json:
        json.dump([r.to_json_dict() for r in rows], sys.stdout, indent=2)
        print()
    else:
        print(tables.render_header())
        for row in rows:
            print(row.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
