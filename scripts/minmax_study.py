#!/usr/bin/env python3
"""Min-max value-distance landscape and the quality of its encoders.

For each (w, l) this measures the brute-force distance profile between
min-max values (how many values sit one bit flip away, how many two), then
compares the closed-form greedy threshold with the generic one and with
the redundancy the replicated even-weight construction actually spends.

Usage:
    python scripts/minmax_study.py [--max-w 5] [--l 3] [--t 1 2]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from fcodes import bounds, fcc, functions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-w", type=int, default=5)
    ap.add_argument("--l", type=int, default=3)
    ap.add_argument("--t", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args()

    for w in range(3, args.max_w + 1):
        if w * args.l > 18:
            print(f"w={w}: skipped (2^{w * args.l} messages)")
            continue
        oracle = functions.minmax_distance_oracle(functions.minmax_spec(w, args.l))
        counts = Counter(oracle.neighbor_counts)
        profile = Counter(
            d for row in oracle.distances.entries for d in row if d > 0
        )
        print(f"w={w}, l={args.l}: E={oracle.distances.dim}, "
              f"distance profile {dict(sorted(profile.items()))}, "
              f"neighbor counts {dict(sorted(counts.items()))} "
              f"(4(w-2) = {4 * (w - 2)})")
        for t in args.t:
            closed = bounds.minmax_gv_upper(w, t)
            generic = bounds.gv_irregular_threshold(
                fcc.function_distance_matrix(oracle.spec, t)
            )
            enc = functions.minmax_parity_encoder(w, args.l, t)
            lower = bounds.minmax_lower_bound(w, t)
            print(f"  t={t}: lower {lower.integer_value}, closed-form gv {closed}, "
                  f"generic gv {generic}, even-weight construction r={enc.r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
