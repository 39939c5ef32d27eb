#!/usr/bin/env python3
"""Exhaustive substitution channels beyond the design t, for every family.

For each function family (and each named construction) this builds an
encoder at its design t and runs `simulate` over every message and every
error pattern of weight up to t + 1 and t + 2. Past the design t the
distance condition no longer holds, so trials fail: each line gives the
trial and failure counts, the witness (the first failing message and
pattern, what they decoded to and what was sent), the route that settled
the run and the words it decoded. The counts and witnesses are exact, so
the output is a fixed point that any faster simulate route must reproduce.

Usage:
    python scripts/simulate_study.py [--beyond 1 2]
"""

from __future__ import annotations

import argparse
import sys

from fcodes import fcc, functions
from fcodes.simulate import ChannelModel, simulate

# (label, encoder builder): the per-value greedy encoder of each registry
# family, then the named constructions (per-value and per-message)
_ENCODERS = [
    ("wt:k=6 greedy", lambda t: fcc.build_function_value_encoder(functions.wt_spec(6), t)),
    ("parity:k=6 greedy", lambda t: fcc.build_function_value_encoder(functions.parity_spec(6), t)),
    ("or:k=6 greedy", lambda t: fcc.build_function_value_encoder(functions.or_spec(6), t)),
    ("delta_T:k=7,T=3 greedy",
     lambda t: fcc.build_function_value_encoder(functions.delta_spec(7, 3), t)),
    ("minmax:w=3,l=2 greedy",
     lambda t: fcc.build_function_value_encoder(functions.minmax_spec(3, 2), t)),
    ("ml:sigmoid,k=6,eps=1 greedy",
     lambda t: fcc.build_function_value_encoder(fcc.spec_from_string("ml:sigmoid,k=6,eps=1"), t)),
    ("ml:relu,k=5,eps=1 greedy",
     lambda t: fcc.build_function_value_encoder(fcc.spec_from_string("ml:relu,k=5,eps=1"), t)),
    ("wt:k=7 wt-cycle", lambda t: functions.wt_cyclic_encoder(functions.wt_spec(7), t)),
    ("delta_T:k=7,T=5 delta-ramp",
     lambda t: functions.delta_ramp_encoder(functions.delta_spec(7, 5), t)),
    ("minmax:w=3,l=2 minmax-spc",
     lambda t: functions.minmax_parity_encoder(functions.minmax_spec(3, 2), t)),
    ("minmax:w=3,l=2 minmax-rm",
     lambda t: functions.minmax_rm_encoder(functions.minmax_spec(3, 2), t)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beyond", type=int, nargs="+", default=[1, 2],
                    help="channel t minus the design t")
    args = ap.parse_args()

    for t in (1, 2):
        print(f"design t={t}")
        for label, build in _ENCODERS:
            enc = build(t)
            print(f"  {label}: k={enc.spec.k} r={enc.r} E={enc.spec.expressiveness}")
            for extra in args.beyond:
                report = simulate(enc, ChannelModel(t + extra, "exhaustive"))
                line = (f"    channel t={t + extra}: trials {report.trials}, "
                        f"failures {report.failures}")
                if report.witness is not None:
                    u, pattern, got, expected = report.witness
                    line += f", witness {u} + {pattern} -> {got} (sent {expected})"
                print(f"{line}, route {report.route}, decodes {report.decodes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
