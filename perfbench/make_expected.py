"""Write exact_expected.json: (N, nodes) of every exact instance whose
result the benchmark compares against committed values.

    python3 perfbench/make_expected.py

Run it from the root of a checkout, and only when the benchmark's exact
instances change; a change to the search itself must match the committed
values or explain why not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> int:
    pinned = workloads.criterion08_corpus() + workloads.hard_corpus()
    pinned_ids = {job.id for job in pinned}
    seeded = [j for j in workloads.exact_jobs(workloads.DEFAULT_SEED) if j.id not in pinned_ids]
    data = {}
    for key, jobs in (("pinned", pinned), ("default_seed", seeded)):
        data[key] = {}
        for job in sorted(jobs, key=lambda j: j.id):
            res = job.run()
            data[key][job.id] = [res.value, res.nodes] if res.proven else None
    unproven = [i for part in data.values() for i, v in part.items() if v is None]
    workloads.EXPECTED_EXACT.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {workloads.EXPECTED_EXACT}; unproven: {unproven or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
