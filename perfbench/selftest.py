"""Self-test of the benchmark: determinism of counts and the metric set.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at a tiny size twice with one seed. The counts must be
identical and the metric sets complete and well named. No timing is asserted.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# per-layer metrics that are counts of work, fixed by the inputs
COUNT_METRICS = [
    "cli.calls", "fcc.value_pairs", "bounds.gv_threshold_calls", "fcc.verify_pairs_checked",
    "fcc.decode_calls", "fcc.decode_out_of_model_frac", "simulate.trials",
    "construct.exact_nodes", "construct.exact_refute_nodes", "construct.exact_confirm_nodes",
    "construct.exact_unproven", "failed_frac",
]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _parse(lines: list[str]) -> tuple[dict, dict]:
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_repeat_gives_identical_counts_and_full_metric_sets(workload):
    (rc1, out1), (rc2, out2) = _run(workload, 1), _run(workload, 0)
    assert rc1 == rc2 == 0
    (rec1, res1), (rec2, res2) = _parse(out1), _parse(out2)
    for res in (res1, res2):
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
    assert rec1["counts_per_round"] == rec2["counts_per_round"]
    for name in COUNT_METRICS:
        assert rec1["per_layer"][name] == rec2["per_layer"][name], name
    if workload == "channel":
        assert rec1["counts_per_round"]["oom_trials"] > 0
        assert rec1["per_layer"]["fcc.decode_out_of_model_frac"] > 0
    if workload == "exact":
        assert rec1["per_layer"]["construct.exact_nodes"] > 0
    if workload == "design":
        assert rec1["per_layer"]["fcc.verify_pairs_checked"] > 0

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res1["metrics"].items()} == per_layer
    assert {k: v["unit"] for k, v in res2["metrics"].items()} == end_to_end
    assert all(NAME.match(name) for name in [*per_layer, *end_to_end])
    for res in (res1, res2):
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    for key in ("python", "nproc", "git_sha", "src_sha256", "seed", "jobs_per_round",
                "trace_overhead_frac", "samples"):
        assert key in rec1, key
    assert rec1["seed"] == 3


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = _run("exact", 0, cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith('{"correct"') for line in lines)
