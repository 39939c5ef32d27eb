"""fcodes benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload design|channel|exact \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`. The
job list comes from the seed. It is run in rounds, one job after the other,
until S seconds have gone by (at least one round), then once more with the
tracer installed. Every output is checked after its round, outside the
timed region. Job and set-up times are scaled to a reference host by a probe
loop timed around each of them (see README.md). The last line of stdout is
the result: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. The line before it is the
full record, and `.perfbench_out/` gets the record and the spans. Exit code
1 means an output check failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("design", "channel", "exact")
# extra set-ups in fresh processes; setup_s is the median of these and the
# run's own set-up
SETUP_REPEATS = 6
# The host probe and its time on the reference host (the 2-core machine that
# defined the benchmark, in its fast phase). Job times are reported scaled to
# that host; see README.md.
PROBE_LOOPS = 8000
PROBE_REF_S = 1.0e-3
UNITS = {
    "throughput_jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mib": "MiB", "ok_frac": "fraction",
}


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import fcodes and make the job list; returns (jobs, seconds, seconds
    scaled to the reference host)."""
    before = host_probe()
    t0 = time.perf_counter()
    import workloads  # imports fcodes

    if workload == "design":
        jobs = workloads.design_jobs(seed, workdir, tiny)
    elif workload == "channel":
        jobs = workloads.channel_setup(seed, workdir, tiny)
    else:
        jobs = workloads.exact_jobs(seed, tiny)
    seconds = time.perf_counter() - t0
    return jobs, seconds, seconds * PROBE_REF_S / ((before + host_probe()) / 2)


def host_probe() -> float:
    """Seconds taken by a fixed pure-Python loop of integer, list and dict
    work, the kind fcodes does: a gauge of how fast the host runs just now."""
    t0 = time.perf_counter()
    acc, table, seen = 0, list(range(1024)), {}
    for u in range(PROBE_LOOPS):
        v = table[u & 1023] ^ u
        acc += v.bit_count()
        seen[v & 255] = acc
    return time.perf_counter() - t0


def run_round(jobs, tracer=None):
    """Run every job once; returns per-job seconds, per-job host-speed
    factors and outputs. A job's factor is PROBE_REF_S over the mean of the
    probes taken just before and just after it (outside its timing)."""
    times, factors, outputs = [], [], []
    before = host_probe()
    for job in jobs:
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.job(job.id):
                    out = job.run()
        except Exception:  # a job that raises fails; the run goes on
            out, error = None, traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
        outputs.append((out, error))
        after = host_probe()
        factors.append(PROBE_REF_S / ((before + after) / 2))
        before = after
    return times, factors, outputs


def timing(rounds: list[list[float]]) -> dict[str, float]:
    """Throughput and per-job percentiles of rounds of per-job seconds."""
    # each job's median over the rounds, so that a slow spell of the host
    # during a minority of the rounds does not move the throughput
    job_medians = [statistics.median(col) for col in zip(*rounds)]
    samples = [t for times in rounds for t in times]
    return {
        "throughput_jobs_per_s": len(job_medians) / sum(job_medians),
        "job_p50_ms": _quantile(samples, 0.5) * 1e3,
        "job_p90_ms": _quantile(samples, 0.9) * 1e3,
    }


def check_round(jobs, outputs, expected):
    """Check every output; returns (failed ids, problem lines, summed counts)."""
    failed, problems, counts = [], [], {}
    for job, (out, error) in zip(jobs, outputs):
        if error is not None:
            failed.append(job.id)
            problems.append(f"{job.id}: raised {error.strip().splitlines()[-1]}")
            continue
        if expected is None:
            issues, job_counts = job.check(out)
        else:
            issues, job_counts = job.check(out, expected.get(job.id))
        for key, val in job_counts.items():
            counts[key] = counts.get(key, 0) + val
        if issues:
            failed.append(job.id)
            problems.extend(f"{job.id}: {issue}" for issue in issues)
    counts["failed_jobs"] = len(failed)
    return failed, problems, counts


def _quantile(values, q):
    """Quantile with linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha() -> str:
    """Digest of the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fcodes").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _child_setups(args) -> list[tuple[float, float]]:
    """Set up again in fresh processes, one after the other."""
    out = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((times["setup_s"], times["setup_s_scaled"]))
    return out


def measure(args) -> tuple[dict, int]:
    """The whole run; returns (record, exit code)."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, own_setup, own_setup_scaled = setup(args.workload, args.seed, workdir, args.tiny)
        if args.setup_only:
            return {"setup_s": own_setup, "setup_s_scaled": own_setup_scaled}, 0
        expected = None
        if args.workload == "exact":
            import workloads

            expected = {} if args.tiny else workloads.expected_exact(args.seed)

        round_times, round_factors, failed_ids, problems, round_counts = [], [], [], [], []
        start = time.perf_counter()
        while True:
            times, factors, outputs = run_round(jobs)
            failed, issues, counts = check_round(jobs, outputs, expected)
            round_times.append(times)
            round_factors.append(factors)
            failed_ids.extend(failed)
            problems.extend(issues)
            round_counts.append(counts)
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            traced_times, traced_factors, traced_outputs = run_round(jobs, tracer)
        _, traced_issues, traced_counts = check_round(jobs, traced_outputs, expected)
        problems.extend(f"traced round: {p}" for p in traced_issues)
        if any(c != round_counts[0] for c in round_counts[1:] + [traced_counts]):
            problems.append("counts differ between rounds of the same job list")
        setups = [(own_setup, own_setup_scaled)] + _child_setups(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    round_scaled = [[t * f for t, f in zip(times, factors)]
                    for times, factors in zip(round_times, round_factors)]
    scaled = timing(round_scaled)
    traced_throughput = len(jobs) / sum(t * f for t, f in zip(traced_times, traced_factors))
    attempted = len(round_times) * len(jobs)
    failed = len(failed_ids)
    layers = tracer.layer_metrics()
    layers["trace.overhead_frac"] = scaled["throughput_jobs_per_s"] / traced_throughput - 1
    layers["failed_frac"] = failed / attempted
    end_to_end = {
        **scaled,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mib": peak_rss_mib,
        "ok_frac": 1 - failed / attempted,
    }
    # unproven exact searches count as failed operations, not as wrong outputs
    wrong = [p for p in problems if ": unproven at " not in p]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha(),
        "jobs_per_round": len(jobs),
        "rounds": len(round_times),
        "samples": attempted,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "counts_per_round": round_counts[0],
        "setup_s_each": setups,
        "unscaled": {**timing(round_times),
                     "setup_s": statistics.median(raw for raw, _ in setups)},
        "host_speed_factor_median": statistics.median(f for fs in round_factors for f in fs),
        "job_ms_median": {job.id: statistics.median(col) * 1e3
                          for job, col in zip(jobs, zip(*round_scaled))},
        "traced_throughput_jobs_per_s": traced_throughput,
        "trace_overhead_frac": layers["trace.overhead_frac"],
        "end_to_end": end_to_end,
        "per_layer": layers,
        "problems": problems[:50],
        "correct": not wrong,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    tracer.dump(OUT / f"{stem}-spans.jsonl")
    return record, 0 if not wrong else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small job lists (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fcodes" / "__init__.py").is_file():
        print(f"error: no fcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record, code = measure(args)
    except Exception:
        traceback.print_exc()
        return 2
    if args.setup_only:
        print(json.dumps(record))
        return code

    print(f"perfbench {args.workload}: seed {args.seed}, {record['jobs_per_round']} jobs "
          f"x {record['rounds']} rounds = {record['samples']} samples, "
          f"python {record['python']}, nproc {record['nproc']}, "
          f"git {record['git_sha']}, src {record['src_sha256']}")
    for name, val in record["end_to_end"].items():
        print(f"  {name:<24} {val:.6g} {UNITS[name]}")
    for name, val in record["unscaled"].items():
        print(f"  {name + ' (unscaled)':<24} {val:.6g} {UNITS[name]}")
    print(f"  {'failed_frac':<24} {record['failed_frac']:.6g} fraction")
    print(f"  {'trace_overhead_frac':<24} {record['trace_overhead_frac']:.4g}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({"record": record}))
    if args.trace:
        metrics = {name: {"value": val, "unit": _layer_unit(name)}
                   for name, val in record["per_layer"].items()}
    else:
        metrics = {name: {"value": val, "unit": UNITS[name]}
                   for name, val in record["end_to_end"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return code


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
