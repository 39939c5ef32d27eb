"""Spans around fcodes' public functions, for the traced run.

The tracer replaces module attributes with timing wrappers while it is
installed, including names other modules imported (`simulate.decode`,
`functions.gv_irregular_threshold`, `cli.simulate`) and the cached
properties `FunctionSpec.index_table` / `preimage_masks`. A span records its
name, start, end, parent span, job id and counts; spans stay in memory until
the run ends. A layer's self time is its spans' time minus their children's,
so the self times of all layers (the harness's own `bench` span included)
add up to the traced job time.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from functools import wraps

from fcodes import bounds, cli, construct, fcc, functions, tables
from fcodes import simulate as simulate_mod

NAME, START, END, PARENT, JOB, COUNTS = range(6)

# span name -> the (owner, attribute) pairs whose functions it times
_TARGETS = {
    "cli": [(cli, "main")],
    "tables": [(tables, "table_row")],
    "fcc.spec_build": [(fcc, "spec_from_string")],
    "fcc.value_matrix": [(fcc, "function_distance_matrix")],
    "fcc.requirement_matrix": [(fcc, "distance_requirement_matrix")],
    "bounds.gv_threshold": [(bounds, "gv_irregular_threshold"),
                            (functions, "gv_irregular_threshold")],
    "bounds.plotkin": [(bounds, "plotkin_irregular")],
    "construct.greedy": [(construct, "greedy_irregular_code")],
    "construct.exact": [(construct, "exact_min_length")],
    "fcc.verify": [(fcc, "verify_fcc")],
    "fcc.locally_binary": [(fcc, "is_locally_binary"), (fcc, "function_ball")],
    "functions.construction": [(functions, n) for n in (
        "wt_cyclic_encoder", "delta_ramp_encoder", "locally_binary_encoder",
        "minmax_parity_encoder", "minmax_rm_encoder")],
    "fcc.encoder_io": [(fcc, "encoder_to_text"), (fcc, "encoder_from_text")],
    "fcc.decode": [(fcc, "decode"), (simulate_mod, "decode")],
    "simulate": [(simulate_mod, "simulate"), (cli, "simulate")],
}
_CACHED = {"fcc.index_table": "index_table", "fcc.preimage_masks": "preimage_masks"}


def _counts_for(name, result):
    if name == "fcc.verify":
        return {"pairs_checked": result.pairs_checked}
    if name == "fcc.decode":
        return {"out_of_model": int(result.out_of_model)}
    if name == "simulate":
        return {"trials": result.trials}
    if name == "fcc.value_matrix":
        return {"pairs": result.dim * (result.dim - 1) // 2}
    if name == "construct.exact":
        return {"nodes": result.nodes, "unproven": 0 if result.proven else 1}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: str | None = None

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), 0.0, parent, self._job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _note(self, counts: dict) -> None:
        """Add counts to the innermost open span."""
        span = self.spans[self._stack[-1]]
        span[COUNTS] = {**(span[COUNTS] or {}), **counts}

    @contextmanager
    def job(self, job_id: str):
        """Root span of one job; wrapped calls outside a job are not recorded."""
        self._job = job_id
        span = self._open("bench")
        try:
            yield
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                counts = _counts_for(name, result)
                if counts:
                    self._note(counts)
                return result
            finally:
                self._close(span)
        return traced

    def _exact_with_split(self, fn):
        """exact_min_length with its `trace=` callback splitting the nodes
        spent refuting shorter lengths from those at the final length."""
        @wraps(fn)
        def split(dmat, budget=None, *, use_row_symmetry=False, trace=None):
            last_try = [0]

            def on_line(line: str) -> None:
                if line.startswith("try "):
                    last_try[0] = int(line.rsplit("nodes=", 1)[1])
                if trace is not None:
                    trace(line)

            result = fn(dmat, budget, use_row_symmetry=use_row_symmetry, trace=on_line)
            if self._job is not None:
                self._note({"refute_nodes": last_try[0],
                            "confirm_nodes": result.nodes - last_try[0]})
            return result
        return split

    # --- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, places in _TARGETS.items():
                for owner, attr in places:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    if name == "construct.exact":
                        fn = self._exact_with_split(fn)
                    setattr(owner, attr, self._wrap(name, fn))
            init = fcc.FunctionSpec.__init__
            saved.append((fcc.FunctionSpec, "__init__", init))
            fcc.FunctionSpec.__init__ = self._wrap("fcc.spec_build", init)
            for name, prop in _CACHED.items():
                cp = fcc.FunctionSpec.__dict__[prop]
                saved.append((cp, "func", cp.func))
                cp.func = self._wrap(name, cp.func)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (ms), counts and orientation points."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        self_ms: dict[str, float] = {}
        totals: dict[str, dict[str, int]] = {}
        calls: dict[str, int] = {}
        decode_us = {0: [], 1: []}
        job_ms = 0.0
        orient = {"wt16_value_matrix_ms": 0.0, "wt14_t2_verify_ms": [],
                  "wt10_simulate_ms": 0.0, "wt10_simulate_decodes": 0,
                  "criterion08_ms": 0.0, "criterion08_nodes": 0}
        for i, s in enumerate(spans):
            name, dur, job = s[NAME], s[END] - s[START], s[JOB]
            counts = s[COUNTS] or {}  # empty when the call raised
            self_ms[name] = self_ms.get(name, 0.0) + (dur - child[i]) * 1e3
            calls[name] = calls.get(name, 0) + 1
            for key, val in counts.items():
                bucket = totals.setdefault(name, {})
                bucket[key] = bucket.get(key, 0) + val
            if name == "bench":
                job_ms += dur * 1e3
            elif name == "fcc.decode" and counts:
                decode_us[counts["out_of_model"]].append(dur * 1e6)
            if job == "orient-wt16" and name == "fcc.value_matrix":
                orient["wt16_value_matrix_ms"] += dur * 1e3
            elif job == "orient-wt14-t2" and name == "fcc.verify":
                orient["wt14_t2_verify_ms"].append(dur * 1e3)
            elif job == "orient-wt10" and name == "simulate":
                orient["wt10_simulate_ms"] += dur * 1e3
                orient["wt10_simulate_decodes"] += counts.get("trials", 0)
            elif job is not None and job.startswith("c08-") and name == "construct.exact":
                orient["criterion08_ms"] += dur * 1e3
                orient["criterion08_nodes"] += counts.get("nodes", 0)
        verifies = orient["wt14_t2_verify_ms"]
        orient["wt14_t2_verify_ms"] = statistics.fmean(verifies) if verifies else 0.0

        def ms(name):
            return self_ms.get(name, 0.0)

        def count(name, key):
            return totals.get(name, {}).get(key, 0)

        decodes = len(decode_us[0]) + len(decode_us[1])
        verify_s = ms("fcc.verify") / 1e3
        exact_s = (ms("construct.exact") + ms("bounds.plotkin")) / 1e3
        out = {
            "cli.self_ms": ms("cli"),
            "cli.calls": calls.get("cli", 0),
            "tables.self_ms": ms("tables"),
            "fcc.spec_build_ms": ms("fcc.spec_build"),
            "fcc.index_table_ms": ms("fcc.index_table"),
            "fcc.preimage_masks_ms": ms("fcc.preimage_masks"),
            "fcc.value_matrix_ms": ms("fcc.value_matrix"),
            "fcc.value_pairs": count("fcc.value_matrix", "pairs"),
            "bounds.gv_threshold_ms": ms("bounds.gv_threshold"),
            "bounds.gv_threshold_calls": calls.get("bounds.gv_threshold", 0),
            "construct.greedy_ms": ms("construct.greedy"),
            "fcc.verify_ms": ms("fcc.verify"),
            "fcc.verify_pairs_checked": count("fcc.verify", "pairs_checked"),
            "fcc.verify_pairs_per_s": (
                count("fcc.verify", "pairs_checked") / verify_s if verify_s else 0.0),
            "fcc.locally_binary_ms": ms("fcc.locally_binary"),
            "functions.construction_ms": ms("functions.construction"),
            "fcc.encoder_io_ms": ms("fcc.encoder_io"),
            "fcc.decode_ms": ms("fcc.decode"),
            "fcc.decode_calls": decodes,
            "fcc.decode_in_model_p50_us": _median(decode_us[0]),
            "fcc.decode_out_of_model_p50_us": _median(decode_us[1]),
            "fcc.decode_out_of_model_frac": len(decode_us[1]) / decodes if decodes else 0.0,
            "simulate.self_ms": ms("simulate"),
            "simulate.trials": count("simulate", "trials"),
            "construct.exact_ms": ms("construct.exact"),
            "construct.exact_nodes": count("construct.exact", "nodes"),
            "construct.exact_refute_nodes": count("construct.exact", "refute_nodes"),
            "construct.exact_confirm_nodes": count("construct.exact", "confirm_nodes"),
            "construct.exact_nodes_per_s": (
                count("construct.exact", "nodes") / exact_s if exact_s else 0.0),
            "construct.exact_unproven": count("construct.exact", "unproven"),
            "bounds.plotkin_ms": ms("bounds.plotkin"),
            "fcc.requirement_matrix_ms": ms("fcc.requirement_matrix"),
            "bench.self_ms": ms("bench"),
            "trace.job_ms": job_ms,
            "trace.self_sum_ms": sum(self_ms.values()),
            "trace.spans": len(spans),
        }
        out.update({f"orient.{key}": val for key, val in orient.items()})
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                     "job": s[JOB], "counts": s[COUNTS]}) + "\n")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
