"""Seeded job lists and output checks for the three benchmark workloads.

A job is the unit a user waits for. Each job has `run()`, which is the only
part that is timed, and `check(output)`, which runs afterwards and returns
(problems, counts). The job lists are stratified: the seed draws the
functions, matrices and parameters inside fixed (family, k, t) slots, so two
seeds give different inputs with the same cost profile. See README.md.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

from fcodes import bounds, cli, construct, fcc
from fcodes.bits import DistanceMatrix, all_words, satisfies_distance_matrix

# Node cap of every exact search. The time limit is set so high that it never
# binds, which makes node counts and outcomes repeat exactly across runs.
EXACT_BUDGET = construct.SearchBudget(max_length=16, max_nodes=200_000, time_limit=3600.0)

CRITERION08_SEED = 8128
HARD_SEED = 2102
HARD_PER_STRATUM = 6
# Instances of the pinned hard corpus that exhaust the node cap at the commit
# that defined the benchmark. An unproven search is a failed operation, so
# they are left out; see README.md.
HARD_EXCLUDED = frozenset({"hard-f423-3", "hard-f423-4"})

EXPECTED_EXACT = Path(__file__).with_name("exact_expected.json")
DEFAULT_SEED = 0


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run `fcodes` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# --- design ------------------------------------------------------------------


class DesignJob:
    """One (function, t) sizing study: `table`, then build and verify each
    applicable construction through the CLI."""

    def __init__(self, job_id, t, function_args, constructions, closed_forms, sample, workdir):
        self.id = job_id
        self.t = t
        self.function_args = function_args  # names the function for every subcommand
        self.constructions = constructions
        self.closed_forms = closed_forms  # construction -> the r it must hit
        self.sample = sample
        self.workdir = workdir

    def run(self):
        t = str(self.t)
        out = {"table": call_cli(["table", *self.function_args, "--t", t, "--json"])}
        for c in self.constructions:
            path = str(self.workdir / f"{self.id}-{c}.txt")
            build = call_cli(
                ["fcc-build", *self.function_args, "--t", t, "--construction", c, "--out", path]
            )
            verify_args = ["fcc-verify", "--encoder", path, "--json"]
            if self.sample is not None:
                verify_args += ["--sample", str(self.sample)]
            out[c] = (build, call_cli(verify_args))
        return out

    def check(self, out):
        problems = []
        counts = {"pairs_checked": 0, "cli_calls": 1 + 2 * len(self.constructions)}
        rc, text, _ = out["table"]
        row = _json_or_none(text)
        lower = row["lower_bound"]["value"] if rc == 0 and row else None
        if lower is None:
            problems.append(f"table exit {rc}")
        for c in self.constructions:
            (brc, _, berr), (vrc, vtext, _) = out[c]
            r = _built_r(berr)
            if brc != 0 or r is None:
                problems.append(f"{c}: fcc-build exit {brc}")
                continue
            payload = _json_or_none(vtext)
            if vrc != 0 or not payload or not payload["ok"]:
                problems.append(f"{c}: fcc-verify exit {vrc}")
            else:
                counts["pairs_checked"] += payload["pairs_checked"]
            if lower is not None and r < lower:
                problems.append(f"{c}: r={r} below the table lower bound {lower}")
            if c in self.closed_forms and r != self.closed_forms[c]:
                problems.append(f"{c}: r={r}, closed form {self.closed_forms[c]}")
        return problems, counts


def _built_r(stderr: str) -> int | None:
    """r from fcc-build's 'encoder: k=.. t=.. r=.. mode=..' line."""
    for token in stderr.split():
        if token.startswith("r="):
            return int(token[2:])
    return None


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


# delta_T regimes, as T ranges for a given t: which constructions apply is
# fixed per slot, so the seed moves T without changing the work a study does
_DELTA_REGIMES = {
    "auto": lambda t: (2, 2 * t),  # only the generic encoder
    "ramp": lambda t: (2 * t + 1, 4 * t),  # plus delta-ramp
    "local": lambda t: (4 * t + 1, 4 * t + 4),  # plus locally-binary
}


def _design_job(job_id, rng, family, t, choice, sample, workdir):
    """A study of one drawn function of `family`."""
    closed = {}
    if family == "wt":
        k = choice
        fargs = ["--function", "wt", "--k", str(k)]
        cons = ["auto", "wt-cycle"]
        closed["wt-cycle"] = 3 if t == 1 else 6
    elif family == "delta_T":
        k, regime = choice
        lo, hi = _DELTA_REGIMES[regime](t)
        T = rng.randint(lo, min(hi, k))
        fargs = ["--function", "delta_T", "--k", str(k), "--T", str(T)]
        cons = ["auto"]
        if 2 * t + 1 <= T:
            cons.append("delta-ramp")
            closed["delta-ramp"] = 2 * t
        if T >= 4 * t + 1:
            cons.append("locally-binary")
            closed["locally-binary"] = 2 * t
    elif family == "minmax":
        w, l = choice
        k = w * l
        fargs = ["--function", "minmax", "--w", str(w), "--l", str(l)]
        cons = ["auto", "minmax-spc"]
        closed["minmax-spc"] = t * (_ceil_log2(w * (w - 1)) + 1)
    else:
        kind, k, eps = choice
        fargs = ["--function", f"ml:{kind},k={k},eps={eps}"]
        cons = ["auto"]
    return DesignJob(f"{job_id}-{family}-k{k}-t{t}", t, fargs, cons, closed, sample, workdir)


# activations with the same number of values, so the draw does not change
# the size of the value-distance matrix
_ML6 = [("sigmoid", 6, "1"), ("tanh", 6, "3/5")]  # 22 values
_ML7 = [("sigmoid", 7, "1/2"), ("tanh", 7, "3/10")]  # 42 values
_ML8 = [("sigmoid", 8, "1/4"), ("tanh", 8, "3/20")]  # 82 values
_RELU6 = [("relu", 6, eps) for eps in ("1", "1/2", "1/4")]  # 33 values
_RELU7 = [("relu", 7, eps) for eps in ("1", "1/2", "1/4")]  # 65 values

# Seeded design slots: (family, t, choices). k is fixed per slot, so every
# seed does the same kind of work; the seed picks the choice (a min-max layout
# or an activation) and the family's own parameters (T for delta_T). The
# verify tail (k 13-14 at t=2) is the fixed wt k=14 t=2 job, so the seeded t=2
# slots stop at k=10.
_DESIGN_SLOTS = [
    *[("wt", 1, [k]) for k in (6, 7, 8, 9, 10, 11, 12, 13)],
    *[("wt", 2, [k]) for k in (6, 7, 8, 9, 10)],
    *[("delta_T", 1, [(k, regime)]) for k, regime in (
        (6, "auto"), (7, "ramp"), (8, "local"), (9, "ramp"), (10, "local"), (11, "ramp"),
        (12, "local"))],
    *[("delta_T", 2, [(k, regime)]) for k, regime in (
        (6, "auto"), (7, "ramp"), (8, "ramp"), (9, "local"), (10, "ramp"))],
    ("minmax", 1, [(3, 2)]), ("minmax", 1, [(4, 2)]), ("minmax", 1, [(3, 3)]),
    ("minmax", 1, [(4, 3), (3, 4)]), ("minmax", 2, [(3, 2)]), ("minmax", 2, [(4, 2)]),
    ("minmax", 2, [(5, 2)]),
    ("ml", 1, _ML6), ("ml", 1, _ML7), ("ml", 1, _ML8), ("ml", 1, _RELU6), ("ml", 2, _ML6),
    ("ml", 2, _ML7), ("ml", 2, _ML8), ("ml", 2, _RELU7),
]
# k 15-16 studies, verified with --sample (exhaustive verify stops at k=14).
_DESIGN_SAMPLED_SLOTS = [
    ("wt", 1, [15]), ("delta_T", 1, [(16, "ramp")]), ("minmax", 1, [(5, 3)]),
]
DESIGN_SAMPLE = 20_000


def design_jobs(seed: int, workdir: Path, tiny: bool = False) -> list:
    rng = random.Random(f"design-{seed}")
    if tiny:
        slots = [("wt", 1, [6]), ("delta_T", 1, [(6, "local")]), ("minmax", 1, [(3, 2)]),
                 ("ml", 1, [("sigmoid", 6, "1")])]
        jobs = [_design_job(f"s{i}", rng, f, t, rng.choice(c), None, workdir)
                for i, (f, t, c) in enumerate(slots)]
        return jobs + [_design_job("x0", rng, "wt", 1, 15, 500, workdir)]
    wt = ["--function", "wt", "--k"]
    jobs = [
        # orientation points, the same for every seed
        DesignJob("orient-wt16", 1, wt + ["16"], ["auto", "wt-cycle"], {"wt-cycle": 3},
                  DESIGN_SAMPLE, workdir),
        DesignJob("orient-wt14-t2", 2, wt + ["14"], ["auto", "wt-cycle"], {"wt-cycle": 6},
                  None, workdir),
    ]
    for i, (family, t, choices) in enumerate(_DESIGN_SLOTS):
        jobs.append(_design_job(f"s{i}", rng, family, t, rng.choice(choices), None, workdir))
    for i, (family, t, choices) in enumerate(_DESIGN_SAMPLED_SLOTS):
        jobs.append(
            _design_job(f"x{i}", rng, family, t, rng.choice(choices), DESIGN_SAMPLE, workdir)
        )
    rng.shuffle(jobs)
    return jobs


# --- channel -----------------------------------------------------------------


class ChannelJob:
    """One `simulate` call on an encoder file written during set-up."""

    def __init__(self, job_id, path, channel_t, mode, trials, seed, expected_trials, oom):
        self.id = job_id
        self.path = path
        self.channel_t = channel_t
        self.mode = mode
        self.trials = trials
        self.seed = seed
        self.expected_trials = expected_trials
        self.oom = oom  # channel beyond the encoder's design t
        self._oracle_failures = None

    def run(self):
        argv = ["simulate", "--encoder", str(self.path), "--channel", self.mode, "--json"]
        if self.mode == "random":
            argv += ["--seed", str(self.seed), "--trials", str(self.trials)]
        if self.oom:
            argv += ["--channel-t", str(self.channel_t)]
        return call_cli(argv)

    def check(self, out):
        rc, text, _ = out
        payload = _json_or_none(text)
        if not payload or "trials" not in payload:
            return [f"simulate exit {rc}"], {}
        counts = {
            "trials": payload["trials"],
            "oom_trials": payload["trials"] if self.oom else 0,
            "sim_failures": payload["failures"],
            "cli_calls": 1,
        }
        problems = []
        if payload["trials"] != self.expected_trials:
            problems.append(f"trials {payload['trials']}, expected {self.expected_trials}")
        expected_failures = self.oracle_failures() if self.oom else 0
        if payload["failures"] != expected_failures:
            problems.append(f"failures {payload['failures']}, oracle {expected_failures}")
        if rc != (1 if expected_failures else 0):
            problems.append(f"simulate exit {rc}")
        return problems, counts

    def oracle_failures(self) -> int:
        """Wrong values over every message and every pattern of weight <=
        channel_t, by a nearest-codeword distance transform of the whole
        received space. Ties go to the smallest image index."""
        if self._oracle_failures is None:
            self._oracle_failures = _oracle_failures(self.path, self.channel_t)
        return self._oracle_failures


def _oracle_failures(path: Path, channel_t: int) -> int:
    headers, parities = _read_encoder_file(path)
    k, r = int(headers["k"]), int(headers["r"])
    spec = fcc.spec_from_string(headers["function"], defaults={"k": str(k)})
    value_index = [spec.index_of(spec.fn(u)) for u in range(1 << k)]
    if headers["mode"] == fcc.PER_VALUE:
        parity = [parities[i] for i in value_index]
    else:
        parity = parities
    n = k + r
    codewords = [(u << r) | parity[u] for u in range(1 << k)]
    # breadth-first distance transform; label = image indices of the codewords
    # at the minimum distance, as a bit set
    dist = [-1] * (1 << n)
    label = [0] * (1 << n)
    frontier = []
    for u, cw in enumerate(codewords):
        dist[cw] = 0
        label[cw] |= 1 << value_index[u]
        frontier.append(cw)
    d = 0
    while frontier:
        nxt = []
        for x in frontier:
            lx = label[x]
            for b in range(n):
                y = x ^ (1 << b)
                if dist[y] < 0:
                    dist[y] = d + 1
                    label[y] = lx
                    nxt.append(y)
                elif dist[y] == d + 1:
                    label[y] |= lx
        frontier = nxt
        d += 1
    patterns = [e for e in range(1 << n) if e.bit_count() <= channel_t]
    failures = 0
    for u, cw in enumerate(codewords):
        want = value_index[u]
        for e in patterns:
            lab = label[cw ^ e]
            if (lab & -lab).bit_length() - 1 != want:
                failures += 1
    return failures


def _read_encoder_file(path: Path) -> tuple[dict[str, str], list[int]]:
    headers, parities = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, sep, val = line[1:].partition(":")
            if sep:
                headers[key.strip()] = val.strip()
        elif line:
            parities.append(int(line, 2))
    if int(headers["r"]) == 0:
        parities = [0] * len(parities)
    return headers, parities


def _sphere(n: int, t: int) -> int:
    return sum(comb(n, w) for w in range(min(t, n) + 1))


# Seeded channel slots: (function family, channel mode, k, t, beyond t).
# "ramp" is the per-message delta-ramp encoder of delta_T; the other families
# get the per-value `auto` encoder. k is fixed per slot; the seed draws T, the
# activation and the random channel's seed. Jobs beyond the design t are
# exhaustive with k <= 8 and make about a quarter of the list.
_CHANNEL_SLOTS = [
    ("wt", "exhaustive", 6, 1, False), ("delta_T", "exhaustive", 8, 1, False),
    ("minmax", "exhaustive", 9, 1, False), ("ml", "exhaustive", 7, 1, False),
    ("ramp", "exhaustive", 6, 1, False), ("ramp", "exhaustive", 8, 1, False),
    ("ramp", "exhaustive", 10, 1, False),
    ("wt", "exhaustive", 5, 2, False), ("delta_T", "exhaustive", 6, 2, False),
    ("ml", "exhaustive", 6, 2, False), ("ramp", "exhaustive", 5, 2, False),
    ("ramp", "exhaustive", 7, 2, False),
    ("wt", "random", 9, 1, False), ("ml", "random", 8, 1, False),
    ("ramp", "random", 9, 1, False), ("ramp", "random", 10, 1, False),
    ("delta_T", "random", 10, 2, False), ("ramp", "random", 10, 2, False),
    ("wt", "exhaustive", 7, 1, True), ("minmax", "exhaustive", 8, 1, True),
    ("ml", "exhaustive", 6, 1, True), ("ramp", "exhaustive", 6, 1, True),
    ("ramp", "exhaustive", 8, 1, True), ("delta_T", "exhaustive", 5, 2, True),
    ("ramp", "exhaustive", 6, 2, True),
]
CHANNEL_TRIALS = 1500
_MINMAX_LAYOUT = {6: (3, 2), 8: (4, 2), 9: (3, 3), 10: (5, 2)}
_ML_BY_K = {6: _ML6, 7: _ML7, 8: [("sigmoid", 8, "1/2"), ("tanh", 8, "3/10")]}


def _channel_function(rng, family, k, t):
    """(construction, fcc-build arguments) for a drawn function of `family`."""
    if family == "ramp":
        T = rng.randint(2 * t + 1, min(k, 2 * t + 4))
        return "delta-ramp", ["--function", "delta_T", "--k", str(k), "--T", str(T)]
    if family == "wt":
        return "auto", ["--function", "wt", "--k", str(k)]
    if family == "delta_T":
        return "auto", ["--function", "delta_T", "--k", str(k), "--T", str(rng.randint(2, 4))]
    if family == "minmax":
        w, l = _MINMAX_LAYOUT[k]
        return "auto", ["--function", "minmax", "--w", str(w), "--l", str(l)]
    kind, _, eps = rng.choice(_ML_BY_K[k])
    return "auto", ["--function", f"ml:{kind},k={k},eps={eps}"]


def channel_setup(seed: int, workdir: Path, tiny: bool = False) -> list:
    """Build and write every encoder of the job list; returns the jobs."""
    rng = random.Random(f"channel-{seed}")
    specs = []  # (job id, construction, fcc-build args, t, mode, channel_t, oom)
    if tiny:
        slots = [("wt", "exhaustive", 5, 1, False), ("ramp", "random", 6, 1, False),
                 ("ramp", "exhaustive", 5, 1, True)]
    else:
        slots = _CHANNEL_SLOTS
        specs.append(("orient-wt10", "wt-cycle", ["--function", "wt", "--k", "10"], 1,
                      "exhaustive", 1, False))
    for i, (family, mode, k, t, oom) in enumerate(slots):
        construction, fargs = _channel_function(rng, family, k, t)
        specs.append((f"s{i}-{family}-k{k}-t{t}", construction, fargs, t, mode,
                      t + 1 if oom else t, oom))
    jobs = []
    for job_id, construction, fargs, t, mode, channel_t, oom in specs:
        path = workdir / f"{job_id}.txt"
        rc, _, err = call_cli(
            ["fcc-build", *fargs, "--t", str(t), "--construction", construction, "--out", str(path)]
        )
        if rc != 0:
            raise RuntimeError(f"set-up build of {job_id} failed: {err.strip()}")
        headers, _ = _read_encoder_file(path)
        k = int(headers["k"])
        trials = CHANNEL_TRIALS if not tiny else 200
        if mode == "exhaustive":
            expected = (1 << k) * _sphere(k + int(headers["r"]), channel_t)
        else:
            expected = trials
        jobs.append(ChannelJob(job_id, path, channel_t, mode, trials,
                               rng.randrange(1 << 30), expected, oom))
    rng.shuffle(jobs)
    return jobs


# --- exact -------------------------------------------------------------------


class ExactJob:
    """One exact search: a random requirement matrix, or the optimal
    redundancy of a random function given by its value table."""

    def __init__(self, job_id, dmat=None, k=None, t=None, table=None, values=None):
        self.id = job_id
        self.dmat = dmat
        self.k, self.t, self.table, self.values = k, t, table, values

    def run(self):
        if self.dmat is not None:
            return construct.exact_min_length(self.dmat, EXACT_BUDGET)
        spec = fcc.FunctionSpec(self.k, self.table.__getitem__, range(self.values))
        return fcc.exact_optimal_redundancy(spec, self.t, EXACT_BUDGET)

    def check(self, res, expected=None):
        counts = {"nodes": res.nodes, "unproven": 0 if res.proven else 1}
        if not res.proven:
            return [f"unproven at {res.nodes} nodes (N >= {res.value})"], counts
        problems = []
        if self.dmat is not None:
            dmat = self.dmat
        else:
            spec = fcc.FunctionSpec(self.k, self.table.__getitem__, range(self.values))
            dmat = fcc.distance_requirement_matrix(spec, self.t, list(all_words(self.k)))
            encoder = fcc.encoder_from_exact_witness(spec, self.t, res.code)
            if not fcc.verify_fcc(encoder).ok:
                problems.append("witness encoder fails verify_fcc")
        lo = bounds.plotkin_irregular(dmat).integer_value
        hi = bounds.gv_irregular_threshold(dmat)
        if not lo <= res.value <= hi:
            problems.append(f"N={res.value} outside [{lo}, {hi}]")
        ok, _ = satisfies_distance_matrix(res.code, dmat)
        if not ok:
            problems.append("witness violates the requirement matrix")
        if expected is not None and [res.value, res.nodes] != expected:
            problems.append(f"(N, nodes)=({res.value}, {res.nodes}), committed {expected}")
        return problems, counts


def _random_matrix(rng, m: int) -> DistanceMatrix:
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.randint(0, 4)
    return DistanceMatrix.from_rows(rows)


def _random_table(rng, k: int, values: int) -> list[int]:
    while True:
        table = [rng.randrange(values) for _ in range(1 << k)]
        if len(set(table)) == values:
            return table


def criterion08_corpus() -> list:
    """The matrices of acceptance criterion 08 (seed 8128), in order."""
    rng = random.Random(CRITERION08_SEED)
    return [ExactJob(f"c08-{i}", dmat=_random_matrix(rng, rng.randint(2, 6)))
            for i in range(100)]


# Pinned hard corpus: heavy-tailed strata, the same for every seed.
_HARD_STRATA = [("matrix", 6), ("matrix", 7), ("function", (3, 2, 2)), ("function", (3, 2, 3)),
                ("function", (4, 2, 2)), ("function", (4, 2, 3))]


def hard_corpus() -> list:
    jobs = []
    for kind, param in _HARD_STRATA:
        rng = random.Random(f"hard-{HARD_SEED}-{kind}-{param}")
        for i in range(HARD_PER_STRATUM):
            if kind == "matrix":
                job = ExactJob(f"hard-m{param}-{i}", dmat=_random_matrix(rng, param))
            else:
                k, t, values = param
                job = ExactJob(f"hard-f{k}{t}{values}-{i}", k=k, t=t, values=values,
                               table=_random_table(rng, k, values))
            if job.id not in HARD_EXCLUDED:
                jobs.append(job)
    return jobs


def exact_jobs(seed: int, tiny: bool = False) -> list:
    """Pinned corpora plus seeded instances in light strata: random matrices
    of dimension 3 and random functions at t=1 (k 3-4, 2-3 values). Every
    seeded search stays under 2 ms here, below the pinned tail, so the 90th
    percentile rests on the same pinned instances for every seed."""
    rng = random.Random(f"exact-{seed}")
    count = 1 if tiny else 60
    jobs = [] if tiny else criterion08_corpus() + hard_corpus()
    for i in range(count):
        jobs.append(ExactJob(f"m3-{i}", dmat=_random_matrix(rng, 3)))
    for k, values in ((3, 2), (3, 3), (4, 2), (4, 3)):
        for i in range(count // 4):
            jobs.append(ExactJob(f"f{k}1{values}-{i}", k=k, t=1, values=values,
                                 table=_random_table(rng, k, values)))
    rng.shuffle(jobs)
    return jobs


def expected_exact(seed: int) -> dict:
    """Committed (N, nodes) per instance id: pinned corpora for every seed,
    seeded instances for the default seed only."""
    data = json.loads(EXPECTED_EXACT.read_text(encoding="utf-8"))
    out = dict(data["pinned"])
    if seed == DEFAULT_SEED:
        out.update(data["default_seed"])
    return out
