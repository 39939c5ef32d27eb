"""Greedy and exact code construction, plus the classical code families."""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
import time
import tracemalloc
from collections import defaultdict
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcodes import bounds, construct, fcc
from fcodes.bits import (
    BitWord,
    Code,
    DistanceMatrix,
    all_words,
    satisfies_distance_matrix,
)
from fcodes.functions import wt_requirement_matrix


def random_matrix(
    rng: random.Random, max_dim: int = 6, max_entry: int = 4, min_dim: int = 2
) -> DistanceMatrix:
    m = rng.randint(min_dim, max_dim)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.randint(0, max_entry)
    return DistanceMatrix.from_rows(rows)


def permuted(d: DistanceMatrix, order: list[int]) -> DistanceMatrix:
    """d with its rows and columns reindexed by `order`."""
    return DistanceMatrix(tuple(tuple(d.entries[i][j] for j in order) for i in order))


# --- greedy -------------------------------------------------------------------


def reference_greedy(dmat: DistanceMatrix, r: int, order=None) -> list[int] | None:
    """The word-by-word first-fit scan greedy_irregular_code replaced: each
    row in order takes the first of range(2^r) far enough from every placed
    word. Word values by row, or None when some row finds none."""
    pi = list(range(dmat.dim)) if order is None else list(order)
    words: dict[int, int] = {}
    for j in pi:
        row = dmat.entries[j]
        placed = next(
            (
                cand
                for cand in range(1 << r)
                if all((cand ^ w).bit_count() >= row[i] for i, w in words.items())
            ),
            None,
        )
        if placed is None:
            return None
        words[j] = placed
    return [words[i] for i in range(dmat.dim)]


def greedy_words(dmat: DistanceMatrix, r: int, order=None) -> list[int] | None:
    code = construct.greedy_irregular_code(dmat, r, order)
    return None if code is None else [w.value for w in code.words]


def assert_greedy_matches_scan(dmat: DistanceMatrix, order) -> None:
    """Identical words or None at r = 0 and at the threshold minus 3 up to it."""
    top = bounds.gv_irregular_threshold(dmat, order)
    for r in sorted({0, *range(max(0, top - 3), top + 1)}):
        assert greedy_words(dmat, r, order) == reference_greedy(dmat, r, order), (
            dmat.entries, r, order)


def random_requirement_matrix(rng: random.Random) -> DistanceMatrix:
    """Dimension 1-12, entries 0 up to a drawn cap of 0-6 (above r for small r)."""
    return random_matrix(rng, max_dim=12, max_entry=rng.randint(0, 6), min_dim=1)


def test_greedy_matches_the_word_scan_on_300_random_matrices():
    rng = random.Random(4242)
    nones = 0
    for _ in range(300):
        d = random_requirement_matrix(rng)
        order = list(range(d.dim))
        rng.shuffle(order)
        assert_greedy_matches_scan(d, order)
        nones += greedy_words(d, 0, order) is None
    assert nones > 0  # r = 0 below the threshold does fail on some


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize(
    "text",
    ["ml:sigmoid,k=6,eps=1", "ml:tanh,k=7,eps=3/10", "ml:relu,k=6,eps=1/2", "ml:sigmoid,k=8,eps=1/4"],
)
def test_greedy_matches_the_word_scan_on_ml_value_matrices(text, t):
    d = fcc.function_distance_matrix(fcc.spec_from_string(text), t)
    for order in (None, bounds.heuristic_row_order(d)):
        assert_greedy_matches_scan(d, order)


def test_greedy_in_one_bit_blocks_matches_the_word_scan(monkeypatch):
    # blocks of two words: nearly every word lies past the first block, so
    # the per-block ball radii must give the words the scan finds
    monkeypatch.setattr(construct, "_GREEDY_WINDOW", 1)
    rng = random.Random(77)
    for _ in range(60):
        d = random_requirement_matrix(rng)
        order = list(range(d.dim))
        rng.shuffle(order)
        assert_greedy_matches_scan(d, order)


def test_greedy_far_above_the_threshold_stays_in_a_small_window():
    # r = 48: the words are small, and so are the masks that find them
    rng = random.Random(5)
    for _ in range(20):
        d = random_matrix(rng, max_dim=8, max_entry=6)
        assert greedy_words(d, 48) == reference_greedy(d, 48)


def test_greedy_at_high_t_stays_in_one_block_of_memory():
    # delta_T k=16 T=3 at t = 9 places a word past 2^25; a mask grown to
    # cover it peaked at 799 MiB RSS, a block of 2^16 words holds 8 KiB
    spec = fcc.spec_from_string("delta_T:k=16,T=3")
    dmat = fcc.function_distance_matrix(spec, 9)
    gv = bounds.gv_threshold_and_order(dmat)
    tracemalloc.start()
    try:
        enc = fcc.build_function_value_encoder(spec, 9, dmat, gv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    assert max(enc.words).bit_length() > 25 and fcc.verify_fcc(enc).ok


def test_greedy_threshold_never_fails_on_100_random_matrices():
    rng = random.Random(20240817)
    for _ in range(100):
        d = random_matrix(rng)
        r = bounds.gv_irregular_threshold(d)
        code = construct.greedy_irregular_code(d, r)
        assert code is not None, f"greedy failed at its own threshold on {d.entries}"
        ok, witness = satisfies_distance_matrix(code, d)
        assert ok, witness


def test_greedy_respects_row_order():
    d = wt_requirement_matrix(4, 1)
    r = bounds.gv_irregular_threshold(d)
    order = bounds.heuristic_row_order(d)
    code = construct.greedy_irregular_code(d, r, order)
    assert code is not None
    # output is indexed by original rows whatever the visit order
    ok, _ = satisfies_distance_matrix(code, d)
    assert ok


def test_greedy_can_fail_below_threshold():
    d = DistanceMatrix.uniform(4, 2)
    # four words pairwise distance 2 need length >= 3
    assert construct.greedy_irregular_code(d, 1) is None


# --- exact search -------------------------------------------------------------


def test_exact_trivial_dimensions():
    empty = DistanceMatrix.from_rows([[0]])
    res = construct.exact_min_length(empty)
    assert res.proven and res.value == 0


def test_exact_restricted_3x3_frozen():
    # off-diagonal requirements (2, 1, 2): no length-2 triple works (any two
    # words at distance 2 in {0,1}^2 are complements, and the third word
    # cannot be at distance >= 1 from one and >= 2 from the other), so N = 3.
    d = DistanceMatrix.from_rows([[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    res = construct.exact_min_length(d)
    assert res.proven and res.value == 3
    ok, _ = satisfies_distance_matrix(res.code, d)
    assert ok


def test_exact_full_weight_matrix_k4_frozen():
    d = wt_requirement_matrix(4, 1)
    res = construct.exact_min_length(d)
    assert res.proven and res.value == 3


def test_exact_witness_starts_at_zero():
    d = DistanceMatrix.uniform(3, 2)
    res = construct.exact_min_length(d)
    assert res.code[0] == BitWord.zeros(res.value)


def test_exact_permutation_invariance():
    rng = random.Random(7)
    for _ in range(10):
        d = random_matrix(rng, max_dim=4, max_entry=3)
        n0 = construct.exact_min_length(d).value
        order = list(range(d.dim))
        rng.shuffle(order)
        n1 = construct.exact_min_length(permuted(d, order)).value
        assert n0 == n1


def test_exact_budget_exhaustion_reported():
    d = DistanceMatrix.uniform(6, 4)
    tight = construct.SearchBudget(max_length=16, max_nodes=3, time_limit=30.0)
    res = construct.exact_min_length(d, tight)
    assert not res.proven
    assert res.code is None
    assert res.nodes == 3  # the node that reaches the cap counts
    assert res.value >= d.max_entry  # still a valid lower bound


def test_exact_length_cap_reported():
    d = DistanceMatrix.uniform(4, 8)
    capped = construct.SearchBudget(max_length=5, max_nodes=1_000_000, time_limit=30.0)
    res = construct.exact_min_length(d, capped)
    assert not res.proven


def test_exact_trace_lines():
    lines: list[str] = []
    d = DistanceMatrix.uniform(3, 2)
    construct.exact_min_length(d, trace=lines.append)
    assert any(line.startswith("try r=") for line in lines)
    assert any(line.startswith("proven r=") for line in lines)


@pytest.mark.parametrize("dmat, budget, proven", [
    (wt_requirement_matrix(4, 1), None, True),
    (wt_requirement_matrix(9, 4), construct.SearchBudget(16, 20_000, 30.0), False),
    (wt_requirement_matrix(9, 4), construct.SearchBudget(11, 1_000_000, 30.0), False),
], ids=["proven", "node-budget", "length-cap"])
def test_exact_refute_nodes_are_the_nodes_before_the_last_try(dmat, budget, proven):
    lines: list[str] = []
    res = construct.exact_min_length(dmat, budget, trace=lines.append)
    tries = [int(line.rsplit("nodes=", 1)[1]) for line in lines if line.startswith("try r=")]
    assert res.proven is proven and len(tries) >= 2
    assert res.refute_nodes == tries[-1] < res.nodes
    assert construct.exact_min_length(dmat, budget) == res  # the same without a trace


def test_exact_wall_clock_ends_the_search_unproven():
    # the clock is read every 4,096 nodes; the search below needs far more
    lines: list[str] = []
    d = wt_requirement_matrix(9, 4)
    hasty = construct.SearchBudget(max_length=16, max_nodes=10_000_000, time_limit=1e-6)
    res = construct.exact_min_length(d, hasty, trace=lines.append)
    assert not res.proven and res.code is None
    assert res.nodes == 4096
    assert lines[-1] == f"budget-exhausted r={res.value} nodes=4096"


def test_a_nan_time_limit_is_not_a_cap():
    # NaN compares false with everything, so a deadline of NaN would never pass
    with pytest.raises(ValueError, match="budget caps must be positive"):
        construct.SearchBudget(time_limit=float("nan"))
    assert construct.SearchBudget(time_limit=float("inf")).time_limit == float("inf")


def test_exact_row_symmetry_same_answer():
    rng = random.Random(99)
    for _ in range(8):
        d = random_matrix(rng, max_dim=4, max_entry=3)
        plain = construct.exact_min_length(d).value
        pruned = construct.exact_min_length(d, use_row_symmetry=True).value
        assert plain == pruned


def test_exact_sandwiched_by_bounds():
    rng = random.Random(404)
    for _ in range(20):
        d = random_matrix(rng, max_dim=5, max_entry=3)
        res = construct.exact_min_length(d)
        assert res.proven
        lo, hi = bounds.sandwich(d)
        assert lo.integer_value <= res.value <= hi.integer_value


# --- exact search against the popcount reference -------------------------------


def spend(budget) -> bool:
    """Account one node of the reference search: the node cap at every node,
    the wall clock every 4,096 nodes; False when the budget just ran out."""
    budget.nodes += 1
    if budget.nodes >= budget.max_nodes or (
        budget.nodes % 4096 == 0 and time.monotonic() > budget.deadline
    ):
        budget.exhausted = True
    return not budget.exhausted


def popcount_assignment_search(dmat, r, budget, prev_in_group):
    """Reference search: every row tries the words from its group
    predecessor's word upwards, rejecting each by a popcount test against
    every earlier row, at one budget node per accepted word."""
    m = dmat.dim
    words = [0] * m

    def extend(i):
        if i == m:
            return True
        row = dmat.entries[i]
        p = prev_in_group[i]
        for cand in range(0 if p is None else words[p], 1 << r):
            if any((cand ^ words[j]).bit_count() < row[j] for j in range(i)):
                continue
            if not spend(budget):
                return False
            words[i] = cand
            if extend(i + 1):
                return True
            if budget.exhausted:
                return False
        return False

    if not spend(budget):
        return None
    return words if extend(1) else None


def reference_exact(dmat, budget, use_row_symmetry=False):
    """(value, proven, nodes, witness) from the length loop of
    exact_min_length run over the popcount reference search."""
    m = dmat.dim
    prev = construct._interchange_groups(dmat) if use_row_symmetry else [None] * m
    state = construct._Budget(budget)
    r = max(0, bounds.plotkin_irregular(dmat).integer_value)
    while r <= budget.max_length:
        found = popcount_assignment_search(dmat, r, state, prev)
        if state.exhausted:
            break
        if found is not None:
            return r, True, state.nodes, found
        r += 1
    return r, False, state.nodes, None


def _outcome(res):
    witness = None if res.code is None else [w.value for w in res.code]
    return res.value, res.proven, res.nodes, witness


def _assert_same_search(dmat, rng):
    """Compare with and without row symmetry, at node caps that run out early,
    midway and (mostly) not at all; returns how many searches were proven."""
    proven = 0
    for sym in (False, True):
        for max_nodes in (rng.randint(1, 40), rng.randint(41, 400), 1_000):
            budget = construct.SearchBudget(max_length=12, max_nodes=max_nodes)
            got = _outcome(construct.exact_min_length(dmat, budget, use_row_symmetry=sym))
            assert got == reference_exact(dmat, budget, sym), (dmat.entries, sym, max_nodes)
            proven += got[1]
    return proven


def test_exact_search_matches_popcount_reference_on_random_matrices():
    rng = random.Random(4242)
    proven = sum(
        _assert_same_search(random_matrix(rng, max_dim=7, max_entry=5), rng) for _ in range(40)
    )
    assert 40 <= proven <= 200  # both proven and budget-exhausted searches


def test_exact_search_matches_popcount_reference_on_function_matrices():
    rng = random.Random(777)
    for _ in range(40):
        k = rng.randint(1, 3)
        values = rng.randint(2, min(4, 1 << k))
        table = [rng.randrange(values) for _ in range(1 << k)]
        table[:values] = range(values)  # every value attained
        spec = fcc.FunctionSpec(k, table.__getitem__, range(values))
        dmat = fcc.distance_requirement_matrix(spec, rng.randint(1, 2), list(all_words(k)))
        _assert_same_search(dmat, rng)


def test_exact_search_matches_popcount_reference_on_larger_function_matrices():
    # dimension 8-16 at t = 2, where each row's domain leans on the balls of
    # many earlier rows; in a shuffled row order the trees are deep
    rng = random.Random(31)
    dims = set()
    for k in (3, 3, 4, 4):
        table = [rng.randrange(3) for _ in range(1 << k)]
        table[:3] = range(3)  # every value attained
        spec = fcc.FunctionSpec(k, table.__getitem__, range(3))
        dmat = fcc.distance_requirement_matrix(spec, 2, list(all_words(k)))
        order = list(range(dmat.dim))
        rng.shuffle(order)
        dims.add(dmat.dim)
        _assert_same_search(dmat, rng)
        _assert_same_search(permuted(dmat, order), rng)
    assert dims == {8, 16}


def test_exact_search_matches_popcount_reference_on_symmetric_matrices():
    # many interchangeable rows, so row symmetry cuts the tree
    rng = random.Random(5)
    for dmat in (DistanceMatrix.uniform(5, 3), DistanceMatrix.uniform(6, 2),
                 wt_requirement_matrix(4, 1), wt_requirement_matrix(5, 2)):
        _assert_same_search(dmat, rng)


# Rows 0 and 2 need distance d and row 1 is free: below r = d, row 0's ball
# covers all of row 2, so every word of row 1 is a leaf, counted in one step.
def _far_pair(d: int) -> DistanceMatrix:
    return DistanceMatrix.from_rows([[0, 0, d], [0, 0, 0], [d, 0, 0]])


# A random matrix whose search counts 183 of its 378 nodes in 159 such steps.
_MIXED = DistanceMatrix.from_rows([
    [0, 2, 0, 4, 1, 0], [2, 0, 1, 0, 0, 4], [0, 1, 0, 1, 5, 5],
    [4, 0, 1, 0, 2, 0], [1, 0, 5, 2, 0, 0], [0, 4, 5, 0, 0, 0],
])


@pytest.mark.parametrize("dmat", [_far_pair(8), _MIXED], ids=["far-pair", "mixed"])
@pytest.mark.parametrize("sym", [False, True])
def test_dead_end_rows_count_like_the_reference_at_every_node_cap(dmat, sym):
    full = construct.exact_min_length(dmat, use_row_symmetry=sym)
    assert full.proven
    for max_nodes in range(1, full.nodes + 2):
        budget = construct.SearchBudget(max_nodes=max_nodes)
        got = _outcome(construct.exact_min_length(dmat, budget, use_row_symmetry=sym))
        assert got == reference_exact(dmat, budget, sym), (sym, max_nodes)


@pytest.mark.parametrize("reads_in_time, value, nodes", [(0, 12, 4096), (1, 13, 8192)])
def test_a_dead_end_row_past_the_deadline_stops_at_the_first_multiple_of_4096(
    monkeypatch, reads_in_time, value, nodes
):
    # _far_pair(14) counts nodes 3,974-8,070 in one step at r = 12 and
    # 8,071-16,263 (past 8,192 and 12,288) in one at r = 13. The clock reads
    # in time at the budget's set-up and `reads_in_time` more times, then late.
    clock = itertools.chain([0.0] * (1 + reads_in_time), itertools.repeat(2.0))
    monkeypatch.setattr(construct.time, "monotonic", lambda: next(clock))
    budget = construct.SearchBudget(max_nodes=10**6, time_limit=1.0)
    res = construct.exact_min_length(_far_pair(14), budget)
    assert (res.value, res.proven, res.nodes) == (value, False, nodes)


def _benchmark_workloads():
    """perfbench/workloads.py, loaded read-only for its pinned corpora."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_search_replays_the_benchmark_pinned_corpora():
    # the benchmark's committed (N, nodes): the tree is node-for-node fixed
    workloads = _benchmark_workloads()
    pinned = json.loads(workloads.EXPECTED_EXACT.read_text(encoding="utf-8"))["pinned"]
    jobs = workloads.criterion08_corpus() + workloads.hard_corpus()
    assert sorted(job.id for job in jobs) == sorted(pinned)
    for job in jobs:
        res = job.run()
        assert res.proven, job.id
        assert [res.value, res.nodes] == pinned[job.id], job.id


@pytest.mark.parametrize("r", range(6))
def test_ball_masks_match_popcount(r):
    balls = defaultdict(dict)
    for w in range(1 << r):
        for d in range(1, r + 3):
            mask = construct._ball(balls, r, d, w)
            assert mask == sum(1 << v for v in range(1 << r) if (v ^ w).bit_count() < d)


# --- Hadamard -----------------------------------------------------------------


@pytest.mark.parametrize("dist", [1, 2, 4, 8])
def test_hadamard_code_distances(dist):
    code = construct.hadamard_code(dist)
    assert code is not None
    assert code.size == 4 * dist and code.length == 2 * dist
    ok, _ = satisfies_distance_matrix(code, DistanceMatrix.uniform(4 * dist, dist))
    assert ok


def test_hadamard_code_exact_min_distance():
    code = construct.hadamard_code(4)
    assert construct.min_distance(code) == 4


def test_hadamard_requires_power_of_two():
    assert construct.hadamard_code(3) is None
    assert construct.hadamard_code(6) is None


def _sylvester_rows_by_loop(n: int) -> list[int]:
    """Row i holds parity(popcount(i AND j)) at bit n-1-j, one entry at a time."""
    rows = []
    for i in range(n):
        v = 0
        for j in range(n):
            v = (v << 1) | ((i & j).bit_count() & 1)
        rows.append(v)
    return rows


@pytest.mark.parametrize("dist", [1, 2, 4, 8, 16, 32, 64])
def test_hadamard_words_match_the_entrywise_loop(dist):
    n = 2 * dist
    rows, full = _sylvester_rows_by_loop(n), (1 << n) - 1
    code = construct.hadamard_code(dist)
    assert [w.value for w in code] == rows + [v ^ full for v in rows]


# --- Reed-Muller ----------------------------------------------------------------


def _rm_min_distance(code: Code) -> int:
    if code.size <= 2048:
        return construct.min_distance(code)
    # linear code: min distance = min nonzero weight
    return min(w.value.bit_count() for w in code if w.value != 0)


@pytest.mark.parametrize(
    "order,m", [(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
)
def test_reed_muller_min_distance(order, m):
    code = construct.reed_muller_code(order, m)
    dim = sum(len(list(itertools.combinations(range(m), i))) for i in range(order + 1))
    assert code.size == 1 << dim
    assert code.length == 1 << m
    assert _rm_min_distance(code) == 1 << (m - order)


def _rm_words_by_loop(r_rm: int, m: int) -> list[int]:
    """Each monomial evaluated point by point (point x at bit 2^m-1-x), rows
    by (degree, variable tuple), codeword msg the XOR of the rows msg selects."""
    n = 1 << m
    rows = []
    for size in range(r_rm + 1):
        for s in itertools.combinations(range(m), size):
            v = 0
            for x in range(n):
                v = (v << 1) | all(x >> var & 1 for var in s)
            rows.append(v)
    words = []
    for msg in range(1 << len(rows)):
        v = 0
        for j, row in enumerate(rows):
            if msg >> j & 1:
                v ^= row
        words.append(v)
    return words


@pytest.mark.parametrize("m", range(9))
def test_reed_muller_words_match_the_pointwise_loop(m):
    for order in range(m + 1):
        if sum(comb(m, i) for i in range(order + 1)) > 12:  # 2^dim words
            break
        code = construct.reed_muller_code(order, m)
        assert code.length == 1 << m
        assert [w.value for w in code] == _rm_words_by_loop(order, m), (order, m)


def test_reed_muller_rm13_contains_constants():
    code = construct.reed_muller_code(1, 3)
    values = {w.value for w in code}
    assert 0 in values and (1 << 8) - 1 in values


# --- even-weight subcode and replication ------------------------------------------


def test_even_weight_subcode_frozen():
    code = construct.even_weight_subcode(6, 4)
    assert [str(w) for w in code] == ["0000", "0011", "0101", "0110", "1001", "1010"]
    assert construct.min_distance(code) == 2


def test_even_weight_subcode_capacity():
    with pytest.raises(ValueError):
        construct.even_weight_subcode(9, 4)  # only 8 even words of length 4


@given(st.integers(min_value=1, max_value=4))
def test_replicate_scales_distances(factor):
    base = construct.even_weight_subcode(6, 4)
    rep = construct.replicate_bits(base, factor)
    assert rep.length == 4 * factor
    for a, b in itertools.combinations(range(base.size), 2):
        assert (rep[a] ^ rep[b]).value.bit_count() == factor * (base[a] ^ base[b]).value.bit_count()


def test_replicate_preserves_order():
    # each bit is repeated in place, keeping word order
    base = Code.from_strings(["01", "10"])
    rep = construct.replicate_bits(base, 3)
    assert [str(w) for w in rep] == ["000111", "111000"]
    assert list(construct.replicate_bits(base, 1)) == list(base)


def _replicate_bit_by_bit(code: Code, factor: int) -> Code:
    """The bit-by-bit loop replicate_bits replaced."""
    out = []
    for w in code:
        bits = []
        for b in str(w):
            bits.extend([b] * factor)
        out.append(BitWord.from_string("".join(bits)))
    return Code.of(out, code.length * factor)


def test_replicate_matches_the_bit_by_bit_loop():
    rng = random.Random(7)
    codes = [Code.of([BitWord(0, 0)] * 2, 0), construct.even_weight_subcode(12, 5)]
    codes += [Code.of([BitWord(rng.getrandbits(n), n) for _ in range(rng.randint(1, 9))], n)
              for n in (1, 3, 8, 17, 40)]
    for code in codes:
        for factor in (1, 2, 3, 5):
            assert construct.replicate_bits(code, factor) == _replicate_bit_by_bit(code, factor)


def test_min_distance_needs_two_words():
    with pytest.raises(ValueError):
        construct.min_distance(Code.from_strings(["0101"]))


def test_exact_min_length_rejects_an_invalid_witness(monkeypatch):
    # the check must not be an assert, which python -O strips
    dmat = DistanceMatrix.from_rows([[0, 2], [2, 0]])
    monkeypatch.setattr(construct, "_assignment_search", lambda *args: [0, 0])
    with pytest.raises(RuntimeError, match="invalid witness"):
        construct.exact_min_length(dmat)
