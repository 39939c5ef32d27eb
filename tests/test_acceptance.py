"""Acceptance gate: one test per headline claim, exact tolerances.

Each test is self-contained and runs within its stated time budget; pytest -v
therefore prints one pass/fail line per claim.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from fcodes import bounds, construct, fcc, functions, tables
from fcodes.bits import BitWord, Code, DistanceMatrix, all_words, satisfies_distance_matrix
from fcodes.functions import MinMaxValue
from fcodes.simulate import ChannelModel, error_patterns, simulate


def test_criterion_01_exact_weight_redundancy_and_cyclic_encoder_t1():
    # exact search: protecting wt over 4 bits against 1 error needs exactly 3 bits
    res = fcc.exact_optimal_redundancy(functions.wt_spec(4), 1)
    assert res.proven and res.value == 3
    # the cyclic three-word parity scheme achieves that for every k up to 12
    for k in range(2, 13):
        enc = functions.wt_cyclic_encoder(functions.wt_spec(k), 1)
        assert enc.r == 3
        assert fcc.verify_fcc(enc).ok, f"k={k}"


def test_criterion_02_weight_redundancy_t2_is_six():
    lower = bounds.wt_lower_bound(2)
    assert lower.value == Fraction(21, 4)
    assert lower.integer_value == 6
    for k in range(3, 13):
        enc = functions.wt_cyclic_encoder(functions.wt_spec(k), 2)
        assert enc.r == 6
        code = Code.of([BitWord(enc.words[w], enc.r) for w in range(k + 1)])
        ok, witness = satisfies_distance_matrix(
            code, functions.wt_requirement_matrix(k, 2)
        )
        assert ok, f"k={k}, weights {witness}"


def test_criterion_03_binary_functions_need_exactly_2t():
    for spec in (functions.parity_spec(3), functions.or_spec(3)):
        res = fcc.exact_optimal_redundancy(spec, 1)
        assert res.proven and res.value == 2, spec.name
        # the 2-fold repetition parities (00 for value 0, 11 for value 1) work
        rep = fcc.FccEncoder(spec, 1, 2, (0b00, 0b11))
        assert fcc.verify_fcc(rep).ok, spec.name


def test_criterion_04_threshold_ramp_achieves_the_2t_floor():
    for k, T, t in ((8, 3, 1), (9, 5, 2)):
        enc = functions.delta_ramp_encoder(functions.delta_spec(k, T), t)
        assert enc.r == 2 * t
        assert fcc.verify_fcc(enc).ok, (k, T, t)


def test_criterion_05_locally_binary_certificate_and_exhaustive_decoding():
    spec = functions.delta_spec(9, 5)
    t = 1
    ok, witness = fcc.is_locally_binary(spec, 2 * t)
    assert ok and witness is None
    enc = functions.locally_binary_encoder(spec, t)
    failures = 0
    for u in all_words(9):
        c = enc.encode(u)
        expected = spec.fn(u.value)
        for pattern in error_patterns(c.length, t):
            if fcc.decode(enc, c ^ pattern).value != expected:
                failures += 1
    assert failures == 0


def test_criterion_06_minmax_oracle_reproduces_value_distance_structure():
    w, l, t = 3, 3, 1
    spec = functions.minmax_spec(w, l)
    d = fcc.value_distances(spec, spec.k)
    assert len(d) == 6
    assert max(map(max, d)) == 2
    assert [row.count(1) for row in d] == [4 * (w - 2)] * 6
    # requirement matrix: 2t-1 exactly at argmin/argmax-swapped pairs
    req = fcc.function_distance_matrix(spec, t)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            vi, vj = spec.image[i], spec.image[j]
            swapped = vi == MinMaxValue(vj.argmax_index, vj.argmin_index)
            assert req.entries[i][j] == (2 * t - 1 if swapped else 2 * t)
    total_2t = sum(
        1 for i in range(6) for j in range(6) if i != j and req.entries[i][j] == 2 * t
    )
    assert total_2t == 4 * w * (w - 1) * (w - 2)


def test_criterion_07_minmax_parity_encoder_verifies_and_simulates_clean():
    enc = functions.minmax_parity_encoder(functions.minmax_spec(3, 3), 1)
    assert enc.r == 4 == 1 * (math.ceil(math.log2(6)) + 1)
    assert fcc.verify_fcc(enc).ok
    report = simulate(enc, ChannelModel(t=1, mode="exhaustive"))
    assert report.failures == 0
    assert report.trials == (1 << 9) * (1 + enc.block_length)


def test_criterion_08_bound_sandwich_on_100_random_matrices():
    rng = random.Random(8128)
    budget = construct.SearchBudget(max_length=16, max_nodes=20_000_000, time_limit=120.0)
    for trial in range(100):
        m = rng.randint(2, 6)
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                rows[i][j] = rows[j][i] = rng.randint(0, 4)
        dmat = DistanceMatrix.from_rows(rows)
        exact = construct.exact_min_length(dmat, budget)
        assert exact.proven, f"trial {trial}: search budget exhausted"
        lo = bounds.plotkin_irregular(dmat).integer_value
        hi = bounds.gv_irregular_threshold(dmat)
        assert lo <= exact.value <= hi, f"trial {trial}: {lo} {exact.value} {hi}"
        greedy = construct.greedy_irregular_code(dmat, hi)
        assert greedy is not None, f"trial {trial}: greedy failed at threshold {hi}"
        ok, _ = satisfies_distance_matrix(greedy, dmat)
        assert ok, f"trial {trial}"


def test_criterion_09_sigmoid_matrix_dual_route_and_encoder(class_distance_matrix):
    kind = functions.ml_kind("sigmoid")
    q = functions.Quantizer(5, Fraction(1))
    spec = functions.ml_spec(kind, q)
    lemma = class_distance_matrix(spec, 1)
    generic = fcc.function_distance_matrix(spec, 1)
    assert lemma.dim == generic.dim == 22
    assert lemma.entries == generic.entries
    enc = fcc.build_function_value_encoder(spec, 1)
    assert fcc.verify_fcc(enc).ok


def test_criterion_10_table_rows_and_estimator_fixed_points():
    for t in (1, 2, 3):
        row = tables.table_row("binary", t)
        assert (row.lower_bound.value, row.lower_bound.exact) == (2 * t, True)
        assert (row.fcc_redundancy.value, row.fcc_redundancy.exact) == (2 * t, True)
        assert (
            row.ecc_on_function_values.value,
            row.ecc_on_function_values.exact,
        ) == (2 * t + 1, True)
    for t, expected in ((1, 3), (2, 6)):
        row = tables.table_row("wt", t)
        assert (row.lower_bound.value, row.lower_bound.exact) == (expected, True)
        assert (row.fcc_redundancy.value, row.fcc_redundancy.exact) == (expected, True)
    for k in (1 << 7, 1 << 10, 1 << 14):
        for t in (1, 2, 3):
            r = bounds.ecc_on_data_redundancy(k, t)
            assert r == t * math.ceil(math.log2(k + r)), (k, t)
