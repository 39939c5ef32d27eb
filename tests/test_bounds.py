"""Bounds on the minimum length of irregular-distance codes.

The numeric expectations here were worked out by hand (or by a direct
summation no smarter than a calculator) before the implementations existed;
they are frozen so a regression in the formulas cannot hide.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcodes import bounds, fcc, functions
from fcodes.bits import DistanceMatrix, sphere_size
from fcodes.functions import wt_requirement_matrix

# --- BoundResult formatting ---------------------------------------------------


def test_bound_result_str():
    r = bounds.plotkin_irregular(wt_requirement_matrix(6, 2))
    assert str(r) == "25/6 (ceil 5)"
    assert r.kind == "lower"


def test_bound_result_json():
    r = bounds.wt_lower_bound(1)
    d = r.to_json_dict()
    assert d == {
        "value_num": 8,
        "value_den": 3,
        "integer_value": 3,
        "kind": "lower",
        "source": "wt-lower",
    }


def test_ceil_guarded_snaps_float_noise():
    assert bounds.ceil_guarded(5.0000000001) == 5
    assert bounds.ceil_guarded(4.9999999999) == 5
    assert bounds.ceil_guarded(4.2) == 5


# --- Plotkin ------------------------------------------------------------------


def test_plotkin_dwt2_k6_frozen():
    # upper-triangle sum of the (7x7) weight requirement matrix at t=2 is 50;
    # 50 * 4 / (7^2 - 1) = 25/6, hand-checked.
    d = wt_requirement_matrix(6, 2)
    r = bounds.plotkin_irregular(d)
    assert r.value == Fraction(25, 6)
    assert r.integer_value == 5


def test_plotkin_regular_values():
    assert bounds.plotkin_regular(4, 4).value == Fraction(6)
    assert bounds.plotkin_regular(2, 2).value == Fraction(2)
    assert bounds.plotkin_regular(2, 6).value == Fraction(6)  # 2D(M-1)/M at M=2 is D


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=6),
)
def test_plotkin_irregular_vs_regular_on_uniform(m, dist):
    # the irregular form uses the tight averaging constant (4/(M^2-1) for
    # odd M), so it matches the regular 2D(M-1)/M formula exactly for even
    # M and strictly improves on it for odd M
    irr = bounds.plotkin_irregular(DistanceMatrix.uniform(m, dist)).value
    reg = bounds.plotkin_regular(m, dist).value
    if m % 2 == 0:
        assert irr == reg
    else:
        assert irr == Fraction(2 * m * dist, m + 1)
        assert irr > reg


def test_plotkin_even_vs_odd_size():
    # even M uses 4/M^2, odd M uses 4/(M^2-1); check both against the sum
    d_even = DistanceMatrix.uniform(4, 3)
    assert bounds.plotkin_irregular(d_even).value == Fraction(4 * 6 * 3, 16)
    d_odd = DistanceMatrix.uniform(3, 3)
    assert bounds.plotkin_irregular(d_odd).value == Fraction(4 * 3 * 3, 8)


# --- Gilbert-Varshamov threshold ------------------------------------------------


def test_gv_threshold_small_cases():
    assert bounds.gv_irregular_threshold(DistanceMatrix.uniform(2, 2)) == 2
    assert bounds.gv_irregular_threshold(DistanceMatrix.from_rows([[0, 0], [0, 0]])) == 0


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
)
def test_gv_threshold_regular_reduction(m, dist):
    # on a uniform matrix the threshold is the classical greedy bound:
    # smallest r with 2^r > (j-1) V(r, D-1) for every prefix size j <= M
    r = bounds.gv_irregular_threshold(DistanceMatrix.uniform(m, dist))
    assert (1 << r) > (m - 1) * sphere_size(r, dist - 1)
    if r > 0:
        assert any(
            (1 << (r - 1)) <= (j - 1) * sphere_size(r - 1, dist - 1)
            for j in range(2, m + 1)
        )


def reference_gv_threshold(dmat: DistanceMatrix, order=None) -> int:
    """The per-pair sphere_size loop gv_irregular_threshold replaced: the
    smallest r at which every placement j has 2^r > sum over earlier rows i
    of V(r, D[pi_j][pi_i] - 1)."""
    pi = list(range(dmat.dim)) if order is None else list(order)
    r = 0
    while True:
        if all(
            (1 << r) > sum(sphere_size(r, dmat.entries[pi[j]][pi[i]] - 1) for i in range(j))
            for j in range(dmat.dim)
        ):
            return r
        r += 1


def random_requirement_matrix(rng: random.Random) -> DistanceMatrix:
    """Dimension 1-12, entries 0 up to a drawn cap of 0-6."""
    m, cap = rng.randint(1, 12), rng.randint(0, 6)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = rng.randint(0, cap)
    return DistanceMatrix.from_rows(rows)


def test_gv_threshold_matches_the_per_pair_oracle_on_300_random_matrices():
    rng = random.Random(90210)
    for _ in range(300):
        d = random_requirement_matrix(rng)
        order = list(range(d.dim))
        rng.shuffle(order)
        for pi in (None, order, bounds.heuristic_row_order(d)):
            assert bounds.gv_irregular_threshold(d, pi) == reference_gv_threshold(d, pi), (
                d.entries, pi)


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize(
    "text",
    ["ml:sigmoid,k=6,eps=1", "ml:tanh,k=7,eps=3/10", "ml:relu,k=7,eps=1/4", "ml:sigmoid,k=8,eps=1/4"],
)
def test_gv_threshold_matches_the_per_pair_oracle_on_ml_value_matrices(text, t):
    d = fcc.function_distance_matrix(fcc.spec_from_string(text), t)
    for pi in (None, bounds.heuristic_row_order(d)):
        assert bounds.gv_irregular_threshold(d, pi) == reference_gv_threshold(d, pi)


def test_heuristic_row_order_sorts_by_row_sum():
    d = DistanceMatrix.from_rows([[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    assert bounds.heuristic_row_order(d) == (1, 2, 0)


# --- Hadamard and closed-form GV ----------------------------------------------


def test_hadamard_upper_applicability():
    r = bounds.hadamard_upper(8, 2)
    assert r is not None and r.value == Fraction(4)
    assert bounds.hadamard_upper(9, 2) is None  # M > 4D
    assert bounds.hadamard_upper(4, 3) is None  # 2D not a power of two


def test_gv_closed_form_window():
    assert bounds.gv_regular_closed_form(4, 4) is None  # D < 10
    assert bounds.gv_regular_closed_form(200, 10) is None  # M > D^2
    r = bounds.gv_regular_closed_form(100, 10)
    assert r is not None
    expected = 2 * 10 / (1 - 2 * math.sqrt(math.log(10) / 10))  # natural log
    assert math.isclose(float(r.value), expected)
    assert r.integer_value == math.ceil(expected)


def test_sandwich_zero_matrix():
    z = DistanceMatrix.from_rows([[0, 0], [0, 0]])
    lo, hi = bounds.sandwich(z)
    assert lo.value == 0 and hi.value == 0


def test_sandwich_orders_lower_below_upper():
    d = wt_requirement_matrix(6, 2)
    lo, hi = bounds.sandwich(d)
    assert lo.value <= hi.value
    assert lo.kind == "lower" and hi.kind == "upper"


# --- weight-function lower bound ------------------------------------------------


def test_wt_lower_bound_frozen():
    r1 = bounds.wt_lower_bound(1)
    assert (r1.value, r1.integer_value) == (Fraction(8, 3), 3)
    r2 = bounds.wt_lower_bound(2)
    assert (r2.value, r2.integer_value) == (Fraction(21, 4), 6)


@given(st.integers(min_value=1, max_value=40))
def test_wt_lower_bound_formula(t):
    r = bounds.wt_lower_bound(t)
    assert r.value == Fraction(10 * t**3 + 30 * t**2 + 20 * t + 12, 3 * t**2 + 12 * t + 12)


# --- min-max bounds -------------------------------------------------------------


def test_minmax_lower_frozen():
    r = bounds.minmax_lower_bound(3, 1)
    assert (r.value, r.integer_value) == (Fraction(3, 2), 2)
    r = bounds.minmax_lower_bound(4, 2)
    assert (r.value, r.integer_value) == (Fraction(63, 12), 6)


def test_minmax_lower_requires_three_blocks():
    with pytest.raises(ValueError):
        bounds.minmax_lower_bound(2, 1)


def test_minmax_sphere_packing_frozen():
    r = bounds.minmax_sphere_packing_bound(3, 2)
    # log2 6 + 0*loglog - 2*log2 2 = log2 6 - 2
    assert math.isclose(float(r.value), math.log2(6) - 2)
    with pytest.raises(ValueError):
        bounds.minmax_sphere_packing_bound(3, 1)  # needs t >= 2


def test_minmax_gv_upper_frozen():
    assert bounds.minmax_gv_upper(3, 1) == 5
    assert bounds.minmax_gv_upper(3, 2) == 10


def test_minmax_gv_counting_function_signs():
    # at w=3, t=1: Phi(r) = 2^r - 5 V(r,0) - 4 C(r,1) = 2^r - 5 - 4r
    # Phi(4) = 16 - 5 - 16 = -5 < 0, Phi(5) = 32 - 5 - 20 = 7 > 0
    assert bounds.minmax_gv_upper(3, 1) == 5


@settings(deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=1, max_value=3))
def test_minmax_gv_matches_generic_threshold(w, t):
    # the closed-form counting function equals the generic greedy threshold
    # of the measured min-max requirement matrix, which for l >= 3 has
    # per-row 4(w-2) entries of 2t and w^2-5w+7 entries of 2t-1 (for w >= 4
    # the 2t-1 set includes index-disjoint pairs, not only the swapped
    # partner; at l = 2 pigeonhole on block values thins the profile)
    spec = functions.minmax_spec(w, 3)
    generic = bounds.gv_irregular_threshold(fcc.function_distance_matrix(spec, t))
    assert bounds.minmax_gv_upper(w, t) == generic


# --- classical split-route estimates ---------------------------------------------


def test_ecc_on_data_frozen():
    assert bounds.ecc_on_data_redundancy(2, 1) == 2
    assert bounds.ecc_on_data_redundancy(1024, 1) == 11


@pytest.mark.parametrize("k", [128, 1024, 16384])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_ecc_on_data_fixed_point(k, t):
    # these sizes land exactly on r = t ceil(log2(k + r))
    r = bounds.ecc_on_data_redundancy(k, t)
    assert r == t * math.ceil(math.log2(k + r))
    expected = {128: 8, 1024: 11, 16384: 15}[k] * t
    assert r == expected


@given(st.integers(min_value=1, max_value=100000), st.integers(min_value=1, max_value=5))
def test_ecc_on_data_is_least_fixed_point(k, t):
    r = bounds.ecc_on_data_redundancy(k, t)
    need = (k + r - 1).bit_length() if k + r > 1 else 0
    assert r >= t * need
    # minimality: one less would violate the requirement
    if r > 0:
        smaller = r - 1
        need2 = (k + smaller - 1).bit_length() if k + smaller > 1 else 0
        assert smaller < t * need2


def test_ecc_on_function_values_frozen():
    assert bounds.ecc_on_function_values_redundancy(2, 1) == 1
    assert bounds.ecc_on_function_values_redundancy(1 << 20, 1) == 25


def test_ecc_on_function_values_structure():
    # ceil(log2 E) message bits plus redundancy for them
    e, t = 1000, 2
    r = bounds.ecc_on_function_values_redundancy(e, t)
    base = math.ceil(math.log2(e))
    alt = r - base
    assert alt == t * math.ceil(math.log2(base + alt))
