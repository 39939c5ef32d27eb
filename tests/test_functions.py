"""Function families and their dedicated encoders.

The families with a whole-space table builder are checked against
tabulating their `fn` message by message, and `locally_binary_encoder`
against `reference_locally_binary_parities`, which reads each message's
indicator bit off its function ball. `locally_binary_decode`, the paper's
majority-vote decoder for that encoder, is an oracle for `fcc.decode`.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from fcodes import construct, fcc, functions
from fcodes.bits import (
    BitWord,
    Code,
    all_words,
    hamming_distance,
    satisfies_distance_matrix,
)
from fcodes.functions import MinMaxValue
from fcodes.simulate import ChannelModel, error_patterns, simulate

# --- basic families -----------------------------------------------------------


def test_wt_spec_values():
    spec = functions.wt_spec(5)
    assert spec.eval(BitWord.from_string("10110")) == 3
    assert spec.image == (0, 1, 2, 3, 4, 5)


def test_parity_or_constant():
    assert functions.parity_spec(4).eval(BitWord.from_string("1101")) == 1
    assert functions.or_spec(4).eval(BitWord.from_string("0000")) == 0
    assert functions.or_spec(4).eval(BitWord.from_string("0100")) == 1
    assert functions.constant_spec(4).expressiveness == 1


def test_delta_spec_blocks():
    spec = functions.delta_spec(9, 5)
    # floor(wt/5) over 9 bits: values 0 and 1
    assert spec.image == (0, 1)
    assert spec.eval(BitWord.from_string("111110000")) == 1
    assert spec.eval(BitWord.from_string("111100000")) == 0


def test_indicator_spec_membership():
    code = Code.from_strings(["000", "111"])
    spec = functions.indicator_spec(code)
    assert spec.eval(BitWord.from_string("111")) == 2  # 1-based codeword index
    assert spec.eval(BitWord.from_string("101")) == 0


# --- whole-space tables against tabulating fn ---------------------------------------


def tabulated(spec: fcc.FunctionSpec) -> list[int]:
    return [spec.index_of(spec.fn(u)) for u in range(1 << spec.k)]


# the weight families defined on the message itself: an oracle independent of
# the weight rule that gives both their fn and their table
WEIGHT_FAMILIES = {
    functions.wt_spec: lambda u: u.bit_count(),
    functions.parity_spec: lambda u: u.bit_count() & 1,
    functions.or_spec: lambda u: 1 if u else 0,
    functions.constant_spec: lambda u: 0,
}


def assert_matches_oracle(spec: fcc.FunctionSpec, oracle) -> None:
    want = [oracle(u) for u in range(1 << spec.k)]
    assert list(map(spec.fn, range(1 << spec.k))) == want
    assert list(spec.index_table) == list(map(spec.index_of, want)) == tabulated(spec)


@pytest.mark.parametrize("make", list(WEIGHT_FAMILIES))
@pytest.mark.parametrize("k", range(1, 13))
def test_weight_family_tables_match_fn(make, k):
    spec = make(k)
    assert spec.bulk_table is not None
    assert_matches_oracle(spec, WEIGHT_FAMILIES[make])


@pytest.mark.parametrize("k", [1, 4, 7, 10, 12])
def test_delta_tables_match_fn(k):
    for T in range(1, k + 2):
        assert_matches_oracle(functions.delta_spec(k, T), lambda u: u.bit_count() // T)


def test_minmax_tables_match_fn():
    layouts = [(w, l) for w in range(2, 7) for l in range(2, 7) if w * l <= 12]
    assert len(layouts) == 12
    for w, l in layouts:
        spec = functions.minmax_spec(w, l)
        assert spec.bulk_table is not None
        assert list(spec.index_table) == tabulated(spec), (w, l)
    # every tie kind occurs: all blocks equal, a tied minimum, a tied maximum
    assert functions.minmax_spec(3, 2).eval(BitWord.from_string("010101")) == MinMaxValue(1, 3)
    assert functions.minmax_spec(3, 2).eval(BitWord.from_string("110101")) == MinMaxValue(2, 1)
    assert functions.minmax_spec(3, 2).eval(BitWord.from_string("110011")) == MinMaxValue(2, 3)


@pytest.mark.parametrize("name", [
    "wt:k=9", "parity:k=9", "or:k=9", "constant:k=9", "delta_T:k=9,T=4", "minmax:w=3,l=3",
    "ml:tanh,k=7,eps=3/10", "ml:relu,k=8,eps=1", "ml:sigmoid,k=10,eps=1/32",
])
def test_family_index_tables_are_compact(name):
    # one byte per message up to 256 values, else a read-only view of 32-bit
    # ints (sigmoid at eps=1/32 has 642 values), equal to tabulating fn
    assert_compact(fcc.spec_from_string(name))


def test_indicator_index_tables_are_compact():
    # the generic fn path: a partial cover has few values, the full cover 512
    assert_compact(functions.indicator_spec(Code.from_strings(["000000000", "111111111"])))
    assert_compact(functions.indicator_spec(Code.of(all_words(9))))


def assert_compact(spec: fcc.FunctionSpec) -> None:
    table = spec.index_table
    if spec.expressiveness <= 256:
        assert type(table) is bytes
    else:
        assert type(table) is memoryview and table.readonly and table.format == "I"
    assert list(table) == tabulated(spec)


def test_minmax_blocks_beyond_a_byte_tabulate_fn():
    spec = functions.minmax_spec(2, 9)
    assert spec.bulk_table is None


# --- weight requirement matrix: closed form vs generic route ---------------------


@pytest.mark.parametrize("k,t", [(4, 1), (6, 2), (8, 1), (5, 3)])
def test_wt_requirement_matrix_matches_generic(k, t):
    direct = functions.wt_requirement_matrix(k, t)
    spec = functions.wt_spec(k)
    generic = fcc.function_distance_matrix(spec, t)
    assert direct == generic


def test_wt_requirement_matrix_entries():
    d = functions.wt_requirement_matrix(6, 2)
    for i in range(7):
        for j in range(7):
            want = max(5 - abs(i - j), 0) if i != j else 0
            assert d.at(i, j) == want


# --- construction 1: cyclic weight parities ---------------------------------------


WT_BASE_LENGTHS = {
    1: 3, 2: 6, 3: 14, 4: 16, 5: 26, 6: 28, 7: 30, 8: 32, 9: 50, 10: 52, 11: 54, 12: 56
}


@pytest.mark.parametrize("t", sorted(WT_BASE_LENGTHS))
def test_wt_parity_base_offset_profile(t):
    # weights at gap delta <= 2t reuse base words at cyclic offset delta, so
    # the base must keep distance >= 2t+1-delta at every such offset; the
    # lengths are 3 and 6 for the hand-picked bases, n/2 + 2t beyond
    base = functions._wt_parity_base(t)
    assert base.length == WT_BASE_LENGTHS[t]
    period = base.size
    assert period >= 2 * t + 1
    for a in range(period):
        for delta in range(1, 2 * t + 1):
            need = 2 * t + 1 - delta
            assert hamming_distance(base[a], base[(a + delta) % period]) >= need


def test_wt_parity_base_builds_without_search():
    # every base up to t = 12 is built outright; a search behind any t (the
    # old first-fit build took half a minute at t = 7) would show here
    start = time.perf_counter()
    for t in WT_BASE_LENGTHS:
        functions._wt_parity_base(t)
    assert time.perf_counter() - start < 1.0


def test_wt_parity_base_words():
    # the hand-picked bases stay as they are, and where 4t is a power of two
    # nothing is cut: the base is the Hadamard code's first 2t+1 words
    assert [str(w) for w in functions._wt_parity_base(1)] == ["000", "110", "011"]
    assert [str(w) for w in functions._wt_parity_base(2)] == [
        "000000", "110011", "001111", "111100",
        "000001", "110010", "001110", "111101",
    ]
    for t in (4, 8):
        hadamard = construct.hadamard_code(2 * t)
        assert functions._wt_parity_base(t).words == hadamard.words[: 2 * t + 1]


@pytest.mark.parametrize("t", [3, 4, 5, 6])
def test_wt_cyclic_encoder_verified_beyond_t2(t):
    for k in range(t + 1, 11):
        enc = functions.wt_cyclic_encoder(k, t)
        assert enc.r == WT_BASE_LENGTHS[t]
        assert fcc.verify_fcc(enc).ok, k


@pytest.mark.parametrize("t,k", [(1, k) for k in range(2, 13)])
def test_wt_cyclic_encoder_t1_all_k(t, k):
    enc = functions.wt_cyclic_encoder(k, t)
    assert enc.r == 3
    parities = [enc.parities[w] for w in range(k + 1)]
    code = Code.of(parities)
    ok, witness = satisfies_distance_matrix(code, functions.wt_requirement_matrix(k, t))
    assert ok, witness


@pytest.mark.parametrize("k", range(3, 13))
def test_wt_cyclic_encoder_t2_all_k(k):
    enc = functions.wt_cyclic_encoder(k, 2)
    assert enc.r == 6
    code = Code.of([enc.parities[w] for w in range(k + 1)])
    ok, witness = satisfies_distance_matrix(code, functions.wt_requirement_matrix(k, 2))
    assert ok, witness


@pytest.mark.parametrize("k", [4, 7, 12])
def test_wt_cyclic_encoder_t3(k):
    enc = functions.wt_cyclic_encoder(k, 3)
    code = Code.of([enc.parities[w] for w in range(k + 1)])
    ok, witness = satisfies_distance_matrix(code, functions.wt_requirement_matrix(k, 3))
    assert ok, witness


def test_wt_cyclic_encoder_verified_exhaustively():
    assert fcc.verify_fcc(functions.wt_cyclic_encoder(8, 1)).ok
    assert fcc.verify_fcc(functions.wt_cyclic_encoder(9, 2)).ok


def test_wt_cyclic_encoder_guards():
    with pytest.raises(ValueError):
        functions.wt_cyclic_encoder(1, 1)  # k must exceed t
    with pytest.raises(ValueError):
        functions.wt_cyclic_encoder(5, 0)


# --- construction 2: threshold ramp ------------------------------------------------


def test_delta_ramp_parities_follow_residue():
    enc = functions.delta_ramp_encoder(8, 3, 1)
    # residue 0 -> 00, 1 -> 10, 2 -> 11 (capped at 2t ones)
    by_weight = {}
    for u in all_words(8):
        by_weight.setdefault(u.weight() % 3, set()).add(str(enc.parity(u)))
    assert by_weight == {0: {"00"}, 1: {"10"}, 2: {"11"}}


@pytest.mark.parametrize("k,T,t", [(1, 3, 1), (8, 3, 1), (11, 7, 3), (12, 5, 2)])
def test_delta_ramp_parities_match_per_message_weights(k, T, t):
    enc = functions.delta_ramp_encoder(k, T, t)
    r = 2 * t
    ramp = [BitWord.ones(min(c, r)).concat(BitWord.zeros(r - min(c, r))) for c in range(T)]
    assert enc.parities == tuple(ramp[u.bit_count() % T] for u in range(1 << k))


def test_delta_ramp_builds_past_k16_and_passes_sampled_verify():
    # words plus a weight-derived key: no 2^k parity tuple, so k = 20 builds
    enc = functions.delta_ramp_encoder(20, 5, 2)
    assert (enc.words, len(enc.message_key)) == ((0b0000, 0b1000, 0b1100, 0b1110, 0b1111), 1 << 20)
    assert "parities" not in enc.__dict__ and "parity_ints" not in enc.__dict__
    res = fcc.verify_fcc(enc, sample=2000, seed=1)
    assert res.ok and res.route == "sampled" and res.pairs_checked > 0
    with pytest.raises(ValueError):
        functions.delta_ramp_encoder(25, 5, 2)  # past index_table's k = 24


@pytest.mark.parametrize("k,T,t", [(8, 3, 1), (9, 5, 2)])
def test_delta_ramp_exhaustive_verify(k, T, t):
    enc = functions.delta_ramp_encoder(k, T, t)
    assert enc.r == 2 * t
    assert enc.mode == fcc.PER_MESSAGE
    assert fcc.verify_fcc(enc).ok


def test_delta_ramp_needs_wide_blocks():
    with pytest.raises(ValueError):
        functions.delta_ramp_encoder(8, 2, 1)  # needs 2t+1 <= T


# --- locally binary -----------------------------------------------------------------


def test_locally_binary_encoder_requires_certificate():
    with pytest.raises(ValueError) as err:
        functions.locally_binary_encoder(functions.wt_spec(4), 1)
    assert "0000" in str(err.value)  # failing message is reported


def test_locally_binary_encoder_delta():
    spec = functions.delta_spec(9, 5)
    enc = functions.locally_binary_encoder(spec, 1)
    assert enc.r == 2
    assert fcc.verify_fcc(enc).ok


def reference_locally_binary_parities(spec: fcc.FunctionSpec, t: int) -> tuple[BitWord, ...]:
    """Per message, 1^2t when f(u) is the largest value in u's radius-2t ball."""
    out = []
    for u in all_words(spec.k):
        top = max(fcc.function_ball(spec, u, 2 * t))
        out.append(BitWord.ones(2 * t) if spec.eval(u) == top else BitWord.zeros(2 * t))
    return tuple(out)


def _banded_spec(rng: random.Random, k: int, t: int) -> fcc.FunctionSpec:
    """A function of the weight, constant on bands at least 4t+1 weights wide
    (so 2t-locally binary), with shuffled labels: neither the image order nor
    the weight order is the values' own order."""
    cuts = [rng.randint(1, 3)]
    while len(cuts) < 3:
        cuts.append(cuts[-1] + 4 * t + 1 + rng.randint(0, 2))
    cuts = [c for c in cuts if c <= k]
    labels = rng.sample("abcdef", len(cuts) + 1)
    band = [sum(w >= c for c in cuts) for w in range(k + 1)]
    image = rng.sample(labels, len(labels))
    return fcc.FunctionSpec(k, lambda u: labels[band[u.bit_count()]], image)


def test_locally_binary_encoder_matches_function_balls():
    rng = random.Random(808)
    tried = 0
    for _ in range(60):
        if rng.random() < 0.5:
            t = rng.randint(1, 2)
            k = rng.randint(4 * t + 2, 10)
            spec = _banded_spec(rng, k, t)
        else:  # any function with at most two values is locally binary
            k, t = rng.randint(1, 8), rng.randint(1, 3)
            e = rng.randint(1, min(2, 1 << k))
            table = list(range(e)) + [rng.randrange(e) for _ in range((1 << k) - e)]
            rng.shuffle(table)
            spec = fcc.FunctionSpec(k, table.__getitem__, rng.sample(range(e), e))
        enc = functions.locally_binary_encoder(spec, t)
        assert enc.parities == reference_locally_binary_parities(spec, t)
        assert fcc.verify_fcc(enc).ok
        tried += spec.expressiveness >= 3
    assert tried >= 10, tried


def locally_binary_decode(spec: fcc.FunctionSpec, t: int, y: BitWord):
    """Recover f(u) from a received (u, p) pair of the repetition encoder.

    If every message within distance t of the received message already agrees
    on f, that value is the answer regardless of the parity bits. Otherwise
    the ball holds exactly two values and the majority of the 2t+1 indicator
    bits — the receiver's own recomputed bit plus the 2t received ones —
    says whether to take the larger or the smaller.
    """
    k = spec.k
    if y.length != k + 2 * t:
        raise ValueError(f"received length {y.length}, expected {k + 2 * t}")
    u, p = y.split(k)
    ball_t = fcc.function_ball(spec, u, t)
    if len(ball_t) == 1:
        return next(iter(ball_t))
    ball_2t = fcc.function_ball(spec, u, 2 * t)
    own = 1 if spec.eval(u) == max(ball_2t) else 0
    votes = own + p.weight()
    return max(ball_t) if votes >= t + 1 else min(ball_t)


def test_locally_binary_decode_all_patterns():
    # the majority-vote decoder above and the nearest-codeword `fcc.decode`
    # both recover f(u) under every pattern of weight <= t
    spec = functions.delta_spec(7, 5)
    t = 1
    enc = functions.locally_binary_encoder(spec, t)
    for u in all_words(7):
        c = enc.encode(u)
        for pattern in error_patterns(c.length, t):
            assert locally_binary_decode(spec, t, c ^ pattern) == spec.eval(u)
            assert fcc.decode(enc, c ^ pattern).value == spec.eval(u)


def test_locally_binary_decode_length_check():
    spec = functions.delta_spec(7, 5)
    with pytest.raises(ValueError):
        locally_binary_decode(spec, 1, BitWord.zeros(7))
    with pytest.raises(ValueError):
        fcc.decode(functions.locally_binary_encoder(spec, 1), BitWord.zeros(7))


def test_locally_binary_indicator_roundtrip():
    # indicator of RM(1,3) has distance 4, hence 1-locally binary; t=... use
    # rho = 2t with t=0 impossible, so certify at rho=1 and run the t=...
    # decoder only where 2t <= 1 fails; instead check the certificate alone
    code = construct.reed_muller_code(1, 3)
    spec = functions.indicator_spec(code)
    ok, _ = fcc.is_locally_binary(spec, 1)
    assert ok


# --- min-max ------------------------------------------------------------------------


def test_minmax_example_from_blocks():
    spec = functions.minmax_spec(3, 3)
    u = BitWord.from_string("100010010")
    assert spec.eval(u) == MinMaxValue(2, 1)


def test_minmax_tie_rules():
    spec = functions.minmax_spec(3, 2)
    # all blocks equal: min takes the first, max takes the last
    assert spec.eval(BitWord.from_string("010101")) == MinMaxValue(1, 3)
    # two-way tie for max between blocks 1 and 2
    assert spec.eval(BitWord.from_string("111100")) == MinMaxValue(3, 2)


def test_minmax_image_is_all_ordered_pairs():
    spec = functions.minmax_spec(3, 2)
    assert spec.expressiveness == 6
    assert set(spec.image) == {
        MinMaxValue(i, j) for i in range(1, 4) for j in range(1, 4) if i != j
    }
    assert list(spec.image) == sorted(spec.image)


@pytest.mark.parametrize("w, l", [(3, 2), (3, 3), (4, 3), (5, 3), (4, 4)])
def test_minmax_claims_hold(w, l):
    # distance 2 at w >= 4 also joins index-disjoint pairs: the check must
    # not read it as a swap
    oracle = functions.minmax_distance_oracle(functions.minmax_spec(w, l))
    assert oracle.claims_hold(1) and oracle.claims_hold(2)


@pytest.mark.parametrize("w", [4, 5])
def test_minmax_claims_fail_on_two_bit_blocks(w):
    # with l = 2 the neighbour counts spread ({6, 8} at w = 4)
    oracle = functions.minmax_distance_oracle(functions.minmax_spec(w, 2))
    assert len(set(oracle.neighbor_counts)) > 1
    assert not oracle.claims_hold(1)


def test_minmax_claims_need_a_positive_budget():
    with pytest.raises(ValueError):
        functions.minmax_distance_oracle(functions.minmax_spec(3, 2)).claims_hold(0)


def test_minmax_needs_two_bit_blocks():
    with pytest.raises(ValueError):
        functions.minmax_spec(3, 1)  # l = 1 cannot realize all ordered pairs


@pytest.mark.parametrize("w", [3, 4])
def test_minmax_oracle_structure(w):
    oracle = functions.minmax_distance_oracle(functions.minmax_spec(w, 3))
    d = oracle.distances
    assert d.max_entry == 2
    assert all(c == 4 * (w - 2) for c in oracle.neighbor_counts)
    # swapped pairs always sit at distance 2; for w >= 4 index-disjoint
    # pairs join them, for a per-row total of w^2-5w+7 distance-2 entries
    for i in range(d.dim):
        row_2s = 0
        for j in range(d.dim):
            if i == j:
                continue
            vi, vj = oracle.spec.image[i], oracle.spec.image[j]
            swapped = (vi.argmin_index, vi.argmax_index) == (
                vj.argmax_index,
                vj.argmin_index,
            )
            shared = {vi.argmin_index, vi.argmax_index} & {
                vj.argmin_index,
                vj.argmax_index,
            }
            if swapped:
                assert d.at(i, j) == 2
            elif d.at(i, j) == 2:
                assert not shared  # only disjoint pairs can be this far
            row_2s += d.at(i, j) == 2
        assert row_2s == w * w - 5 * w + 7


def test_minmax_requirement_totals_w3():
    spec = functions.minmax_spec(3, 3)
    req = fcc.function_distance_matrix(spec, 1)
    total_2t = sum(
        1
        for i in range(req.dim)
        for j in range(req.dim)
        if i != j and req.at(i, j) == 2
    )
    assert total_2t == 4 * 3 * 2 * 1  # 4w(w-1)(w-2)


def test_minmax_parity_encoder_w3():
    enc = functions.minmax_parity_encoder(3, 3, 1)
    assert enc.r == 4
    assert fcc.verify_fcc(enc).ok


def test_minmax_parity_encoder_w2():
    enc = functions.minmax_parity_encoder(2, 3, 1)
    assert enc.r == 2
    assert fcc.verify_fcc(enc).ok


def test_minmax_parity_redundancy_formula():
    for w, t in [(2, 1), (3, 1), (3, 2), (4, 1)]:
        e = w * (w - 1)
        width = (e - 1).bit_length() + 1
        enc = functions.minmax_parity_encoder(w, 2, t)
        assert enc.r == t * width


def test_minmax_rm_encoder_parameters():
    assert functions.minmax_rm_encoder(3, 2).r == 8
    assert functions.minmax_rm_encoder(3, 1).r == 4
    assert functions.minmax_rm_encoder(2, 1).r == 2


def test_minmax_rm_encoder_verifies():
    assert fcc.verify_fcc(functions.minmax_rm_encoder(3, 1)).ok
    enc = functions.minmax_rm_encoder(3, 2)
    assert fcc.verify_fcc(enc, sample=1500, seed=5).ok  # k=9, exhaustive is fine too
    assert fcc.verify_fcc(enc).ok


def test_minmax_ordering_is_total():
    # MinMaxValue sorts like a pair of ints, so matrix indexing is stable
    vals = [MinMaxValue(2, 1), MinMaxValue(1, 3), MinMaxValue(1, 2)]
    assert sorted(vals) == [MinMaxValue(1, 2), MinMaxValue(1, 3), MinMaxValue(2, 1)]


# --- simulation wiring --------------------------------------------------------------


def test_simulate_exhaustive_counts():
    enc = functions.wt_cyclic_encoder(5, 1)
    report = simulate(enc, ChannelModel(t=1, mode="exhaustive"))
    # 2^5 messages times (1 + 8 single-bit patterns)
    assert report.trials == 32 * 9
    assert report.failures == 0
    assert report.witness is None


def test_simulate_random_reproducible():
    enc = functions.wt_cyclic_encoder(6, 1)
    a = simulate(enc, ChannelModel(t=1, mode="random", seed=11, trials=200))
    b = simulate(enc, ChannelModel(t=1, mode="random", seed=11, trials=200))
    assert (a.trials, a.failures) == (b.trials, b.failures) == (200, 0)


def test_simulate_detects_broken_encoder():
    enc = functions.wt_cyclic_encoder(4, 1)
    bad = fcc.FccEncoder(enc.spec, enc.t, enc.r, (enc.words[1],) + enc.words[1:])
    report = simulate(bad, ChannelModel(t=1, mode="exhaustive"))
    assert report.failures > 0
    u, pattern, got, expected = report.witness
    assert got != expected


def test_simulate_channel_beyond_design_budget():
    enc = functions.wt_cyclic_encoder(5, 1)
    report = simulate(enc, ChannelModel(t=3, mode="exhaustive"))
    assert report.failures > 0  # three substitutions exceed what r=3 protects


def test_error_patterns_enumeration():
    pats = list(error_patterns(3, 2))
    assert [str(p) for p in pats] == ["000", "100", "010", "001", "110", "101", "011"]


# --- registry builders ----------------------------------------------------------------


def test_registry_minmax_consistency_check():
    with pytest.raises(ValueError):
        fcc.spec_from_string("minmax:w=3,l=3,k=8")  # k must equal w*l


def test_registry_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        fcc.spec_from_string("wt:k=4,bogus=1")


def test_registry_hands_builders_only_their_family_keys():
    assert fcc.spec_keys("delta_T") == {"k", "T"}
    spec = fcc.spec_from_string("wt", defaults={"k": "4", "T": "3", "path": "x"})
    assert spec.k == 4
    with pytest.raises(ValueError, match="takes no parameter 'T'"):
        fcc.spec_from_string("wt:k=4,T=3")


def test_registry_tolerates_t_parameter():
    # configs carry t for the whole pipeline; spec builders ignore it
    spec = fcc.spec_from_string("wt:k=4,t=2")
    assert spec.k == 4


def test_registry_indicator_from_file(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(construct.reed_muller_code(1, 3).to_text())
    spec = fcc.spec_from_string(f"indicator:path={path},k=8")
    assert spec.k == 8
    assert spec.eval(BitWord.zeros(8)) != 0


def test_registry_indicator_k_mismatch(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text(construct.reed_muller_code(1, 3).to_text())
    with pytest.raises(ValueError):
        fcc.spec_from_string(f"indicator:path={path},k=9")
