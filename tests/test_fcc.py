"""Core function-correcting machinery: specs, distances, encoders, decoding.

`naive_verify` below re-checks the defining distance condition with a plain
double loop over all message pairs. It shares no code with `verify_fcc`
(which grows (value, parity) classes of messages towards each other, and
runs a bit-plane kernel over difference vectors for a witness or when the
classes are too many) and exists so the two can disagree if either is wrong.
`reference_message_verify` is the message route as a row-by-row loop, the
oracle for its witness and `pairs_checked`;
`reference_is_locally_binary` scans every message's ball the same way, the
oracle for the mask kernel of `is_locally_binary`. `full_scan_decode` plays
the same part for `decode`: it compares the received word with every
codeword instead of searching shells, and `reference_simulate` for
`simulate`: it decodes every trial through `BitWord` encodes and XORs, as
the channel harness did before it settled trials off the nearest-value
tables of `fcc._nearest_value_masks`. `reference_uniform_sample` is the
sampled route before it drew close pairs: two uniform messages per draw;
`reference_sampled_verify` is the close-pair route one draw at a time,
before it drew messages in bulk and read parities through the value index.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcodes import bounds, construct, fcc, functions
from fcodes import simulate as simulate_mod
from fcodes.bits import BitWord, DistanceMatrix, _shells, all_words, hamming_distance, sphere_size
from fcodes.simulate import ChannelModel, SimulationReport, error_patterns, simulate


def naive_verify(encoder: fcc.FccEncoder) -> tuple[bool, tuple | None]:
    """Quadratic all-pairs check of d(Enc(u1), Enc(u2)) >= 2t+1 when f differs."""
    spec, t = encoder.spec, encoder.t
    words = list(all_words(spec.k))
    for u1, u2 in itertools.combinations(words, 2):
        if spec.eval(u1) == spec.eval(u2):
            continue
        if hamming_distance(encoder.encode(u1), encoder.encode(u2)) < 2 * t + 1:
            return False, (u1, u2)
    return True, None


def _difference_vectors(k: int, max_weight: int) -> list[int]:
    """Every k-bit vector of weight 1..max_weight."""
    return [
        sum(1 << b for b in bits)
        for w in range(1, min(max_weight, k) + 1)
        for bits in itertools.combinations(range(k), w)
    ]


def reference_message_verify(encoder: fcc.FccEncoder) -> tuple[bool, tuple | None, int]:
    """(ok, witness, pairs_checked) of the message route, row by row.

    For each u1 in order, every pair (u1, u1 ^ e) with u1 < u1 ^ e, e of
    weight at most 2t and differing values counts as checked; the first row
    holding a violation ends the scan with the row's smallest violating u2.
    """
    spec, k, t = encoder.spec, encoder.spec.k, encoder.t
    idx, par = spec.index_table, encoder.parity_ints
    diffs = _difference_vectors(k, 2 * t)
    checked = 0
    for u1 in range(1 << k):
        bad = []
        for e in diffs:
            u2 = u1 ^ e
            if u2 <= u1 or idx[u2] == idx[u1]:
                continue
            checked += 1
            if e.bit_count() + (par[u1] ^ par[u2]).bit_count() < 2 * t + 1:
                bad.append(u2)
        if bad:
            return False, (BitWord(u1, k), BitWord(min(bad), k)), checked
    return True, None, checked


def reference_is_locally_binary(spec: fcc.FunctionSpec, rho: int) -> tuple[bool, BitWord | None]:
    """The smallest message whose radius-rho ball sees three values, if any."""
    idx = spec.index_table
    diffs = _difference_vectors(spec.k, rho)
    for u in range(1 << spec.k):
        if len({idx[u]} | {idx[u ^ e] for e in diffs}) > 2:
            return False, BitWord(u, spec.k)
    return True, None


def full_scan_nearest(encoder: fcc.FccEncoder, y: BitWord) -> tuple[int, set[int]]:
    """Distance from y to the nearest codeword, over all 2^k messages, and the
    image indices of every codeword at that distance."""
    spec = encoder.spec
    best_d = y.length + 1
    best_indices: set[int] = set()
    for u in all_words(spec.k):
        d = hamming_distance(encoder.encode(u), y)
        i = spec.index_of(spec.eval(u))
        if d < best_d:
            best_d, best_indices = d, {i}
        elif d == best_d:
            best_indices.add(i)
    return best_d, best_indices


def reference_uniform_sample(encoder: fcc.FccEncoder, sample: int, seed: int) -> tuple[bool, int]:
    """(ok, pairs_checked) of the sampler verify_fcc(sample=) replaced: two
    uniform messages per draw, most of them too far apart to violate."""
    idx, par = encoder.spec.index_table, encoder.parity_ints
    rng = random.Random(seed)
    checked = 0
    for _ in range(sample):
        u1, u2 = rng.randrange(1 << encoder.spec.k), rng.randrange(1 << encoder.spec.k)
        if u1 == u2 or idx[u1] == idx[u2]:
            continue
        checked += 1
        if (u1 ^ u2).bit_count() + (par[u1] ^ par[u2]).bit_count() < 2 * encoder.t + 1:
            return False, checked
    return True, checked


def reference_sampled_verify(encoder: fcc.FccEncoder, sample: int, seed: int) -> fcc.VerifyResult:
    """verify_fcc(sample=, seed=) draw by draw: per batch of 4096, the
    messages by random.choices, then the masks of weight 1..2t, and both
    parities read off the whole 2^k parity table."""
    k, t = encoder.spec.k, encoder.t
    idx, par = encoder.spec.index_table, encoder.parity_ints
    rng = random.Random(seed)
    masks = _difference_vectors(k, 2 * t)
    checked = 0
    for left in range(sample, 0, -4096):
        batch = min(left, 4096)
        for u, e in zip(rng.choices(range(1 << k), k=batch), rng.choices(masks, k=batch)):
            v = u ^ e
            if idx[u] == idx[v]:
                continue
            checked += 1
            if e.bit_count() + (par[u] ^ par[v]).bit_count() < 2 * t + 1:
                lo, hi = sorted((u, v))
                witness = (BitWord(lo, k), BitWord(hi, k))
                return fcc.VerifyResult(False, witness, checked, "sampled")
    return fcc.VerifyResult(True, None, checked, "sampled")


def full_scan_decode(encoder: fcc.FccEncoder, y: BitWord) -> fcc.DecodeResult:
    """The decode contract by brute force: ties go to the smallest image index."""
    d, indices = full_scan_nearest(encoder, y)
    out = d > encoder.t or len(indices) > 1
    return fcc.DecodeResult(encoder.spec.image[min(indices)], out, d)


def reference_simulate(encoder, channel) -> SimulationReport:
    """Every trial through `decode`, in the canonical (message, pattern) order."""
    spec = encoder.spec
    n = encoder.block_length
    msg_list = [BitWord(u, spec.k) for u in range(1 << spec.k)]
    trials = failures = 0
    witness = None

    def run(u, pattern):
        nonlocal trials, failures, witness
        expected = spec.eval(u)
        got = fcc.decode(encoder, encoder.encode(u) ^ pattern)
        trials += 1
        if got.value != expected:
            failures += 1
            if witness is None:
                witness = (u, pattern, got.value, expected)

    if channel.mode == "exhaustive":
        patterns = list(error_patterns(n, channel.t))
        for u in msg_list:
            for pattern in patterns:
                run(u, pattern)
        return SimulationReport(trials, failures, witness, "exhaustive", None)
    rng = random.Random(channel.seed)
    for _ in range(channel.trials):
        u = rng.choice(msg_list)
        wgt = rng.randint(0, min(channel.t, n))
        run(u, BitWord.zeros(n).flip(rng.sample(range(n), wgt) if wgt else []))
    return SimulationReport(trials, failures, witness, "random", channel.seed)


# --- FunctionSpec -------------------------------------------------------------


def test_spec_rejects_unattained_image_value():
    # each image value is its own index, so fn's list is also a bulk table;
    # past 256 values the unattained ones are read off a set
    for image, fn, missing in (([0, 1], lambda u: 0, "[1]"), (range(300), lambda u: u, "[8, 9, ")):
        match = re.escape(f"image values never attained: {missing}")
        for bulk in (None, lambda: list(map(fn, range(8)))):
            with pytest.raises(ValueError, match=match):
                fcc.FunctionSpec(3, fn, image, bulk_table=bulk)


def test_spec_rejects_value_outside_image():
    with pytest.raises(ValueError, match="not in declared image"):
        fcc.FunctionSpec(3, lambda u: u % 3, image=[0, 1])


def test_spec_rejects_duplicate_image():
    for image in ([0, 1, 1], [Fraction(1, 2), 0, Fraction(2, 4)]):
        with pytest.raises(ValueError, match="image contains duplicates"):
            fcc.FunctionSpec(2, lambda u: u % 2, image=image)


@pytest.mark.parametrize("k, e, table", [
    (2, 3, bytes([0, 1, 3, 0])),
    (17, 3, bytes([0, 1, 3, 0]) + bytes((1 << 17) - 4)),
    (9, 300, list(range(300)) + [0] * 211 + [300]),
])
def test_spec_rejects_a_stray_bulk_index(k, e, table):
    # the bulk table names index E: without the check, at k = 2 value 2
    # would pass as attained and message 2 would be in no mask. Above
    # k = 16 the spec validates fn on a sample, and the table is rejected
    # when it is built; past 256 values the table is 32-bit ints
    with pytest.raises(ValueError, match=f"index {e} is beyond the {e}"):
        fcc.FunctionSpec(k, lambda u: u % e, range(e), bulk_table=lambda: table).index_table


@pytest.mark.parametrize("k, e", [(9, 3), (9, 256), (9, 257), (9, 512), (4, 1)])
def test_generic_index_tables_are_compact(k, e):
    # bytes up to 256 values, else a read-only view of 32-bit ints: the
    # layout of a message key; the identity at k = 9 has 512 values
    spec = fcc.FunctionSpec(k, lambda u: u % e, range(e))
    table = spec.index_table
    if e <= 256:
        assert type(table) is bytes
    else:
        assert type(table) is memoryview and table.readonly and table.format == "I"
    assert list(table) == [u % e for u in range(1 << k)]


def test_wt16_spec_holds_its_table_as_one_byte_per_message():
    functions.wt_spec(3)  # imports and first-call caches out of the count
    tracemalloc.start()
    try:
        spec = functions.wt_spec(16)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(spec.index_table) is bytes
    # a list of ints held 8 bytes a message and peaked at nine
    assert held < 5 << 14 and peak < 3 << 16, (held, peak)


@pytest.mark.parametrize("words", [3, 300])
def test_encoder_rejects_a_message_key_beyond_its_words(words):
    spec = functions.wt_spec(9)
    key = [u % words for u in range(512)]
    enc = fcc.FccEncoder(spec, 1, 9, tuple(range(words)), key)
    assert enc.message_key == fcc._compact(key, words)
    assert type(enc.message_key) is (bytes if words <= 256 else memoryview)
    key[-1] = words
    with pytest.raises(ValueError, match=f"index {words} is beyond the {words}"):
        fcc.FccEncoder(spec, 1, 9, tuple(range(words)), key)


def test_spec_index_table_rejects_value_outside_image_above_k16():
    # k > 16 validates a sample only; the full tabulation must still reject
    # the one message the sample misses
    spec = fcc.FunctionSpec(17, lambda u: 1 if u == 12345 else 0, [0])
    with pytest.raises(ValueError, match="not in declared image"):
        spec.index_table


def test_spec_eval_and_index():
    spec = functions.wt_spec(4)
    assert spec.expressiveness == 5
    assert spec.eval(BitWord.from_string("1011")) == 3
    assert spec.index_of(3) == 3
    with pytest.raises(ValueError):
        spec.index_of(99)


def test_spec_index_table_and_preimage_masks_agree():
    spec = functions.parity_spec(3)
    table = spec.index_table
    masks = spec.preimage_masks
    for u in range(8):
        assert (masks[table[u]] >> u) & 1 == 1


@pytest.mark.parametrize("e", [1, 2, 3, 5, 17, 256, 257, 300])
def test_preimage_masks_match_index_table(e):
    # the masks split the whole space on the index table's bit planes; an E
    # that is not a power of two drops the prefixes that only reach E or
    # above, and E > 256 takes planes from a second byte
    rng = random.Random(e)
    table = list(range(e)) + [rng.randrange(e) for _ in range(512 - e)]
    rng.shuffle(table)
    spec = fcc.FunctionSpec(9, table.__getitem__, range(e))
    assert len(spec.preimage_masks) == e
    for i, mask in enumerate(spec.preimage_masks):
        assert mask == sum(1 << u for u in range(512) if table[u] == i)


def test_bit_planes_select_messages_by_bit():
    rng = random.Random(406)
    for width in range(1, 13):
        for size in (1, 8, 1 << 10):
            table = [rng.randrange(1 << width) for _ in range(size)]
            want = [sum(1 << u for u, v in enumerate(table) if v >> b & 1) for b in range(width)]
            assert fcc._bit_planes(table, width) == want, (width, size)


@pytest.mark.parametrize("width", [9, 16, 17, 64, 65, 130])
def test_bit_planes_of_wide_tables_match_the_per_word_reference(width):
    # wider than a byte, the table is read as 64-bit limbs, one byte of each
    # limb at a time; above 64 bits, one limb of every word at a time
    rng = random.Random(width)
    for size in (1, 8, 100, 1 << 9):
        table = [rng.randrange(1 << width) for _ in range(size)]
        table[0] = (1 << width) - 1  # every plane holds word 0
        want = [sum(1 << u for u, v in enumerate(table) if v >> b & 1) for b in range(width)]
        assert fcc._bit_planes(table, width) == want, size


# --- requirement matrices -------------------------------------------------------


def test_requirement_matrix_weight_example():
    # wt on k=6 at t=2: representatives of weights 0..6 give requirement
    # max(5 - |i-j|, 0) off the diagonal
    spec = functions.wt_spec(6)
    reps = [BitWord((1 << w) - 1, 6) for w in range(7)]
    d = fcc.distance_requirement_matrix(spec, 2, reps)
    expected = functions.wt_requirement_matrix(6, 2)
    assert d == expected
    assert d.entries[0][:4] == (0, 4, 3, 2)


def test_requirement_matrix_zero_when_values_agree():
    spec = functions.parity_spec(3)
    us = [BitWord.from_string("000"), BitWord.from_string("011")]
    d = fcc.distance_requirement_matrix(spec, 2, us)
    assert d.at(0, 1) == 0


def test_requirement_matrix_rejects_duplicates():
    spec = functions.parity_spec(3)
    u = BitWord.from_string("101")
    with pytest.raises(ValueError):
        fcc.distance_requirement_matrix(spec, 1, [u, u])


def test_requirement_matrix_rejects_a_value_outside_the_image():
    # k > 16 validates the image on a sample that misses u = 12345; the
    # matrix compares image indices, so that message's value is rejected
    spec = fcc.FunctionSpec(17, lambda u: 1 if u == 12345 else 0, [0])
    us = [BitWord(0, 17), BitWord(12345, 17)]
    with pytest.raises(ValueError, match="not in image"):
        fcc.distance_requirement_matrix(spec, 1, us)


def reference_distance_requirement_matrix(spec, t, us) -> DistanceMatrix:
    """Every entry from the formula, values compared as values."""
    need = 2 * t + 1
    vals = [(u.value, spec.fn(u.value)) for u in us]
    return DistanceMatrix.from_rows(
        [[0 if i == j or fi == fj else max(need - (vi ^ vj).bit_count(), 0)
          for j, (vj, fj) in enumerate(vals)]
         for i, (vi, fi) in enumerate(vals)]
    )


def reference_function_distance_matrix(spec, t) -> DistanceMatrix:
    """Every entry from the formula over the value distances."""
    need = 2 * t + 1
    return DistanceMatrix.from_rows(
        [[max(need - d, 0) if i != j else 0 for j, d in enumerate(row)]
         for i, row in enumerate(fcc.value_distances(spec, 2 * t))]
    )


# the functions of the benchmark's design studies, one per (family, k) slot
DESIGN_SPECS = [
    *[f"wt:k={k}" for k in range(6, 14)],
    *[f"delta_T:k={k},T={T}" for k, T in ((6, 2), (7, 3), (8, 5), (9, 4), (10, 9), (12, 7))],
    "minmax:w=3,l=2", "minmax:w=4,l=2", "minmax:w=3,l=3", "minmax:w=4,l=3", "minmax:w=5,l=2",
    "ml:sigmoid,k=6,eps=1", "ml:tanh,k=6,eps=3/5", "ml:sigmoid,k=7,eps=1/2",
    "ml:tanh,k=7,eps=3/10", "ml:sigmoid,k=8,eps=1/4", "ml:tanh,k=8,eps=3/20",
    "ml:relu,k=6,eps=1/2", "ml:relu,k=7,eps=1/4",
]


def _assert_matrices_match_the_formulas(spec, rng):
    n = 1 << spec.k
    reps = [BitWord((m & -m).bit_length() - 1, spec.k) for m in spec.preimage_masks]
    subset = [BitWord(u, spec.k) for u in rng.sample(range(n), min(n, 40))]
    for t in (1, 2):
        assert fcc.function_distance_matrix(spec, t) == reference_function_distance_matrix(spec, t)
        for us in (reps, subset):
            got = fcc.distance_requirement_matrix(spec, t, us)
            assert got == reference_distance_requirement_matrix(spec, t, us), (spec.name, t)


@pytest.mark.parametrize("name", DESIGN_SPECS)
def test_requirement_matrices_match_the_formulas_on_design_specs(name):
    _assert_matrices_match_the_formulas(fcc.spec_from_string(name), random.Random(name))


def test_requirement_matrices_match_the_formulas_on_random_specs():
    rng = random.Random(1213)
    for _ in range(60):
        k = rng.randint(1, 7)
        spec = _random_spec(rng, k) if rng.random() < 0.5 else _shuffled_spec(
            rng, k, rng.randint(1, min(1 << k, 12)))
        _assert_matrices_match_the_formulas(spec, rng)


# --- function distance -----------------------------------------------------------


@given(st.integers(min_value=2, max_value=8))
def test_function_distance_weight_is_index_gap(k):
    rows = fcc.value_distances(functions.wt_spec(k), k)
    for a in range(k + 1):
        for b in range(k + 1):
            assert rows[a][b] == abs(b - a)


def test_function_distance_minmax_example():
    spec = functions.minmax_spec(3, 3)
    rows = fcc.value_distances(spec, spec.k)
    v12, v13, v21 = (spec.index_of(functions.MinMaxValue(*v)) for v in ((1, 2), (1, 3), (2, 1)))
    assert rows[v12][v13] == 1
    assert rows[v12][v21] == 2


def reference_value_distances(spec, max_d):
    """The one-sided shell search value_distances replaced: each value's
    ball grows shell by shell from radius 0 until every later value is
    reached or max_d is passed."""
    masks = spec.preimage_masks
    e = len(masks)
    rows = [[0] * e for _ in range(e)]
    for i in range(e - 1):
        pending = range(i + 1, e)
        for d, ball in enumerate(itertools.islice(_shells(masks[i], spec.k), max_d + 1)):
            still = []
            for j in pending:
                if ball & masks[j]:
                    rows[i][j] = rows[j][i] = d
                else:
                    still.append(j)
            pending = still
            if not pending:
                break
        for j in pending:
            rows[i][j] = rows[j][i] = max_d + 1
    return rows


def test_value_distances_at_every_cap_match_brute_force():
    # both parities of the cap (an odd cap ends on a half round), caps past
    # k, and functions whose pairs all resolve early (the search stops)
    rng = random.Random(1517)
    for _ in range(40):
        k = rng.randint(1, 9)
        spec = _shuffled_spec(rng, k, rng.randint(1, min(1 << k, 7)))
        pre = [[u for u in range(1 << k) if spec.index_table[u] == i]
               for i in range(spec.expressiveness)]
        raw = [[min((a ^ b).bit_count() for a in pi for b in pj) for pj in pre] for pi in pre]
        for max_d in range(k + 3):
            want = [[min(d, max_d + 1) for d in row] for row in raw]
            assert fcc.value_distances(spec, max_d) == want, (k, max_d)
            assert reference_value_distances(spec, max_d) == want, (k, max_d)


REGISTRY_SPECS = [
    *[f"{name}:k={k}" for name in ("wt", "parity", "or", "constant") for k in (1, 2, 5, 12)],
    *[name for name in DESIGN_SPECS if fcc.spec_from_string(name).k <= 12],
]


@pytest.mark.parametrize("name", REGISTRY_SPECS)
def test_value_distances_match_the_one_sided_search_on_families(name):
    spec = fcc.spec_from_string(name)
    for max_d in range(spec.k + 3):
        assert fcc.value_distances(spec, max_d) == reference_value_distances(spec, max_d), max_d


def test_function_distance_matrix_requirements():
    spec = functions.parity_spec(3)
    d = fcc.function_distance_matrix(spec, 1)
    # adjacent parities differ at distance 1, so the requirement is 2t+1-1 = 2
    assert d == DistanceMatrix.from_rows([[0, 2], [2, 0]])


def _random_spec(rng: random.Random, k: int) -> fcc.FunctionSpec:
    """A random function on k-bit messages with up to 6 values."""
    e = rng.randint(1, min(1 << k, 6))
    table = [rng.randrange(e) for _ in range(1 << k)]
    return fcc.FunctionSpec(k, table.__getitem__, sorted(set(table)))


def test_function_distance_matrix_matches_brute_force_min():
    rng = random.Random(31)
    for _ in range(60):
        spec = _random_spec(rng, rng.randint(1, 7))
        pre = [[u for u in range(1 << spec.k) if spec.index_table[u] == i]
               for i in range(spec.expressiveness)]
        raw = [[min((a ^ b).bit_count() for a in pi for b in pj) for pj in pre] for pi in pre]
        assert fcc.value_distances(spec, spec.k) == raw
        for t in (1, 2, 3):
            want = [[max(2 * t + 1 - d, 0) if i != j else 0 for j, d in enumerate(row)]
                    for i, row in enumerate(raw)]
            assert fcc.function_distance_matrix(spec, t).entries == tuple(map(tuple, want))


# --- encoders and verification -----------------------------------------------------


def test_encoder_systematic_shape():
    enc = functions.wt_cyclic_encoder(5, 1)
    u = BitWord.from_string("11010")
    c = enc.encode(u)
    assert c.length == enc.block_length == 5 + enc.r
    left, right = c.split(5)
    assert left == u
    assert right == enc.parity(u)


def test_verify_matches_naive_oracle_on_good_and_bad():
    enc = functions.wt_cyclic_encoder(6, 1)
    good = fcc.verify_fcc(enc)
    assert good.ok and (good.route, good.mode) == ("class", "exhaustive")
    assert naive_verify(enc)[0]

    # break it: give weight-0 and weight-1 identical parities
    bad = fcc.FccEncoder(enc.spec, enc.t, enc.r, (enc.words[1],) + enc.words[1:])
    mine = fcc.verify_fcc(bad)
    theirs_ok, theirs_witness = naive_verify(bad)
    assert not mine.ok and not theirs_ok
    assert mine.witness == theirs_witness  # both scan in lexicographic order
    assert (mine.route, mine.mode) == ("message-level", "exhaustive")


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=2))
def test_verify_agrees_with_naive_on_theorem2_encoders(k, t):
    spec = functions.wt_spec(k)
    enc = fcc.build_function_value_encoder(spec, t)
    assert bool(fcc.verify_fcc(enc)) == naive_verify(enc)[0]


def test_verify_per_value_route_matches_message_loop_on_random_encoders():
    # the class check of a per-value encoder must give the verdict of the
    # all-pairs oracle and, on a violation, the witness of the per-message
    # difference-vector loop
    rng = random.Random(4099)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        spec = _random_spec(rng, rng.randint(2, 7))
        t, r = rng.randint(1, 3), rng.randint(0, 5)
        enc = fcc.FccEncoder(spec, t, r, tuple(rng.randrange(1 << r) for _ in spec.image))
        res = fcc.verify_fcc(enc)
        ok, witness = naive_verify(enc)
        assert res.ok == ok and res.witness == witness
        by_message = fcc.per_message_encoder(
            spec, t, [BitWord(p, r) for p in enc.parity_ints]
        )
        loop = fcc.verify_fcc(by_message)
        assert (loop.ok, loop.witness) == (res.ok, res.witness)
        if res.ok:
            e = spec.expressiveness
            assert res.pairs_checked == e * (e - 1) // 2
        verdicts[res.ok] += 1
    assert min(verdicts.values()) >= 20, verdicts


def _shuffled_spec(rng: random.Random, k: int, e: int) -> fcc.FunctionSpec:
    """A random function with e values whose image order is shuffled, so it
    differs from the values' own order."""
    table = list(range(e)) + [rng.randrange(e) for _ in range((1 << k) - e)]
    rng.shuffle(table)
    image = list(range(e))
    rng.shuffle(image)
    return fcc.FunctionSpec(k, table.__getitem__, image)


def test_verify_message_route_matches_row_loop_on_random_encoders():
    # verdict, witness and pairs_checked of the mask kernel against the row
    # loop: random per-message tables, random per-value tables, and
    # per-message copies of encoders that pass; verify_fcc's class check
    # gives the same verdict, and a violation's witness and count
    rng = random.Random(7001)
    seen = {"pass": 0, "fail": 0, "r0": 0, "e1": 0, "t3": 0, "wide": 0}
    for case in range(240):
        k, t = rng.randint(1, 7), rng.randint(1, 3)
        e = rng.randint(1, min(1 << k, 6))
        spec = _shuffled_spec(rng, k, e)
        r = rng.choice((0, 1, 2, 3, 4, 6, 9))  # 9: parity planes from two bytes
        if case % 3 == 0:
            enc = fcc.build_function_value_encoder(spec, t)
            enc = fcc.per_message_encoder(
                spec, t, [BitWord(p, enc.r) for p in enc.parity_ints]
            )
        elif case % 3 == 1:
            enc = fcc.FccEncoder(spec, t, r, tuple(rng.randrange(1 << r) for _ in spec.image))
        else:
            enc = fcc.per_message_encoder(
                spec, t, [BitWord(rng.randrange(1 << r), r) for _ in range(1 << k)]
            )
        res = fcc._verify_message_level(enc, t, True)
        assert res.route == "message-level"
        assert (res.ok, res.witness, res.pairs_checked) == reference_message_verify(enc)
        full = fcc.verify_fcc(enc)
        assert full.ok == res.ok
        if not res.ok:
            assert full == res
        seen["pass" if res.ok else "fail"] += 1
        seen["r0"] += enc.r == 0
        seen["e1"] += e == 1
        seen["t3"] += t == 3
        seen["wide"] += enc.r > 8
    assert min(seen.values()) >= 20, seen


def test_verify_class_route_matches_row_loop_on_flipped_copies():
    # per-value encoders re-encoded per message with 0-2 parity bits flipped
    # have few (value, parity) classes, so the class check settles most of
    # them: its verdict is the row loop's, a violation reports the message
    # route's witness and count, and a pass counts the class pairs with
    # different values, read here off a per-message scan
    rng = random.Random(1709)
    seen = {"pass": 0, "fail": 0, "t3": 0}
    for _ in range(150):
        k, t = rng.randint(2, 8), rng.randint(1, 3)
        spec = _shuffled_spec(rng, k, rng.randint(2, min(1 << k, 6)))
        base = fcc.build_function_value_encoder(spec, rng.randint(1, 3))
        par = list(base.parity_ints)
        for _ in range(rng.randint(0, 2) if base.r else 0):
            par[rng.randrange(1 << k)] ^= 1 << rng.randrange(base.r)
        enc = fcc.per_message_encoder(spec, t, [BitWord(p, base.r) for p in par])
        ok, witness, checked = reference_message_verify(enc)
        quick = fcc._verify_exhaustive(enc, t, witness=False)
        res = fcc.verify_fcc(enc)
        assert quick.ok == res.ok == ok
        if not ok:
            assert (res.witness, res.pairs_checked, res.route) == (witness, checked, "message-level")
        if quick.route != "class":
            continue
        classes = set(zip(spec.index_table, par))
        pairs = sum(a[0] != b[0] for a, b in itertools.combinations(classes, 2))
        assert quick.pairs_checked == pairs
        if ok:
            assert (res.route, res.pairs_checked) == ("class", pairs)
        seen["pass" if ok else "fail"] += 1
        seen["t3"] += t == 3
    assert min(seen.values()) >= 10, seen


def test_verify_cost_rule_picks_the_route_by_class_count():
    # at k=6, t=1 the message-level kernel translates its planes (1 index
    # plane and r=4 parity planes) by the 21 vectors of weight 1..2, five
    # operations per half-swap, so the class check takes at most 22 classes:
    # 22^2 * 1 <= 5 * 21 * 5 < 23^2. Parity of 6 bits, with parity
    # min(u & 15, c): c = 10 on both values (22 classes), or c = 11 on the
    # odd values (23 classes)
    spec, t = functions.parity_spec(6), 1
    for odd_cap, route in ((10, "class"), (11, "message-level")):
        caps = (10, odd_cap)
        enc = fcc.per_message_encoder(
            spec, t, [BitWord(min(u & 15, caps[u.bit_count() % 2]), 4) for u in range(64)])
        assert len(set(zip(spec.index_table, enc.parity_ints))) == 12 + odd_cap
        quick = fcc._verify_exhaustive(enc, t, witness=False)
        assert quick.route == route
        assert quick.ok == fcc._verify_message_level(enc, t, False).ok == naive_verify(enc)[0]
    # passing encoders at k=8, t=1 (36 vectors): every delta ramp takes the
    # class route; a weight cycle (r=3, 4 index planes) with x low message
    # bits appended has 9 * 2^x classes at most, against 5 * 36 * (7 + x)
    for T in (3, 4, 5):
        res = fcc.verify_fcc(functions.delta_ramp_encoder(8, T, 1))
        assert res.ok and res.route == "class"
    base = functions.wt_cyclic_encoder(8, 1)
    for x, route in ((1, "class"), (2, "class"), (3, "message-level")):
        enc = fcc.per_message_encoder(base.spec, 1, [
            BitWord(p << x | u & ((1 << x) - 1), 3 + x) for u, p in enumerate(base.parity_ints)])
        classes = len(set(zip(enc.spec.index_table, enc.parity_ints)))
        assert (classes ** 2 <= 5 * 36 * (7 + x)) == (route == "class")
        res = fcc.verify_fcc(enc)
        assert res.ok and res.route == route


def _identity_encoder(k: int) -> fcc.FccEncoder:
    """The identity on k bits, per value, with the message repeated twice as
    its parity: codewords with different values are 3d(u, v) apart."""
    spec = fcc.FunctionSpec(k, lambda u: u, range(1 << k), name=f"id{k}")
    return fcc.FccEncoder(spec, 1, 2 * k, tuple(u << k | u for u in range(1 << k)))


def _with_word(enc: fcc.FccEncoder, i: int, word: int) -> fcc.FccEncoder:
    return dataclasses.replace(enc, words=enc.words[:i] + (word,) + enc.words[i + 1:])


@pytest.mark.parametrize("k", range(2, 12))
def test_per_value_encoders_follow_the_class_cost_rule(k):
    # the rule of `_classes` holds per-value encoders as it holds per-message
    # ones: E classes pay when E^2 t <= 5 * translations * planes, here
    # k + 2k planes and sum C(k, w), w = 1..2 translations, so up to k = 5;
    # above that the message-level kernel checks the identity
    enc = _identity_encoder(k)
    e, pays = 1 << k, (1 << 2 * k) <= 5 * (k + comb(k, 2)) * 3 * k
    assert (fcc._classes(enc, 1) is not None) == pays == (k <= 5)
    res = fcc.verify_fcc(enc)
    if pays:  # value pairs
        assert (res.ok, res.route, res.pairs_checked) == (True, "class", e * (e - 1) // 2)
    else:
        assert res.route == "message-level"
        assert (res.ok, res.witness, res.pairs_checked) == reference_message_verify(enc)
    # one parity bit flipped: the value across that bit is 2 away
    bad = _with_word(enc, 5 % e, enc.words[5 % e] ^ 1 << k)
    res = fcc.verify_fcc(bad)
    assert (res.ok, res.witness, res.pairs_checked) == reference_message_verify(bad)
    assert res.route == "message-level" and not res.ok
    if k <= 8:
        assert (res.ok, res.witness) == naive_verify(bad)
        assert naive_verify(enc) == (True, None)


@pytest.fixture(scope="module")
def sigmoid_642():
    """The `auto` encoder of a quantized sigmoid with 642 values at t = 1."""
    spec = fcc.spec_from_string("ml:sigmoid,k=10,eps=1/32")
    return fcc.build_function_value_encoder(spec, 1)


def test_many_valued_activation_takes_the_message_route(sigmoid_642):
    enc = sigmoid_642
    assert (len(enc.spec.image), enc.r, enc.mode) == (642, 7, fcc.PER_VALUE)
    assert fcc._classes(enc, 1) is None
    res = fcc.verify_fcc(enc)
    assert (res.ok, res.route) == (True, "message-level")
    assert (res.ok, res.witness, res.pairs_checked) == reference_message_verify(enc)
    # a value whose word takes that of a value one bit flip away: the copy
    # violates
    idx = enc.spec.index_table
    u = next(u for u in range(1024) if idx[u] != idx[u ^ 1])
    bad = _with_word(enc, idx[u], enc.words[idx[u ^ 1]])
    res = fcc.verify_fcc(bad)
    assert not res.ok and res.route == "message-level"
    assert (res.ok, res.witness, res.pairs_checked) == reference_message_verify(bad)


def test_many_valued_activation_is_certified_by_simulate(sigmoid_642):
    # the same report as when the certificate took the class route
    report = simulate(sigmoid_642, ChannelModel(1, "exhaustive"))
    assert report.route == "certified"
    assert (report.trials, report.failures, report.witness, report.decodes) == (
        1024 * sphere_size(17, 1), 0, None, 0)


def test_verify_message_route_with_more_than_256_values():
    # the image-index planes then come from two bytes per message
    rng = random.Random(300)
    spec = _shuffled_spec(rng, 9, 300)
    for t, r in ((1, 2), (1, 12), (2, 4)):
        enc = fcc.per_message_encoder(
            spec, t, [BitWord(rng.randrange(1 << r), r) for _ in range(512)]
        )
        res = fcc.verify_fcc(enc)
        assert (res.ok, res.witness, res.pairs_checked) == reference_message_verify(enc)


def test_verify_witness_is_lexicographically_smallest():
    spec = functions.parity_spec(3)
    # r=0 encoder cannot satisfy any t >= 1 requirement
    enc = fcc.FccEncoder(spec, 1, 0, (0, 0))
    res = fcc.verify_fcc(enc)
    assert not res.ok
    assert res.witness == (BitWord.zeros(3), BitWord.from_string("001"))


def test_verify_sampled_mode():
    enc = functions.wt_cyclic_encoder(10, 1)
    res = fcc.verify_fcc(enc, sample=500, seed=3)
    assert res.ok and res.mode == res.route == "sampled" and res.pairs_checked <= 500


def _zero_parity_encoder(spec: fcc.FunctionSpec, t: int, r: int) -> fcc.FccEncoder:
    """Every value gets the same parity: only message distance separates values."""
    return fcc.FccEncoder(spec, t, r, (0,) * spec.expressiveness)


@pytest.mark.parametrize(
    "spec, t",
    [(functions.wt_spec(15), 1), (functions.wt_spec(12), 2), (functions.delta_spec(16, 5), 1)],
)
def test_sampled_witness_violates_and_lies_within_2t(spec, t):
    enc = _zero_parity_encoder(spec, t, 2)
    for seed in range(5):
        res = fcc.verify_fcc(enc, sample=2000, seed=seed)
        assert not res.ok and res.route == "sampled" and 1 <= res.pairs_checked <= 2000
        lo, hi = res.witness
        assert lo.value < hi.value and spec.eval(lo) != spec.eval(hi)
        assert 1 <= hamming_distance(lo, hi) <= 2 * t
        assert hamming_distance(enc.encode(lo), enc.encode(hi)) < 2 * t + 1


@pytest.mark.parametrize("bad", [False, True])
def test_sampled_is_deterministic_per_seed_and_counts_at_most_the_draws(bad):
    enc = functions.wt_cyclic_encoder(15, 1)
    if bad:
        enc = _zero_parity_encoder(enc.spec, 1, enc.r)
    for seed in (0, 1, 99):
        first = fcc.verify_fcc(enc, sample=3000, seed=seed)
        assert fcc.verify_fcc(enc, sample=3000, seed=seed) == first
        assert first.ok is not bad and first.pairs_checked <= 3000
    assert fcc.verify_fcc(enc, sample=1, seed=0).pairs_checked <= 1


@pytest.mark.parametrize("k, t", [(2, 1), (3, 2), (4, 3)])
def test_sampled_when_2t_reaches_k(k, t):
    spec = functions.wt_spec(k)
    good = fcc.build_function_value_encoder(spec, t)
    res = fcc.verify_fcc(good, sample=500, seed=1)
    assert res.ok and res.pairs_checked <= 500
    assert fcc.verify_fcc(good).ok
    bad = fcc.verify_fcc(_zero_parity_encoder(spec, t, good.r), sample=500, seed=1)
    assert not bad.ok and spec.eval(bad.witness[0]) != spec.eval(bad.witness[1])


def test_verify_rejects_a_zero_budget_on_every_route():
    enc = fcc.per_message_encoder(functions.wt_spec(6), 0, [BitWord.zeros(1)] * 64)
    for sample in (None, 50):
        with pytest.raises(ValueError, match="t >= 1"):
            fcc.verify_fcc(enc, sample=sample)


@pytest.mark.parametrize("words", [4, 512])
def test_equal_encoders_hash_equal_at_both_key_widths(words):
    # past 256 words the message key is a view of 32-bit ints, which has no hash
    rng = random.Random(words)
    spec = functions.wt_spec(9)
    parities = [BitWord(rng.randrange(words), 10) for _ in range(512)]
    a, b = (fcc.per_message_encoder(spec, 1, parities) for _ in range(2))
    assert isinstance(a.message_key, bytes) is (words <= 256)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    parities[0] = BitWord(parities[0].value ^ 1, 10)
    assert fcc.per_message_encoder(spec, 1, parities) != a


def test_sampled_catches_a_single_corrupted_close_pair():
    # OR at k=16 takes value 0 on the zero message only, so a per-message
    # encoder with parity 000 there and 111 elsewhere is valid, and setting
    # the parity of u2 = 2048 (bit 11) to 000 breaks exactly one pair,
    # (0, 2048) at distance 1. At the default seed 0 the close-pair sampler
    # draws it as (u, e) = (0, 2048) at draw 11,969 of 20,000 and returns it
    # as the witness; that is also the first draw that touches the zero
    # message, so the only one with two values. The old uniform sampler, two
    # randrange(2^16) per draw, meets (0, 2048) with probability 2^-31 per
    # draw and at seed 0 misses it (reference_uniform_sample below).
    spec = functions.or_spec(16)
    parities = [BitWord(7, 3)] * (1 << 16)
    parities[0] = parities[2048] = BitWord(0, 3)
    enc = fcc.per_message_encoder(spec, 1, parities)
    res = fcc.verify_fcc(enc, sample=20_000, seed=0)
    assert not res.ok and res.route == "sampled"
    assert res.witness == (BitWord(0, 16), BitWord(2048, 16)) and res.pairs_checked == 1
    assert reference_uniform_sample(enc, 20_000, seed=0)[0]
    parities[2048] = BitWord(7, 3)  # mended, the same draws find nothing
    assert fcc.verify_fcc(fcc.per_message_encoder(spec, 1, parities), sample=20_000).ok


@pytest.mark.parametrize("k", range(1, 25))
def test_message_draws_are_the_draws_of_random_choices(k):
    # the same messages, and the generator left in the same state
    for seed in range(30):
        for n in (1, 7, 4096):
            bulk, one_by_one = random.Random(seed), random.Random(seed)
            assert list(fcc._message_draws(bulk, k, n)) == one_by_one.choices(range(1 << k), k=n)
            assert bulk.random() == one_by_one.random()


def _flipped(enc: fcc.FccEncoder, rng: random.Random, flips: int) -> fcc.FccEncoder:
    """enc with `flips` parity bits flipped, each in a drawn parity word."""
    parities = list(enc.parities)
    for _ in range(flips):
        i = rng.randrange(len(parities))
        parities[i] = BitWord(parities[i].value ^ 1 << rng.randrange(enc.r), enc.r)
    return _encoder_of(enc.spec, enc.t, enc.r, enc.mode, parities)


@pytest.mark.parametrize("case", range(30))
def test_sampled_verify_matches_the_draw_by_draw_loop(case):
    # per-value wt-cycle and per-message delta-ramp encoders, valid as built,
    # with 0-2 parity bits flipped: every field of the result must agree
    rng = random.Random(case)
    k, t, flips = rng.randint(2, 16), rng.randint(1, 3), case % 3
    if case % 2:
        t = min(t, k - 1)
        enc = functions.wt_cyclic_encoder(k, t)
    else:
        enc = functions.delta_ramp_encoder(k, 2 * t + 1 + rng.randrange(3), t)
    enc = _flipped(enc, rng, flips)
    for sample in (1, 4096, 4097, 20_000):
        seed = rng.randrange(100)
        assert fcc.verify_fcc(enc, sample=sample, seed=seed) == reference_sampled_verify(
            enc, sample, seed
        )


def test_sampled_per_value_verify_builds_no_message_parity_table():
    enc = functions.wt_cyclic_encoder(16, 1)
    assert fcc.verify_fcc(enc, sample=500).ok
    assert "parity_ints" not in enc.__dict__


def test_verify_rejects_a_negative_seed():
    # Random(-s) draws what Random(s) draws, so -1 would silently mean 1
    enc = functions.wt_cyclic_encoder(6, 1)
    for sample in (None, 10):
        with pytest.raises(ValueError, match="seed >= 0"):
            fcc.verify_fcc(enc, sample=sample, seed=-1)
    with pytest.raises(ValueError, match="seed >= 0"):
        ChannelModel(t=1, mode="random", seed=-1)


def test_verify_exhaustive_guard():
    spec = functions.wt_spec(15)
    enc = functions.wt_cyclic_encoder(15, 1)
    with pytest.raises(ValueError):
        fcc.verify_fcc(enc)  # k > 14 must be sampled
    assert fcc.verify_fcc(enc, sample=200).ok


# --- theorem-level properties ---------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        functions.parity_spec,
        functions.wt_spec,
        functions.or_spec,
        lambda k: functions.delta_spec(k, 2),
    ],
)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_exact_redundancy_sandwich(make, k):
    # optimal redundancy equals the exact minimum length for the full
    # requirement matrix, so the matrix bounds must bracket it
    spec = make(k)
    t = 1
    res = fcc.exact_optimal_redundancy(spec, t)
    assert res.proven
    us = list(all_words(k))
    d = fcc.distance_requirement_matrix(spec, t, us)
    lo, hi = bounds.sandwich(d)
    assert lo.integer_value <= res.value <= hi.integer_value
    # and the witness really is a working encoder
    enc = fcc.encoder_from_exact_witness(spec, t, res.code)
    assert fcc.verify_fcc(enc).ok


def test_exact_redundancy_frozen_values():
    assert fcc.exact_optimal_redundancy(functions.wt_spec(4), 1).value == 3
    assert fcc.exact_optimal_redundancy(functions.parity_spec(3), 1).value == 2
    assert fcc.exact_optimal_redundancy(functions.or_spec(3), 1).value == 2


def test_exact_redundancy_guard():
    with pytest.raises(ValueError):
        fcc.exact_optimal_redundancy(functions.wt_spec(7), 1)


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=2))
def test_value_table_encoder_sound(k, t):
    # encoding by function value alone always satisfies the condition
    spec = functions.wt_spec(k)
    enc = fcc.build_function_value_encoder(spec, t)
    assert enc.mode == fcc.PER_VALUE
    assert fcc.verify_fcc(enc, sample=2000 if k > 12 else None).ok


def test_value_table_encoder_floor():
    # non-constant functions keep two values on adjacent messages, so any
    # per-value encoder needs r >= 2t
    for t in (1, 2):
        spec = functions.parity_spec(4)
        enc = fcc.build_function_value_encoder(spec, t)
        assert enc.r >= 2 * t


def test_representative_plotkin_consistency():
    # pick one representative per value; the pairwise-distance Plotkin bound
    # at the widest representative gap must stay below the verified length
    spec = functions.wt_spec(6)
    t = 1
    enc = fcc.build_function_value_encoder(spec, t)
    assert fcc.verify_fcc(enc).ok
    reps = []
    for value in spec.image:
        reps.append(next(u for u in all_words(6) if spec.eval(u) == value))
    e_star = max(
        hamming_distance(a, b) for a, b in itertools.combinations(reps, 2)
    )
    if 2 * t + 1 - e_star > 0:
        bound = bounds.plotkin_regular(spec.expressiveness, 2 * t + 1 - e_star)
        assert bound.integer_value <= enc.r + e_star


def test_constant_function_needs_nothing():
    spec = functions.constant_spec(4)
    enc = fcc.build_function_value_encoder(spec, 1)
    assert enc.r == 0
    assert fcc.verify_fcc(enc).ok


# --- decoding ---------------------------------------------------------------------


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=2))
def test_decode_recovers_under_budget(k, t):
    if k <= t:
        k = t + 1
    enc = functions.wt_cyclic_encoder(k, t)
    rng = random.Random(k * 31 + t)
    n = enc.block_length
    for _ in range(40):
        u = BitWord(rng.randrange(1 << k), k)
        wgt = rng.randint(0, t)
        y = enc.encode(u).flip(rng.sample(range(n), wgt))
        res = fcc.decode(enc, y)
        assert res.value == enc.spec.eval(u)
        assert not res.out_of_model


def test_decode_flags_heavy_errors():
    enc = functions.wt_cyclic_encoder(6, 1)
    # 000000011 pairs the all-zero message with the weight-2 parity: distance
    # 2 from the true codeword 000000000 and from every weight-2 codeword,
    # distance >= 3 from everything else - nothing within the t=1 budget
    y = BitWord.from_string("000000011")
    best = min(hamming_distance(y, enc.encode(u)) for u in all_words(6))
    assert best > enc.t
    res = fcc.decode(enc, y)
    assert res.out_of_model
    assert res.distance == best == 2


def test_decode_length_check():
    enc = functions.wt_cyclic_encoder(6, 1)
    with pytest.raises(ValueError):
        fcc.decode(enc, BitWord.zeros(4))


def test_decode_tie_prefers_smallest_image_index():
    # deliberately weak 1-bit parity on wt(k=2): y = 001 sits at distance 1
    # from codewords of value 0 (000) and value 1 (011 and 101) alike
    spec = functions.wt_spec(2)
    enc = fcc.FccEncoder(spec, 1, 1, (0, 1, 0))
    res = fcc.decode(enc, BitWord.from_string("001"))
    assert res.distance == 1
    assert res.value == 0  # smallest image index wins the tie
    assert res.out_of_model  # and the tie is flagged


def test_decode_tie_beyond_t_outside_the_radius_t_ball():
    # y = 011|11 on wt(k=3), t=1: the codewords 000|11 (value 0) and 011|00
    # (value 2) both sit at distance 2 = t+1, every other one at >= 3. The
    # value-0 codeword is two message flips away, outside the radius-t ball
    # around y's message part, and wins the tie.
    spec = functions.wt_spec(3)
    parities = [BitWord.zeros(2)] * 8
    parities[0] = BitWord.ones(2)
    enc = fcc.per_message_encoder(spec, 1, parities)
    y = BitWord.from_string("01111")
    res = fcc.decode(enc, y)
    assert res == full_scan_decode(enc, y)
    assert (res.value, res.distance, res.out_of_model) == (0, 2, True)


def _random_encoder(rng: random.Random) -> fcc.FccEncoder:
    """Unverified encoder with a random function table and random parities."""
    k, r, t = rng.randint(1, 5), rng.randint(0, 4), rng.randint(1, 3)
    e = rng.randint(1, 4)
    table = [rng.randrange(e) for _ in range(1 << k)]
    spec = fcc.FunctionSpec(k, table.__getitem__, sorted(set(table)))
    mode = rng.choice((fcc.PER_VALUE, fcc.PER_MESSAGE))
    count = spec.expressiveness if mode == fcc.PER_VALUE else 1 << k
    parities = tuple(BitWord(rng.randrange(1 << r), r) for _ in range(count))
    return _encoder_of(spec, t, r, mode, parities)


def _encoder_of(spec, t, r, mode, parities) -> fcc.FccEncoder:
    """The encoder with the given parity table, one r-bit word per value
    or per message."""
    if mode == fcc.PER_VALUE:
        return fcc.FccEncoder(spec, t, r, tuple(p.value for p in parities))
    return fcc.per_message_encoder(spec, t, parities)


def test_decode_matches_full_scan_on_random_encoders():
    rng = random.Random(2102)
    ties_beyond_t = 0
    for _ in range(120):
        enc = _random_encoder(rng)
        for y in all_words(enc.block_length):
            want = full_scan_decode(enc, y)
            assert fcc.decode(enc, y) == want, (enc, y)
            if want.distance == enc.t + 1:
                ties_beyond_t += len(full_scan_nearest(enc, y)[1]) > 1
    assert ties_beyond_t > 0


# --- simulate routes ----------------------------------------------------------------


def test_nearest_value_masks_match_decode_on_every_word():
    # each word within `depth` of the code is in the table of the value decode
    # returns for it, ties to the smallest index included; no other word is
    rng = random.Random(5150)
    ties_within_t = ties_beyond_t = 0
    for _ in range(120):
        enc = _random_encoder(rng)
        n = enc.block_length
        decoded = [fcc.decode(enc, y) for y in all_words(n)]
        for depth in (*range(enc.t + 3), n + 1):
            masks = fcc._nearest_value_masks(enc, depth)
            assert len(masks) == enc.spec.expressiveness
            for y, got in enumerate(decoded):
                holders = [i for i, m in enumerate(masks) if m >> y & 1]
                want = [enc.spec.index_of(got.value)] if got.distance <= depth else []
                assert holders == want, (enc, depth, y)
        for y, got in zip(all_words(n), decoded):
            if got.out_of_model and got.distance <= enc.t:
                ties_within_t += 1  # within t, only a tie is out of model
            elif got.distance == enc.t + 1:
                ties_beyond_t += len(full_scan_nearest(enc, y)[1]) > 1
    assert ties_within_t > 0 and ties_beyond_t > 0


def test_simulate_matches_reference_on_random_encoders():
    rng = random.Random(7031)
    ties_within_t = 0
    routes = {"certified": 0, "tables": 0, "decode-every-trial": 0}
    shapes = set()
    for case in range(40):
        enc = _random_encoder(rng)
        n = enc.block_length
        shapes.add((enc.mode, enc.r == 0))
        ties_within_t += any(
            got.out_of_model and got.distance <= enc.t
            for got in (fcc.decode(enc, y) for y in all_words(n))
        )
        for t in range(enc.t + 3):
            for mode in ("exhaustive", "random"):
                channel = ChannelModel(t, mode, seed=case, trials=60)
                got = simulate(enc, channel)
                assert got == reference_simulate(enc, channel), (enc, channel)
                routes[got.route] += 1
                if got.route == "certified":
                    assert (got.failures, got.decodes) == (0, 0)
                elif got.route == "tables":
                    # only the first failure is decoded, for its witness
                    assert got.decodes == (got.witness is not None)
                else:
                    assert got.decodes == got.trials
    assert routes["certified"] > 0 and routes["tables"] > 0, routes
    assert ties_within_t > 0
    assert len(shapes) == 4  # per-value and per-message, with and without parity bits


def _corrupted(enc: fcc.FccEncoder, rng: random.Random) -> fcc.FccEncoder:
    """enc with one parity word replaced by a random word of the same length."""
    parities = list(enc.parities)
    parities[rng.randrange(len(parities))] = BitWord(rng.randrange(1 << enc.r), enc.r)
    return _encoder_of(enc.spec, enc.t, enc.r, enc.mode, parities)


def test_certified_route_matches_the_decode_every_trial_oracle():
    # built per-value encoders (certified at their own t and below), the same
    # with one parity corrupted, and per-message tables of random parities;
    # channel t 0-3 on both sides of the encoder's t, both modes
    rng = random.Random(1207)
    routes = {"certified": 0, "tables": 0, "decode-every-trial": 0}
    certified_failing_encoders = 0
    for case in range(90):
        k, t = rng.randint(1, 5), rng.randint(1, 2)
        spec = _random_spec(rng, k)
        built = fcc.build_function_value_encoder(spec, t)
        if case % 3 == 0:
            enc = built
        elif case % 3 == 1:
            enc = _corrupted(built, rng)
        else:
            r = rng.randint(0, 4)
            enc = fcc.per_message_encoder(
                spec, t, [BitWord(rng.randrange(1 << r), r) for _ in range(1 << k)]
            )
        for channel_t in range(4):
            for mode in ("exhaustive", "random"):
                channel = ChannelModel(channel_t, mode, seed=case, trials=40)
                got = simulate(enc, channel)
                assert got == reference_simulate(enc, channel), (enc, channel)
                routes[got.route] += 1
                if got.route == "certified":
                    assert got.witness is None and got.decodes == 0
                    certified_failing_encoders += not fcc.verify_fcc(enc).ok
    assert min(routes.values()) > 0, routes
    # a corrupted or random encoder can still pass at a lower channel t
    assert certified_failing_encoders > 0


def test_exhaustive_simulate_fails_exactly_when_the_fcc_check_fails():
    # the distance theorem: with every message and every pattern of weight
    # <= t, some trial decodes a wrong value iff two codewords with different
    # values are at most 2t apart
    rng = random.Random(3301)
    verdicts = {True: 0, False: 0}
    for _ in range(80):
        enc = _random_encoder(rng)
        for t in range(1, 4):
            at_t = dataclasses.replace(enc, t=t)
            ok = fcc._verify_exhaustive(enc, t, witness=False).ok
            assert ok == naive_verify(at_t)[0] == fcc.verify_fcc(at_t).ok
            failures = reference_simulate(enc, ChannelModel(t, "exhaustive")).failures
            assert (failures == 0) == ok, (enc, t)
            assert (simulate(enc, ChannelModel(t, "exhaustive")).route == "certified") == ok
            verdicts[ok] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_simulate_runs_the_trials_above_the_exhaustive_check_limit():
    # above EXHAUSTIVE_MAX_K the check is skipped (never sampled), so even a
    # verified encoder runs its trials; at channel t = 0 nothing can fail
    k = fcc.EXHAUSTIVE_MAX_K + 1
    enc = functions.wt_cyclic_encoder(k, 1)
    channel = ChannelModel(1, "random", seed=5, trials=20)
    report = simulate(enc, channel)
    assert report == reference_simulate(enc, channel)
    assert report.route != "certified" and report.failures == 0
    assert simulate(enc, ChannelModel(0, "random", trials=20)).route == "certified"


def test_simulate_decodes_only_the_witness_on_the_table_route():
    enc = functions.wt_cyclic_encoder(6, 1)
    for mode, beyond_t in (("exhaustive", 2), ("random", 3)):
        clean = simulate(enc, ChannelModel(1, mode, seed=4, trials=400))
        assert (clean.failures, clean.decodes, clean.route) == (0, 0, "certified")
        channel = ChannelModel(beyond_t, mode, seed=4, trials=400)
        report = simulate(enc, channel)
        assert report.route == "tables"
        assert report == reference_simulate(enc, channel)
        assert report.failures > 1 and report.decodes == 1


def _settle(enc, channel) -> tuple[SimulationReport, str | None]:
    """The report, and how the tables route settled its trials (the
    `settle=` word of its trace line; None on another route)."""
    lines = []
    report = simulate(enc, channel, trace=lines.append)
    if report.route != "tables":
        return report, None
    head, _, settle = lines[0].rpartition(" settle=")
    assert head.startswith("route=tables ") and settle in ("patterns", "trials")
    return report, settle


def test_pattern_walk_matches_reference_simulate():
    # per-value encoders built at t 1-2 (half of them with one parity
    # corrupted) and per-message encoders of random parities; k 2-8, r 0-6,
    # channel t up to the encoder's t + 2
    rng = random.Random(2402)
    settled = {"patterns": 0, "trials": 0}
    witnesses = 0
    for case in range(48):
        k = rng.randint(2, 8)
        spec = _random_spec(rng, k)
        if case % 2:
            r = rng.randint(0, 6)
            parities = [BitWord(rng.randrange(1 << r), r) for _ in range(1 << k)]
            enc = fcc.per_message_encoder(spec, rng.randint(1, 2), parities)
        else:
            enc = fcc.build_function_value_encoder(spec, rng.randint(1, 2))
            if case % 4 == 0 and enc.r:
                enc = _corrupted(enc, rng)
        if enc.r > 6:
            continue
        n = enc.block_length
        for t in range(enc.t + 3):
            channel = ChannelModel(t, "exhaustive")
            if (1 << k) * sphere_size(n, t) > 10_000:
                continue
            got, settle = _settle(enc, channel)
            assert got == reference_simulate(enc, channel), (enc, t)
            if settle is not None:
                settled[settle] += 1
                assert got.decodes == (got.witness is not None)
            if settle == "patterns":
                witnesses += got.witness is not None
    assert settled["patterns"] >= 40 and witnesses >= 30, (settled, witnesses)


def test_pattern_walk_and_trial_loop_give_one_report(monkeypatch):
    # the same runs settled both ways, with the rule's constant moved so
    # that every run is walked, then none is
    rng = random.Random(2403)
    runs = []
    for _ in range(30):
        enc = _random_encoder(rng)
        runs += [(enc, ChannelModel(t, "exhaustive")) for t in range(1, enc.t + 3)]
    reports = {}
    for constant, settle in ((1 << 40, "patterns"), (0, "trials")):
        monkeypatch.setattr(simulate_mod, "_WALK_BITS_PER_TRIAL", constant)
        reports[settle] = []
        for enc, channel in runs:
            got, how = _settle(enc, channel)
            assert how in (settle, None)
            reports[settle].append((got, got.decodes))
    assert reports["patterns"] == reports["trials"]
    assert sum(got.witness is not None for got, _ in reports["patterns"]) >= 40


def test_simulate_settles_high_redundancy_and_unsorted_lists_by_trials():
    # r = 10: a pattern walk costs (width + 1) * 2^r operations per trial,
    # past the rule's crossover, so the one-bit-test loop runs
    rng = random.Random(2404)
    spec = fcc.FunctionSpec(3, lambda u: u % 3, range(3))
    parities = [BitWord(rng.randrange(1 << 10), 10) for _ in range(8)]
    parities[4] = parities[0] ^ BitWord(1, 10)  # values 0 and 1 three apart
    enc = fcc.per_message_encoder(spec, 1, parities)
    assert enc.r >= 10
    for t in (1, 2):
        channel = ChannelModel(t, "exhaustive")
        got, settle = _settle(enc, channel)
        assert settle == "trials" and got == reference_simulate(enc, channel)
        assert got.failures > 0 and got.decodes == 1
    # random draws come unsorted and with repeats, so they keep the loop,
    # while the exhaustive run of the same encoder is walked
    wt = functions.wt_cyclic_encoder(5, 1)
    for seed in (0, 1):
        channel = ChannelModel(2, "random", seed=seed, trials=200)
        got, settle = _settle(wt, channel)
        assert settle == "trials" and got == reference_simulate(wt, channel)
        assert got.failures > 0
    channel = ChannelModel(2, "exhaustive")
    got, settle = _settle(wt, channel)
    assert settle == "patterns" and got == reference_simulate(wt, channel)


def test_simulate_trace_names_the_route():
    # channels beyond the encoder's t = 1, so the check fails and trials run
    enc = functions.wt_cyclic_encoder(6, 1)
    n = enc.block_length
    lines = []
    report = simulate(enc, ChannelModel(2, "exhaustive"), trace=lines.append)
    assert len(lines) == 1
    assert lines[0].startswith(f"route=tables E=7 n={n} depth=2 mask_bits={7 << n} build_ms=")
    assert lines[0].endswith(" settle=patterns")
    assert (report.route, report.decodes) == ("tables", 1)
    lines.clear()
    # one random trial does not pay for 7 * 2^n mask bits
    report = simulate(enc, ChannelModel(2, "random", trials=1), trace=lines.append)
    assert lines == [f"route=decode-every-trial E=7 n={n} mask_bits={7 << n}"]
    assert (report.route, report.decodes) == ("decode-every-trial", 1)
    lines.clear()
    report = simulate(enc, ChannelModel(1, "random", trials=1), trace=lines.append)
    assert len(lines) == 1 and lines[0].startswith("route=certified t=1 check_ms=")
    assert (report.route, report.decodes) == ("certified", 0)


def test_simulate_decodes_every_trial_above_the_table_cap():
    # the identity has E = 2^k values: at k = 8 its tables would cost more
    # than the cap in bits per trial for a few hundred random trials; the
    # channel is beyond the encoder's t = 1, so the trials run
    spec = fcc.FunctionSpec(8, lambda u: u, range(256))
    enc = fcc.build_function_value_encoder(spec, 1)
    channel = ChannelModel(2, "random", seed=3, trials=300)
    assert len(spec.image) << enc.block_length > simulate_mod._TABLE_BITS_PER_TRIAL * 300
    report = simulate(enc, channel)
    assert report == reference_simulate(enc, channel)
    assert report.route == "decode-every-trial"
    assert report.decodes == report.trials and report.failures > 0


# --- locally binary ---------------------------------------------------------------


def test_function_ball_radius_growth():
    spec = functions.wt_spec(5)
    u = BitWord.from_string("00000")
    assert fcc.function_ball(spec, u, 0) == frozenset({0})
    assert fcc.function_ball(spec, u, 2) == frozenset({0, 1, 2})


def test_is_locally_binary_weight_fails_with_zero_witness():
    spec = functions.wt_spec(3)
    ok, witness = fcc.is_locally_binary(spec, 2)
    assert not ok
    assert witness == BitWord.zeros(3)  # ball {0,1,2} already too rich


def test_is_locally_binary_delta():
    ok, witness = fcc.is_locally_binary(functions.delta_spec(9, 5), 2)
    assert ok and witness is None


def test_is_locally_binary_matches_ball_scan_on_random_specs():
    rng = random.Random(6060)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        k = rng.randint(1, 7)
        spec = _shuffled_spec(rng, k, rng.randint(1, min(1 << k, 5)))
        for rho in (0, 1, 2, rng.randint(3, k + 2), k + 1):  # rho > k included
            got = fcc.is_locally_binary(spec, rho)
            assert got == reference_is_locally_binary(spec, rho), (spec.index_table, rho)
            verdicts[got[0]] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_is_locally_binary_rejects_negative_radius():
    with pytest.raises(ValueError):
        fcc.is_locally_binary(functions.wt_spec(3), -1)


def test_is_locally_binary_code_indicator():
    # indicator of a distance-4 code is 1-locally binary
    code = construct.reed_muller_code(1, 3)
    spec = functions.indicator_spec(code)
    ok, _ = fcc.is_locally_binary(spec, 1)
    assert ok


# --- registry and serialization ------------------------------------------------


def test_registry_names_present():
    names = fcc.registered_spec_names()
    for expected in ("wt", "parity", "or", "constant", "delta_T", "minmax", "indicator", "ml"):
        assert expected in names


def test_spec_from_string_forms():
    spec = fcc.spec_from_string("wt:k=5")
    assert spec.k == 5 and spec.expressiveness == 6
    spec = fcc.spec_from_string("wt", defaults={"k": "4"})
    assert spec.k == 4
    spec = fcc.spec_from_string("delta_T:k=6,T=3")
    assert spec.expressiveness == 3
    spec = fcc.spec_from_string("minmax:w=2,l=3")
    assert spec.k == 6


def test_spec_from_string_bare_token():
    # a single token with no '=' lands in the kind-specific default slot
    spec = fcc.spec_from_string("ml:sigmoid,k=5,eps=1")
    assert spec.k == 5
    assert spec.expressiveness == 22


def test_spec_from_string_unknown_name():
    with pytest.raises(ValueError):
        fcc.spec_from_string("nosuch:k=3")


@pytest.mark.parametrize("text", ["wt:k=3,k=4", "ml:sigmoid,tanh,k=5,eps=1"])
def test_spec_string_rejects_a_repeated_key(text):
    with pytest.raises(ValueError, match="more than one"):
        fcc.parse_spec_string(text)


def test_parse_spec_string_splits_family_and_pairs():
    assert fcc.parse_spec_string(" ml: sigmoid , k=5,eps = 1 ") == (
        "ml", {"arg": "sigmoid", "k": "5", "eps": "1"}
    )
    assert fcc.parse_spec_string("binary") == ("binary", {})  # no registry lookup


def test_spec_from_string_flag_overrides_default():
    spec = fcc.spec_from_string("wt:k=5", defaults={"k": "9"})
    assert spec.k == 5


def test_encoder_text_roundtrip():
    enc = functions.wt_cyclic_encoder(6, 1)
    text = fcc.encoder_to_text(enc)
    assert text.splitlines()[0] == "# fcodes encoder v1"
    again = fcc.encoder_from_text(text)
    assert again.spec.name == enc.spec.name
    assert (again.t, again.r, again.mode) == (enc.t, enc.r, enc.mode)
    assert again.parities == enc.parities
    for u in all_words(6):
        assert again.encode(u) == enc.encode(u)


def test_encoder_text_roundtrip_per_message():
    enc = functions.delta_ramp_encoder(8, 3, 1)
    again = fcc.encoder_from_text(fcc.encoder_to_text(enc))
    assert again.mode == fcc.PER_MESSAGE
    for u in all_words(8):
        assert again.encode(u) == enc.encode(u)


@pytest.mark.parametrize(
    "make",
    [lambda: functions.delta_ramp_encoder(10, 4, 1), lambda: functions.wt_cyclic_encoder(8, 1)],
)
def test_encoder_text_roundtrip_is_byte_identical(make):
    enc = make()
    text = fcc.encoder_to_text(enc)
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == [str(p) for p in enc.parities]
    again = fcc.encoder_from_text(text)
    assert again.parities == enc.parities
    assert fcc.encoder_to_text(again) == text


def test_encoder_text_rejects_malformed_parity_lines():
    text = fcc.encoder_to_text(functions.delta_ramp_encoder(6, 3, 1))
    lines = text.splitlines(keepends=True)
    last = lines[-1].strip()
    for bad in ("0" * len(last) + "x", last + "0", ""):  # not bits, too long, missing
        with pytest.raises(ValueError):
            fcc.encoder_from_text("".join(lines[:-1]) + (bad + "\n" if bad else ""))


def test_encoder_text_zero_redundancy():
    enc = fcc.build_function_value_encoder(functions.constant_spec(4), 1)
    again = fcc.encoder_from_text(fcc.encoder_to_text(enc))
    assert again.r == 0
    assert again.encode(BitWord.zeros(4)).length == 4


def test_encoder_text_k_mismatch_rejected():
    enc = functions.wt_cyclic_encoder(6, 1)
    text = fcc.encoder_to_text(enc)
    wrong_spec = functions.wt_spec(7)
    with pytest.raises(ValueError):
        fcc.encoder_from_text(text, wrong_spec)
