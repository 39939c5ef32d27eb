"""Bit words, Hamming metric, distance matrices, and the code text format."""

from __future__ import annotations

import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcodes.bits import (
    BitWord,
    Code,
    DistanceMatrix,
    _at_least,
    _byte_planes,
    _shells,
    _weight_shell,
    _xor_translate,
    all_words,
    hamming_distance,
    satisfies_distance_matrix,
    sphere_size,
)
from fcodes.simulate import error_patterns

words = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
)


def w(text: str) -> BitWord:
    return BitWord.from_string(text)


# --- BitWord basics ----------------------------------------------------------


def test_bit_zero_is_leftmost():
    u = w("1000")
    assert u.bit(0) == 1
    assert u.bit(3) == 0
    assert u.bits() == (1, 0, 0, 0)
    assert str(u) == "1000"


def test_from_string_rejects_junk():
    with pytest.raises(ValueError):
        BitWord.from_string("10x1")
    # the empty string is the legitimate empty word (zero parity bits)
    assert BitWord.from_string("") == BitWord.zeros(0)


def test_flip_and_weight():
    u = w("0000").flip([0, 3])
    assert str(u) == "1001"
    assert u.weight() == 2
    assert u.flip([0]).weight() == 1


def test_concat_split_roundtrip():
    u, p = w("1101"), w("011")
    c = u.concat(p)
    assert str(c) == "1101011"
    left, right = c.split(4)
    assert (left, right) == (u, p)


def test_xor_requires_equal_lengths():
    with pytest.raises(ValueError):
        w("101") ^ w("1010")


def test_empty_word_allowed():
    e = BitWord.zeros(0)
    assert e.length == 0 and str(e) == ""
    assert w("101").concat(e) == w("101")


@given(words, words)
def test_distance_is_xor_weight(a, b):
    n, av = a
    bv = b[1] % (1 << n)
    x, y = BitWord(av, n), BitWord(bv, n)
    assert hamming_distance(x, y) == (x ^ y).weight()


@given(words, words, words)
def test_triangle_inequality(a, b, c):
    n = a[0]
    x = BitWord(a[1], n)
    y = BitWord(b[1] % (1 << n), n)
    z = BitWord(c[1] % (1 << n), n)
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


@given(words)
def test_distance_to_self_is_zero(a):
    x = BitWord(a[1], a[0])
    assert hamming_distance(x, x) == 0


def test_all_words_order_and_count():
    ws = list(all_words(3))
    assert len(ws) == 8
    assert [x.value for x in ws] == list(range(8))
    assert str(ws[1]) == "001"  # integer 1 is the last bit set


# --- spheres and shifted mod -------------------------------------------------


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << (1 << n)) - 1),
        st.integers(min_value=0, max_value=(1 << n) - 1),
    )
))
def test_xor_translate_maps_each_word_v_to_v_xor_e(case):
    n, mask, e = case
    want = sum(1 << (v ^ e) for v in range(1 << n) if mask >> v & 1)
    assert _xor_translate(mask, n, e) == want


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
))
def test_shell_d_holds_the_words_within_d_of_the_set(case):
    n, mask = case
    members = [v for v in range(1 << n) if mask >> v & 1]
    levels = list(_shells(mask, n))
    assert len(levels) == n + 1
    for d, level in enumerate(levels):
        want = sum(1 << y for y in range(1 << n) if any((y ^ v).bit_count() <= d for v in members))
        assert level == want


def test_weight_shell_sizes_and_order():
    for n in range(9):
        for w in range(n + 1):
            shell = _weight_shell(n, w)
            assert len(shell) == math.comb(n, w)
            assert all(e.bit_count() == w and e < 1 << n for e in shell)
            # ascending as sets of integer bit indices: lexicographic
            index_sets = [[b for b in range(n) if e >> b & 1] for e in shell]
            assert index_sets == sorted(index_sets)
            assert len(set(shell)) == len(shell)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 40) - 1), max_size=7),
       st.integers(min_value=1, max_value=4))
def test_at_least_counts_each_bit_across_the_masks(masks, m):
    want = sum(1 << b for b in range(40) if sum(x >> b & 1 for x in masks) >= m)
    assert _at_least(masks, m) == want


def _error_patterns_by_flipping(n: int, t: int):
    """The enumeration error_patterns replaced: weight first, then position
    sets in lexicographic order, each pattern flipped from the zero word."""
    yield BitWord.zeros(n)
    for wgt in range(1, min(t, n) + 1):
        for positions in combinations(range(n), wgt):
            yield BitWord.zeros(n).flip(positions)


def test_error_patterns_match_the_flipping_oracle():
    for n in range(11):
        for t in range(5):
            assert list(error_patterns(n, t)) == list(_error_patterns_by_flipping(n, t)), (n, t)


def _byte_planes_by_word(table: bytes) -> list[int]:
    """Plane b from the table word by word: the words whose byte has bit b set."""
    return [sum(1 << v for v, byte in enumerate(table) if byte >> b & 1) for b in range(8)]


def test_byte_planes_select_words_by_bit():
    table = bytes([3, 0, 255, 3, 7, 0, 0, 3])
    assert _byte_planes(table)[:3] == [0b10011101, 0b10011101, 0b00010100]
    rng = random.Random(8)
    # lengths below one 8-word block, one block, a partial last block, and
    # whole 2^k-word tables
    for size in [1, 2, 4, 8, 12, 100] + [1 << k for k in range(15)]:
        table = bytes(rng.randrange(256) for _ in range(size))
        assert _byte_planes(table) == _byte_planes_by_word(table), size


def test_sphere_size_values():
    assert sphere_size(5, 0) == 1
    assert sphere_size(5, 1) == 6
    assert sphere_size(5, 2) == 16
    assert sphere_size(5, 5) == 32
    assert sphere_size(5, 9) == 32  # radius past n saturates
    assert sphere_size(5, -1) == 0


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_sphere_size_recurrence(n, r):
    # V(n, r) = V(n, r-1) + C(n, r)
    assert sphere_size(n, r) == sphere_size(n, r - 1) + math.comb(n, r) * (r <= n)




# --- DistanceMatrix ----------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix.from_rows([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix.from_rows([[1, 0], [0, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        DistanceMatrix.from_rows([[0, -1], [-1, 0]])  # negative


@pytest.mark.parametrize(
    "rows,message",
    [
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        ([[0, 1], [1, 0, 2]], "row 1 has length 3, expected 2"),
        ([[0, 1], [1, 3]], "nonzero diagonal at 1: 3"),
        ([[0, 1, 1], [1, 0, -2], [1, -2, 0]], "negative entry at (1, 2): -2"),
        ([[0, 1, 2], [1, 0, 1], [3, 1, 0]], "asymmetry at (0, 2): 2 vs 3"),
        # the first violation row by row wins
        ([[0, 2, 1], [1, 0, 0], [1, 0, 5]], "asymmetry at (0, 1): 2 vs 1"),
        ([[0, -1, 4], [-1, 0, 0], [1, 0, 0]], "negative entry at (0, 1): -1"),
    ],
)
def test_matrix_validation_names_the_first_violation(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DistanceMatrix.from_rows(rows)


def _first_violation(rows):
    """The row-by-row scan: the message of the first fault, or None."""
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            return f"row {i} has length {len(row)}, expected {m}"
        if row[i] != 0:
            return f"nonzero diagonal at {i}: {row[i]}"
        for j, e in enumerate(row):
            if e < 0:
                return f"negative entry at ({i}, {j}): {e}"
            if e != rows[j][i]:
                return f"asymmetry at ({i}, {j}): {e} vs {rows[j][i]}"
    return None


def test_matrix_validation_matches_the_row_scan_on_random_faults():
    rng = random.Random(248)
    for _ in range(400):
        m = rng.randint(0, 6)
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                rows[i][j] = rows[j][i] = rng.randint(0, 4)
        for _ in range(rng.randint(0, 2)):  # a few faults, or none
            if m:
                i, j = rng.randrange(m), rng.randrange(m)
                rows[i][j] = rng.randint(-2, 4)
        if m and rng.random() < 0.1:
            rows[rng.randrange(m)].pop()
        want = _first_violation(rows)
        if want is None:
            assert DistanceMatrix.from_rows(rows).entries == tuple(map(tuple, rows))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                DistanceMatrix.from_rows(rows)


def test_matrix_json_roundtrip():
    d = DistanceMatrix.from_rows([[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    again = DistanceMatrix.from_json(d.to_json())
    assert again == d
    assert '"dim": 3' in d.to_json()


@pytest.mark.parametrize(
    "text",
    [
        "[[0,1],[1,0]]",  # a bare list
        '{"rows": 3}',  # no entries
        '{"entries": null}',
        "5",
        '{"entries": [[0,1.5],[1.5,0]]}',  # a float is not truncated to 1
        '{"entries": [[0,true],[true,0]]}',  # nor is a bool read as 1
        '{"entries": [0,1]}',  # rows that are not lists
    ],
)
def test_matrix_json_rejects_other_shapes(text):
    with pytest.raises(ValueError):
        DistanceMatrix.from_json(text)


def test_matrix_permuted():
    d = DistanceMatrix.from_rows([[0, 2, 1], [2, 0, 3], [1, 3, 0]])
    p = d.permuted([2, 0, 1])
    assert p.at(0, 1) == d.at(2, 0)
    assert p.at(1, 2) == d.at(0, 1)


def test_uniform_matrix():
    d = DistanceMatrix.uniform(4, 5)
    assert d.max_entry == 5
    assert all(d.at(i, j) == 5 for i in range(4) for j in range(4) if i != j)


# --- Code text format --------------------------------------------------------


def test_code_text_roundtrip_with_comments():
    c = Code.from_strings(["000", "110", "011"])
    text = c.to_text("three parities")
    assert text.startswith("# three parities\n")
    again = Code.from_text(text)
    assert list(again) == list(c)


def test_code_from_text_skips_blanks_and_reports_line():
    text = "# header\n\n01\n 10 \nxx\n"
    with pytest.raises(ValueError) as err:
        Code.from_text(text)
    assert "line 5" in str(err.value)


def test_code_from_text_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        Code.from_text("01\n011\n")
    with pytest.raises(ValueError):
        Code.from_text("# only comments\n")


def test_satisfies_distance_matrix_reports_first_pair():
    d = DistanceMatrix.from_rows([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    good = Code.from_strings(["000", "011", "101"])
    ok, witness = satisfies_distance_matrix(good, d)
    assert ok and witness is None
    bad = Code.from_strings(["000", "011", "010"])
    ok, witness = satisfies_distance_matrix(bad, d)
    assert not ok
    assert witness == (0, 2)  # row-major first violation


def test_satisfies_skips_zero_requirements():
    d = DistanceMatrix.from_rows([[0, 0], [0, 0]])
    same = Code.from_strings(["01", "01"])
    ok, _ = satisfies_distance_matrix(same, d)
    assert ok
