"""Binary words, block codes and distance-requirement matrices.

Words are fixed-length bit strings packed into Python ints. Bit index 0 is
the leftmost (most significant) position, so the integer value of a word is
just its bit string read as a binary numeral. All distance work is Hamming.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class BitWord:
    """An immutable bit string of known length, packed into an int."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")

    @classmethod
    def from_string(cls, text: str) -> BitWord:
        text = text.strip()
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(text, 2) if text else 0, len(text))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> BitWord:
        value = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {b!r}")
            value = (value << 1) | b
            n += 1
        return cls(value, n)

    @classmethod
    def zeros(cls, n: int) -> BitWord:
        return cls(0, n)

    @classmethod
    def ones(cls, n: int) -> BitWord:
        return cls((1 << n) - 1, n)

    def bit(self, i: int) -> int:
        """Bit at position i, counting 0 = leftmost/most significant."""
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.value >> (self.length - 1 - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.length - 1 - i)) & 1 for i in range(self.length))

    def weight(self) -> int:
        return self.value.bit_count()

    def flip(self, positions: Iterable[int]) -> BitWord:
        """Flip the bits at the given positions (0 = leftmost)."""
        mask = 0
        for i in positions:
            if not 0 <= i < self.length:
                raise IndexError(f"bit index {i} out of range for length {self.length}")
            mask |= 1 << (self.length - 1 - i)
        return BitWord(self.value ^ mask, self.length)

    def concat(self, other: BitWord) -> BitWord:
        return BitWord((self.value << other.length) | other.value, self.length + other.length)

    def split(self, left_length: int) -> tuple[BitWord, BitWord]:
        """Split into a (left, right) pair with the given left length."""
        if not 0 <= left_length <= self.length:
            raise ValueError(f"cannot take {left_length} leading bits of {self.length}")
        right_length = self.length - left_length
        return (
            BitWord(self.value >> right_length, left_length),
            BitWord(self.value & ((1 << right_length) - 1) if right_length else 0, right_length),
        )

    def __xor__(self, other: BitWord) -> BitWord:
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitWord(self.value ^ other.value, self.length)

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"BitWord('{self}')"


def hamming_distance(a: BitWord, b: BitWord) -> int:
    """Number of positions where two equal-length words differ."""
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return (a.value ^ b.value).bit_count()


def all_words(length: int) -> Iterator[BitWord]:
    """All words of a length in lexicographic (= integer) order."""
    for v in range(1 << length):
        yield BitWord(v, length)


# --- word sets as masks -------------------------------------------------------
# A set of n-bit words is a 2^n-bit int whose bit v is set when word v is in it.

_EXPAND_PATTERNS: dict[int, list[int]] = {}


def _bit_set_patterns(n: int) -> list[int]:
    """For each word bit b, the mask of all n-bit words with that bit set."""
    if n not in _EXPAND_PATTERNS:
        pats = []
        for b in range(n):
            s = 1 << b
            pat = ((1 << s) - 1) << s  # words 0..2s-1 with bit b set
            width = 2 * s
            while width < 1 << n:
                pat |= pat << width
                width *= 2
            pats.append(pat)
        _EXPAND_PATTERNS[n] = pats
    return _EXPAND_PATTERNS[n]


def _expand_once(mask: int, n: int) -> int:
    """The set together with every word one bit flip away from it."""
    out = mask
    for b, pat in enumerate(_bit_set_patterns(n)):
        s = 1 << b
        out |= (mask & ~pat) << s
        out |= (mask & pat) >> s
    return out


def _xor_translate(mask: int, n: int, e: int) -> int:
    """The set {v ^ e : v in it}: one half-swap of the words with and without
    bit b for each bit b set in e."""
    pats = _bit_set_patterns(n)
    while e:
        low = e & -e
        e ^= low
        pat = pats[low.bit_length() - 1]
        mask = ((mask & ~pat) << low) | ((mask & pat) >> low)
    return mask


def _shells(mask: int, n: int) -> Iterator[int]:
    """The set grown by 0, 1, ..., n shells (level d: the words within d of
    it), each level grown only when asked for; only the latest is kept."""
    yield mask
    for _ in range(n):
        mask = _expand_once(mask, n)
        yield mask


def _at_least(masks: Iterable[int], m: int) -> int:
    """The bits set in at least m >= 1 of the masks, counted bit-sliced:
    reach[j] holds the bits set in more than j of the masks so far."""
    reach = [0] * m
    for mask in masks:
        for j in range(m - 1, 0, -1):
            reach[j] |= reach[j - 1] & mask
        reach[0] |= mask
    return reach[-1]


_WEIGHT_SHELLS: dict[int, list[list[int]]] = {}


def _weight_shell(n: int, w: int) -> list[int]:
    """Every n-bit mask of weight w <= n, cached per n, in ascending order of
    their sets of integer bit indices. Shell w extends each mask of shell
    w-1 above its highest bit."""
    shells = _WEIGHT_SHELLS.setdefault(n, [[0]])
    while len(shells) <= w:
        shells.append([m | (1 << b) for m in shells[-1] for b in range(m.bit_length(), n)])
    return shells[w]


def _low_weight_masks(n: int, rho: int) -> list[int]:
    """Every n-bit mask of weight 1..rho, lightest first."""
    return [e for w in range(1, min(rho, n) + 1) for e in _weight_shell(n, w)]


def _table_masks(table: bytes, groups: Iterable[Iterable[int]]) -> list[int]:
    """Per group of byte values, the set of words v whose table[v] is in it.

    `table` holds one byte per n-bit word, word 0 first. Reversed, each byte
    mapped to the digit 1 or 0 reads as the mask in binary, so a group costs
    one bytes.translate and one int parse.
    """
    digits = table[::-1]
    out = []
    for group in groups:
        select = bytearray(b"0" * 256)
        for v in group:
            select[v] = ord("1")
        out.append(int(digits.translate(select), 2))
    return out


def sphere_size(n: int, radius: int) -> int:
    """Number of length-n words within Hamming distance `radius` of a fixed word.

    Sum of binomials C(n, i) for i = 0..radius; a negative radius gives 0 and a
    radius above n just counts the whole space.
    """
    if n < 0:
        raise ValueError(f"negative length {n}")
    if radius < 0:
        return 0
    return sum(math.comb(n, i) for i in range(min(radius, n) + 1))


@dataclass(frozen=True)
class DistanceMatrix:
    """A symmetric matrix of non-negative pairwise distance requirements.

    Entry (i, j) is the minimum Hamming distance required between the i-th and
    j-th word of a code; the diagonal is zero. Entries are plain ints.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.entries
        m = len(rows)
        # equal to its transpose implies square: zip stops at the shortest row
        if (
            tuple(zip(*rows)) == rows
            and not any(map(getitem, rows, range(m)))
            and (not rows or min(map(min, rows)) >= 0)
        ):
            return
        # something is wrong: find the first violation, row by row
        for i, row in enumerate(rows):
            if len(row) != m:
                raise ValueError(f"row {i} has length {len(row)}, expected {m}")
            if row[i] != 0:
                raise ValueError(f"nonzero diagonal at {i}: {row[i]}")
            for j, e in enumerate(row):
                if e < 0:
                    raise ValueError(f"negative entry at ({i}, {j}): {e}")
                if e != rows[j][i]:
                    raise ValueError(f"asymmetry at ({i}, {j}): {e} vs {rows[j][i]}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> DistanceMatrix:
        return cls(tuple(tuple(map(int, row)) for row in rows))

    @classmethod
    def uniform(cls, dim: int, dist: int) -> DistanceMatrix:
        """The regular matrix: `dist` everywhere off the diagonal."""
        return cls(
            tuple(
                tuple(dist if i != j else 0 for j in range(dim)) for i in range(dim)
            )
        )

    @property
    def dim(self) -> int:
        return len(self.entries)

    def at(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @cached_property
    def max_entry(self) -> int:
        return max((e for row in self.entries for e in row), default=0)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def permuted(self, order: Sequence[int]) -> DistanceMatrix:
        """The matrix with rows and columns reindexed by `order`."""
        if sorted(order) != list(range(self.dim)):
            raise ValueError(f"not a permutation of 0..{self.dim - 1}: {order}")
        return DistanceMatrix(
            tuple(tuple(self.entries[i][j] for j in order) for i in order)
        )

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "entries": [list(r) for r in self.entries]})

    @classmethod
    def from_json(cls, text: str) -> DistanceMatrix:
        """Read `{"entries": [[...], ...]}` (optionally with "dim"); any
        other shape, or an entry that is not a JSON integer, is a ValueError."""
        data = json.loads(text)
        rows = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(e) is int for e in row) for row in rows
        ):
            raise ValueError("matrix JSON needs an object whose 'entries' are lists of integers")
        m = cls.from_rows(rows)
        if "dim" in data and data["dim"] != m.dim:
            raise ValueError(f"dim field {data['dim']} does not match {m.dim} rows")
        return m


@dataclass(frozen=True)
class Code:
    """An ordered list of equal-length binary words (repeats allowed)."""

    words: tuple[BitWord, ...]
    length: int

    def __post_init__(self) -> None:
        for w in self.words:
            if w.length != self.length:
                raise ValueError(f"word {w} has length {w.length}, expected {self.length}")

    @classmethod
    def of(cls, words: Iterable[BitWord], length: int | None = None) -> Code:
        ws = tuple(words)
        if length is None:
            if not ws:
                raise ValueError("cannot infer length of an empty code")
            length = ws[0].length
        return cls(ws, length)

    @classmethod
    def from_strings(cls, strings: Iterable[str], length: int | None = None) -> Code:
        return cls.of((BitWord.from_string(s) for s in strings), length)

    @property
    def size(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[BitWord]:
        return iter(self.words)

    def __getitem__(self, i: int) -> BitWord:
        return self.words[i]

    def to_text(self, header: str | None = None) -> str:
        lines = []
        if header:
            lines.extend(f"# {line}" for line in header.splitlines())
        lines.extend(str(w) for w in self.words)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> Code:
        """Parse one word per line; blank lines and '#' comments are skipped."""
        words = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                words.append(BitWord.from_string(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        if not words:
            raise ValueError("no codewords in text")
        lengths = {w.length for w in words}
        if len(lengths) > 1:
            raise ValueError(f"unequal word lengths: {sorted(lengths)}")
        return cls.of(words)


def satisfies_distance_matrix(
    code: Code, dmat: DistanceMatrix
) -> tuple[bool, tuple[int, int] | None]:
    """Check every pair of codewords against its required distance.

    Returns (True, None) on success, else (False, (i, j)) with the first
    violating index pair in row-major order (i < j).
    """
    if code.size != dmat.dim:
        raise ValueError(f"code has {code.size} words but matrix is {dmat.dim}x{dmat.dim}")
    vals = [w.value for w in code.words]
    for i in range(code.size):
        row = dmat.entries[i]
        vi = vals[i]
        for j in range(i + 1, code.size):
            need = row[j]
            if need and (vi ^ vals[j]).bit_count() < need:
                return False, (i, j)
    return True, None
