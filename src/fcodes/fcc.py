"""Function-correcting encoders: requirement matrices, builders, verification.

A systematic encoder sends (u, p(u)); it protects a function f when any two
messages with different f-values end up at combined distance >= 2t+1, so a
receiver seeing at most t substitutions can always recover f(u) (never
necessarily u itself). This module turns a function into its distance
requirements, builds parity rules meeting them, checks encoders exhaustively,
and decodes: one received word by a nearest-codeword search (`decode`), or
every word near the code at once, as per-value tables that agree with
`decode` word for word (`_nearest_value_masks`).
"""

from __future__ import annotations

import math
import random
import re
import sys
from array import array
from collections import Counter
from functools import cached_property, reduce
from itertools import count, filterfalse, islice
from operator import methodcaller, xor
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import bounds, construct
from .bits import BitWord, Code, DistanceMatrix, Record, all_words, sphere_size
from .bits import _at_least, _bit_set_patterns, _byte_planes, _expand_once, _low_weight_masks
from .bits import _popcount_rows, _set_bits, _shells, _weight_shell

FunctionValue = Any  # any value with equality and a stable total order
TABLE_MAX_K = 24  # the largest k whose 2^k-entry value table is built


class FunctionSpec:
    """A total function on k-bit messages with an enumerated, ordered image.

    `fn` maps the integer form of a message (bit 0 = leftmost) to a value;
    `image` fixes the indexing order used by every matrix in this package.
    `bulk_table`, when given, returns the whole `index_table` at once (a
    family's own whole-space builder: byte tables for the weight families
    and min-max, the quantizer layout for the ML activations); it
    must agree with tabulating `fn`, which encoding and the message-level
    matrices keep calling. Without it, `index_table` calls `fn` once per
    message; either way `_compact` packs it once, as it packs message keys.
    `weight_index`, for a function of the weight alone, is the image index
    of each weight 0..k: value distances, the per-value class check and the
    image check read it, not a table. Without it the image is checked on
    `index_table` for k <= 16, above that on a deterministic sample, and
    `index_table` still rejects any value or index outside the image.
    """

    def __init__(
        self,
        k: int,
        fn: Callable[[int], FunctionValue],
        image: Iterable[FunctionValue],
        *,
        name: str = "f",
        value_label: Callable[[FunctionValue], str] | None = None,
        bulk_table: Callable[[], Sequence[int]] | None = None,
        weight_index: Sequence[int] | None = None,
    ):
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        self.k = k
        self.fn = fn
        self.image = tuple(image)
        self.name = name
        self.value_label = value_label or str
        self.bulk_table = bulk_table
        self.weight_index = weight_index
        self._index = {v: i for i, v in enumerate(self.image)}
        if len(self._index) != len(self.image):
            raise ValueError("image contains duplicates")
        self._validate()

    def _validate(self) -> None:
        e, weights = len(self.image), self.weight_index
        if weights is not None and len(weights) != self.k + 1:
            raise ValueError(f"need a weight map of k+1 = {self.k + 1} entries")
        if weights is not None or self.k <= 16:  # every index below E must be named
            table = self.index_table if weights is None else _compact(weights, e)
            unseen = (sorted(set(range(e)) - set(table)) if e > 256
                      else bytes(range(e)).translate(None, table))
            if unseen:
                missing = [self.image[i] for i in unseen]
                raise ValueError(f"image values never attained: {missing!r}")
        else:
            rng = random.Random(0)
            sample = {0, (1 << self.k) - 1}
            sample.update(rng.randrange(1 << self.k) for _ in range(256))
            for u in sample:
                if self.fn(u) not in self._index:
                    raise ValueError(f"f({u:0{self.k}b}) not in declared image")

    @property
    def expressiveness(self) -> int:
        return len(self.image)

    def index_of(self, value: FunctionValue) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(f"value {value!r} not in image") from None

    @cached_property
    def index_table(self) -> bytes | memoryview:
        """Image index of f(u) for every message integer u, compact (`_compact`).

        Raises ValueError at the first message whose value is not in the
        image, and at a `bulk_table` index beyond it."""
        if self.k > TABLE_MAX_K:
            raise ValueError(f"k={self.k} too large to tabulate")
        idx, fn, e = self._index, self.fn, len(self.image)
        if self.bulk_table is not None:
            return _compact(self.bulk_table(), e)
        try:
            return _compact([idx[fn(u)] for u in range(1 << self.k)], e)
        except KeyError:
            for u in range(1 << self.k):
                if fn(u) not in idx:
                    raise ValueError(f"f({u:0{self.k}b}) not in declared image") from None
            raise

    @cached_property
    def preimage_masks(self) -> tuple[int, ...]:
        """Per image index, the set of preimages as a 2^k-bit integer mask.

        The index table's bit planes split the whole space, top plane first:
        each prefix's mask m splits into (m ^ (m & p), m & p) on plane p, and
        a prefix whose indices all lie at E or above is dropped."""
        e = len(self.image)
        width = (e - 1).bit_length()
        planes = _bit_planes(self.index_table, width)
        masks = [(1 << (1 << self.k)) - 1]  # per prefix of the top bits of the index
        for b in reversed(range(width)):
            split = []
            for m in masks:
                hi = m & planes[b]
                split += (m ^ hi, hi)
            masks = split[: -(-e >> b)]  # the prefixes of indices below E
        return tuple(masks)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FunctionSpec({self.name!r}, k={self.k}, E={self.expressiveness})"


# --- distance requirements -------------------------------------------------


def distance_requirement_matrix(
    spec: FunctionSpec, t: int, us: Sequence[BitWord]
) -> DistanceMatrix:
    """Pairwise parity-distance requirements for the given messages.

    Entry (i, j) is max(2t+1 - d(u_i, u_j), 0) when the function values
    differ and 0 when they agree: exactly what the parity words must make up
    for the messages' own distance. Values are compared by image index, so a
    message whose value is outside the image is a ValueError. This is
    `requirement_matrix`'s rule on the upper triangle only: exact search
    builds this matrix per function, and at k = 4 the full square table
    through that helper took 1.3 times as long (62 against 47 us, 2 cores).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    vals = []
    idx = []
    seen = set()
    for u in us:
        if u.length != spec.k:
            raise ValueError(f"message length {u.length}, expected {spec.k}")
        if u.value in seen:
            raise ValueError(f"duplicate message {u}")
        seen.add(u.value)
        vals.append(u.value)
        idx.append(spec.index_of(spec.fn(u.value)))
    need = 2 * t + 1
    m = len(vals)
    rows = [[0] * m for _ in range(m)]
    for i in range(m):  # the upper triangle, mirrored as it is filled
        vi, fi, row = vals[i], idx[i], rows[i]
        for j in range(i + 1, m):
            if idx[j] != fi:
                row[j] = rows[j][i] = max(need - (vi ^ vals[j]).bit_count(), 0)
    return DistanceMatrix(tuple(map(tuple, rows)))


def _closest_approaches(
    masks: Sequence[int],
    n: int,
    pending: list[Iterable[int]],
    limits: Sequence[Sequence[int]],
    rows: list[list[int]] | None = None,
) -> bool:
    """Whether some pair of pairwise disjoint n-bit word sets, i < j with j
    in pending[i], comes within its limit: closest approach d <= limits[i][j],
    where every pending pair has a limit of at least 1. With `rows`, d is
    written to rows[i][j] and rows[j][i] for every such pair; without, the
    search stops at the first. `pending` is updated in place.

    Balls grow from both sides: B_L(i), the words within L of masks[i],
    meets B_M(j) iff d(i, j) <= L + M. Every ball grows one shell per round;
    at round L a pair still pending (so farther than 2L - 2) is at 2L - 1
    when B_L(i) meets B_{L-1}(j), else at 2L when B_L(i) meets B_L(j). The
    sets are disjoint, so round 0 is skipped; a pair stops pending once
    settled or past its limit, from round 2 on only the balls of pending
    pairs grow, and the search stops when no pair is left, with two rounds
    of balls alive.
    """
    balls, found = masks, False
    for odd in count(1, 2):  # 2L - 1
        if not any(pending):
            return found
        if odd == 1:  # every ball; collecting pending pairs costs as much as testing them
            live = range(len(masks))
        else:
            live = {i for i, js in enumerate(pending) if js}.union(*pending)
        inner, balls = balls, [_expand_once(m, n) if i in live else m for i, m in enumerate(balls)]
        for i, js in enumerate(pending):
            ball, lim, row, still = balls[i], limits[i], rows and rows[i], []
            for j in js:
                if ball & inner[j]:
                    d = odd
                elif lim[j] > odd and ball & balls[j]:
                    d = odd + 1
                else:
                    if lim[j] > odd + 1:
                        still.append(j)
                    continue
                if rows is None:
                    return True
                found = True
                row[j] = rows[j][i] = d
            pending[i] = still


def _one_message(masks: Sequence[int]) -> list[int]:
    """The indices of the one-message sets among `masks`, where they are
    more than twice as many as the others; else none, and the ball route
    takes every set. Split off, a many-message set's ball grows one-sided
    to the full depth, then from both sides against the other many-message
    sets: about three half-depth growths each, where the ball route grows
    every set to half the depth. (Value distances at k = 8-10, t = 2 ran
    1.1-1.4x the ball route's time with as many one-message values as
    others, and 0.8-1.0x with twice as many; 2 cores, Python 3.11.)"""
    one = [i for i, m in enumerate(masks) if m.bit_count() == 1]
    return one if len(one) > 2 * (len(masks) - len(one)) else []


def _first_reached(mask: int, k: int, targets: int, depth: int) -> Iterator[tuple[int, int]]:
    """For d = 1..depth, while any is left: d and the messages of `targets`
    first within d of the set `mask`, its ball grown one shell at a time."""
    ball = mask
    for d in range(1, depth + 1):
        if not targets:
            return
        ball = _expand_once(ball, k)
        hit = ball & targets
        targets ^= hit
        yield d, hit


def value_distances(spec: FunctionSpec, max_d: int) -> list[list[int]]:
    """The function distance d_f between every two values, in image order:
    the closest approach of their preimage sets. With a weight map it is the
    least |a - b| over weights a, b of the two values (nested messages meet
    it). Else the preimage masks grow from both sides (`_closest_approaches`),
    once one-message values, where they are split off (`_one_message`), are
    settled: two are popcount(u ^ v) apart, a whole row at once
    (`_popcount_rows`), and a many-message value's mask grows one shell at
    a time, the one-message values each shell reaches read off the index
    table. Distances above max_d are reported as max_d + 1; max_d >= k gives every
    distance exactly. The masks are read before the E x E rows are made, so
    a spec too large to tabulate is refused before they take any memory.
    """
    e, weights, k = len(spec.image), spec.weight_index, spec.k
    masks = spec.preimage_masks if weights is None else ()
    rows = [[max_d + 1] * e for _ in range(e)]
    for i in range(e):
        rows[i][i] = 0
    if weights is not None:
        for a, i in enumerate(weights):
            row = rows[i]
            for d, j in enumerate(weights[a + 1 : a + 1 + max_d], 1):
                if d < row[j]:
                    row[j] = rows[j][i] = d
        return rows
    one, near = _one_message(masks), rows
    if one:  # two one-message values: their popcount, clamped to max_d + 1
        ones = set(one)
        many = [i for i in range(e) if i not in ones]
        top = min(max_d + 1, 255)  # d <= k, so 255 clamps nothing
        clamp = bytes(range(top)).ljust(256, bytes([top]))
        for i, popcounts in enumerate(_popcount_rows([m.bit_length() - 1 for m in masks], k)):
            if i in ones:
                rows[i] = row = list(popcounts.translate(clamp))
                for j in many:
                    row[j] = max_d + 1
        # the masks split the 2^k messages: the one-message values hold the rest
        idx, singles = spec.index_table, reduce(xor, map(masks.__getitem__, many), (1 << (1 << k)) - 1)
        for j in many:  # each many-message ball, grown to the one-message values it reaches
            for d, hit in _first_reached(masks[j], k, singles, max_d):
                for u in _set_bits(hit):
                    rows[j][idx[u]] = rows[idx[u]][j] = d
        masks, near = [masks[j] for j in many], [[max_d + 1] * len(many) for _ in many]
    m = len(masks)  # the many-message values grow from both sides
    pending = [range(a + 1, m) if max_d >= 1 else () for a in range(m)]
    _closest_approaches(masks, k, pending, [[max_d] * m] * m, near)
    if one:
        for a, i in enumerate(many):
            for b, j in enumerate(many):
                if a != b:
                    rows[i][j] = near[a][b]
    return rows


def requirement_matrix(distances: Iterable[Sequence[int]], t: int, top: int) -> DistanceMatrix:
    """Requirements max(2t+1 - d, 0) of a square table of distances d, all
    in 0..top, through one lookup list; the diagonal is zero whatever the
    table says there."""
    need = 2 * t + 1
    lut = [max(need - d, 0) for d in range(top + 1)]
    rows = []
    for i, row in enumerate(distances):
        row = list(map(lut.__getitem__, row))
        row[i] = 0
        rows.append(tuple(row))
    return DistanceMatrix(tuple(rows))


def function_distance_matrix(spec: FunctionSpec, t: int) -> DistanceMatrix:
    """Requirement matrix between function values, indexed in image order.

    Entry (i, j) is max(2t+1 - d_f(f_i, f_j), 0) where d_f is the closest
    approach between the two preimage sets. This is what per-function-value
    parity words must satisfy. Values 2t+1 or more apart need nothing, so
    the value distances are searched to 2t only (and run 0..2t+1).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    return requirement_matrix(value_distances(spec, 2 * t), t, 2 * t + 1)


# --- encoders ----------------------------------------------------------------

PER_VALUE = "per-function-value"
PER_MESSAGE = "per-message"


class FccEncoder(Record):
    """A systematic encoder u -> (u, p(u)), where p(u) = words[key[u]].

    `words` are r-bit parity words as ints. Without `message_key` the
    encoder is per-function-value: words[i] is the parity of image index i,
    and the key is the image index, read through `spec.index_table` when a
    whole table is wanted and never stored. With it the encoder is
    per-message: the words are distinct, and `message_key` holds one word
    index per message integer, packed and checked as `spec.index_table` is
    (`_compact`), compared by `==` but not hashed. `parity_ints`, the
    parity of every message, is a cached view.
    """

    _fields = ("spec", "t", "r", "words", "message_key")  # no __slots__: a cached view
    _hashed = 4

    def __init__(self, spec: FunctionSpec, t: int, r: int, words: tuple[int, ...],
                 message_key: bytes | memoryview | None = None) -> None:
        key, count = message_key, len(words)
        if key is None and count != spec.expressiveness:
            raise ValueError(f"{PER_VALUE} encoder needs {spec.expressiveness} parities, got {count}")
        if key is not None:
            if len(set(words)) != count:
                raise ValueError(f"{PER_MESSAGE} parity words repeat")
            key = _compact(key, count)  # packed and checked once, here
            if len(key) != 1 << spec.k:
                raise ValueError(f"{PER_MESSAGE} encoder needs {1 << spec.k} parities, "
                                 f"got {len(key)}")
        if r < 0:
            raise ValueError(f"negative parity length {r}")
        for w in set(words):
            if not 0 <= w < 1 << r:
                raise ValueError(f"parity {w} does not fit in {r} bits")
        self._init(spec, t, r, words, key)

    @property
    def mode(self) -> str:
        return PER_VALUE if self.message_key is None else PER_MESSAGE

    @property
    def key(self) -> Sequence[int]:
        """The word index of every message: its image index per value, else
        the message key."""
        return self.spec.index_table if self.message_key is None else self.message_key

    @property
    def block_length(self) -> int:
        return self.spec.k + self.r

    def parity(self, u: BitWord) -> BitWord:
        """p(u); a per-value encoder evaluates f at u, so encoding tabulates
        nothing (a spec without a weight map tabulates its values at k <= 16
        to check its image)."""
        if u.length != self.spec.k:
            raise ValueError(f"message length {u.length}, expected {self.spec.k}")
        if self.message_key is None:
            return BitWord(self.words[self.spec.index_of(self.spec.fn(u.value))], self.r)
        return BitWord(self.words[self.message_key[u.value]], self.r)

    def encode(self, u: BitWord) -> BitWord:
        return u.concat(self.parity(u))

    @cached_property
    def parity_ints(self) -> list[int]:
        """Parity of every message, as integers indexed by message value."""
        return list(map(self.words.__getitem__, self.key))


def _compact(table: Sequence[int], count: int) -> bytes | memoryview:
    """A table of indices below `count`: one byte each up to 256, else a
    read-only view of 32-bit ints; one already in that form is not copied.
    Raises ValueError naming an index outside range(count)."""
    try:
        if count <= 256:
            table = table if isinstance(table, bytes) else bytes(table)
            stray = table.translate(None, bytes(range(count)))  # every valid index deleted
        else:
            table = table if isinstance(table, memoryview) else memoryview(array("I", table)).toreadonly()
            stray = [top] if (top := max(table, default=0)) >= count else []
    except (ValueError, OverflowError):  # an index the layout cannot hold
        stray = [i for i in table if not 0 <= i < count]
    if stray:
        raise ValueError(f"index {stray[0]} is beyond the {count} indices the table may name")
    return table


def _keyed(values: Sequence[int]) -> tuple[tuple[int, ...], Sequence[int]]:
    """A per-message parity table as its distinct words, in order of first
    use, and the word index of every message, which `FccEncoder` packs
    (`_compact`). A bytes table is keyed by one translate, with no step per
    message."""
    if isinstance(values, bytes):
        absent = bytes(range(256)).translate(None, values)
        words = sorted(set(range(256)).difference(absent), key=values.find)
        index = bytearray(256)
        for i, w in enumerate(words):
            index[w] = i
        return tuple(words), values.translate(index)
    index = {w: i for i, w in enumerate(dict.fromkeys(values))}
    return tuple(index), list(map(index.__getitem__, values))


def build_function_value_encoder(
    spec: FunctionSpec, t: int, dmat: DistanceMatrix | None = None,
    gv: tuple[int, tuple[int, ...] | None] | None = None,
) -> FccEncoder:
    """Encoder whose parity depends on the function value only.

    Builds the value-level requirement matrix and fills the parities
    first-fit at the length and in the row order `bounds.gv_threshold_and_order`
    picks. The greedy build cannot fail there, and the resulting encoder
    protects f against t substitutions: messages with different values are
    either 2t+1 apart already or their parities make up the difference.
    `dmat` and `gv`, when given, are that matrix and that length and order,
    found already.
    """
    if dmat is None:
        dmat = function_distance_matrix(spec, t)
    r, order = gv or bounds.gv_threshold_and_order(dmat)
    code = construct.greedy_irregular_code(dmat, r, order)
    if code is None:  # pragma: no cover - contradicts the threshold guarantee
        raise RuntimeError("greedy build failed at its own existence threshold")
    return FccEncoder(spec, t, r, tuple(w.value for w in code.words))


def per_message_encoder(spec: FunctionSpec, t: int, parities: Sequence[BitWord]) -> FccEncoder:
    """Wrap an explicit per-message parity table (one word per message),
    keyed by its distinct words in order of first use (`_keyed`)."""
    r = parities[0].length if parities else 0
    for p in parities:
        if p.length != r:
            raise ValueError(f"parity {p} has length {p.length}, expected {r}")
    return FccEncoder(spec, t, r, *_keyed([p.value for p in parities]))


# --- verification and decoding ----------------------------------------------


class VerifyResult(Record):
    __slots__ = _fields = ("ok", "witness", "pairs_checked", "route")

    def __init__(self, ok: bool, witness: tuple[BitWord, BitWord] | None, pairs_checked: int,
                 route: str) -> None:  # "class", "message-level" or "sampled": what it counts
        self._init(ok, witness, pairs_checked, route)

    @property
    def mode(self) -> str:
        return "sampled" if self.route == "sampled" else "exhaustive"

    def __bool__(self) -> bool:
        return self.ok


EXHAUSTIVE_MAX_K = 14  # the kernel's cost at this k is every exhaustive check's budget


class _OverBudget(ValueError):
    """An exhaustive check that `_classes` admits by neither route."""


_LIMB = (1 << 64) - 1  # one 64-bit limb of a table wider than 64 bits
_DRAW_BATCH = 4096  # sampled draws made at once: fast, and little memory held


def _message_draws(rng: random.Random, k: int, n: int) -> array:
    """rng.choices(range(1 << k), k=n), for k <= 27, made in bulk.

    choices takes floor(random() * 2^k); random() reads two 32-bit words and
    takes the top 27 bits of the first as its highest, so the draw is the top
    k bits of that first word. getrandbits(64 n) reads the same 2n words,
    first word lowest: each 64-bit limb holds one draw, shifted down by 32 - k.
    """
    lanes = int.from_bytes(((1 << k) - 1).to_bytes(8, "little") * n, "little")
    draws = array("Q", (rng.getrandbits(64 * n) >> (32 - k) & lanes).to_bytes(8 * n, "little"))
    if sys.byteorder == "big":
        draws.byteswap()
    return draws


def verify_fcc(
    encoder: FccEncoder, *, sample: int | None = None, seed: int = 0
) -> VerifyResult:
    """Check the distance condition for every message pair (or a sample).

    Exhaustively, messages are grouped into classes by (image index, parity
    word) (`_classes`): inside a class nothing is required, and two classes
    with different values and parities p, q violate iff their closest
    approach is at most 2t - d(p, q). Two one-message classes are read off
    their codewords' popcounts, a many-message class's mask grows to the
    one-message classes it reaches, and two many-message classes grow from
    both sides to that depth (`_classes_apart`); on success pairs_checked
    counts the class pairs with different values; a per-value encoder's
    classes are its values, so there it counts value pairs (read off
    `value_distances` with a weight map). An encoder with
    too many classes for that to pay (in either mode), and any encoder that
    violates, is checked over every difference vector e of weight 1..2t
    (pairs further apart satisfy the condition on message distance alone) by
    the message-level kernel: the image-index and parity bit planes, 2^k-bit
    masks, are XOR-translated by e, and their differences mark the pairs
    (u, u ^ e), u < u ^ e, whose values differ and whose parities are too
    close. pairs_checked then counts message pairs with differing values.
    The witness, if any, is the lexicographically smallest violating
    (u1, u2) with u1 < u2, and pairs_checked on a violation counts the pairs
    whose u1 is at most the witness's, as a row-by-row scan stopping after
    row u1 would. Above k = EXHAUSTIVE_MAX_K, where the kernel is not
    admitted, a violation the class check proves comes back without a
    witness. An exhaustive check over budget (`_classes`) raises
    ValueError naming its cost: pass `sample` then. Both need t >= 1.

    A sample draws `sample` >= 1 close pairs (u, u ^ e), deterministic per
    `seed` (>= 0), in batches of 4096 u then 4096 e: u uniform over the 2^k
    messages, the draws random.choices would make, taken in bulk
    (`_message_draws`), and e uniform over the masks of weight 1..2t, the
    only differences that can violate. The parity of u is words[key[u]]
    (`FccEncoder.key`), so no 2^k parity table is built.
    pairs_checked counts the draws whose two values differ, up to the first
    violating one, which is the witness (sorted low, high).
    """
    spec = encoder.spec
    k, t = spec.k, encoder.t
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if seed < 0:  # Random(-s) seeds as Random(s) does
        raise ValueError(f"need seed >= 0, got {seed}")
    if sample is not None:
        if sample < 1:
            raise ValueError(f"need sample >= 1, got {sample}")
        idx, key, words = spec.index_table, encoder.key, encoder.words
        need = 2 * t + 1
        rng = random.Random(seed)
        masks = _low_weight_masks(k, 2 * t)
        checked = 0
        for left in range(sample, 0, -_DRAW_BATCH):
            batch = min(left, _DRAW_BATCH)
            for u, e in zip(_message_draws(rng, k, batch), rng.choices(masks, k=batch)):
                v = u ^ e
                if idx[u] == idx[v]:
                    continue
                checked += 1
                if e.bit_count() + (words[key[u]] ^ words[key[v]]).bit_count() < need:
                    lo, hi = sorted((u, v))
                    witness = (BitWord(lo, k), BitWord(hi, k))
                    return VerifyResult(False, witness, checked, "sampled")
        return VerifyResult(True, None, checked, "sampled")

    return _verify_exhaustive(encoder, t)


def _verify_exhaustive(encoder: FccEncoder, t: int, *, witness: bool = True) -> VerifyResult:
    """verify_fcc's exhaustive route at t >= 1, which need not be encoder.t;
    raises `_OverBudget` where `_classes` admits no route.

    With witness=False only `ok` is exact, and a failure comes back as soon
    as it is known, with no witness: pairs_checked then counts the class
    pairs with different values, or the message pairs that the
    message-level kernel checked up to its first violating difference vector.
    """
    classes = _classes(encoder, t)
    if classes is None:
        return _verify_message_level(encoder, t, witness)
    masks, values, parities = classes
    e = len(values)
    pairs = (e * e - sum(c * c for c in Counter(values).values())) // 2  # with different values
    ok = _classes_apart(encoder, t, masks, values, parities)
    if ok or not witness or encoder.spec.k > EXHAUSTIVE_MAX_K:
        return VerifyResult(ok, None, pairs, "class")  # above that k, no kernel is admitted
    return _verify_message_level(encoder, t, witness)


def _classes_apart(encoder: FccEncoder, t: int, masks: Sequence[int] | None,
                   values: Sequence[int], parities: Sequence[int]) -> bool:
    """Whether no two classes with different values and parities p, q come
    within 2t - d(p, q) of each other.

    One-message classes, where they are split off (`_one_message`) and
    codewords fit a byte lane's count (k + r <= 255), go first: two of them,
    messages u and v, are d(u << r | p, v << r | q) apart, a whole row at
    once (`_popcount_rows`), and a many-message class's mask grows one shell
    at a time to its deepest limit, the one-message classes each shell
    reaches looked up by message. The many-message classes then grow from
    both sides (`_closest_approaches`), or on a weight map (no masks) are
    read off `value_distances`."""
    k, r = encoder.spec.k, encoder.r
    one = {} if masks is None or k + r > 255 else {  # message -> its one-message class
        masks[i].bit_length() - 1: i for i in _one_message(masks)}
    if one:
        close = (b"\1" * min(2 * t + 1, 256)).ljust(256, b"\0")  # 1 at d <= 2t
        same: dict[int, int] = {}  # per value, a 1 in the byte lane of each of its classes
        for lane, i in enumerate(one.values()):
            same[values[i]] = same.get(values[i], 0) | 1 << 8 * lane
        words = [u << r | parities[i] for u, i in one.items()]
        for i, row in zip(one.values(), _popcount_rows(words, k + r)):
            if int.from_bytes(row.translate(close), "little") & ~same[values[i]]:
                return False
        ones = set(one.values())
        many = [i for i in range(len(values)) if i not in ones]
        # the classes split the 2^k messages: the one-message ones hold the rest
        singles = reduce(xor, map(masks.__getitem__, many), (1 << (1 << k)) - 1)
        for j in many:  # each many-message ball, to the one-message classes it reaches
            v, p = values[j], parities[j]
            limits = {u: 2 * t - (p ^ parities[i]).bit_count()
                      for u, i in one.items() if values[i] != v}
            for d, hit in _first_reached(masks[j], k, singles, max(limits.values(), default=0)):
                if any(limits.get(u, 0) >= d for u in _set_bits(hit)):
                    return False
        masks, values, parities = ([seq[i] for i in many] for seq in (masks, values, parities))
    # the many-message classes violate iff they come within 2t - d(p, q); the j > i only
    limits = [[0] * (i + 1) + [2 * t - (p ^ q).bit_count() if w != v else 0
                               for w, q in zip(values[i + 1:], parities[i + 1:])]
              for i, (v, p) in enumerate(zip(values, parities))]
    e = len(values)
    pending = [[j for j in range(i + 1, e) if lim[j] >= 1] for i, lim in enumerate(limits)]
    if masks is None:  # values on a weight map
        near = value_distances(encoder.spec, 2 * t)
        return all(near[i][j] > lim[j] for i, (js, lim) in enumerate(zip(pending, limits)) for j in js)
    return not _closest_approaches(masks, k, pending, limits)


def _classes(encoder: FccEncoder, t: int) -> tuple[Sequence[int], ...] | None:
    """The masks, image indices and parities of the (value, parity) classes,
    or None for the message-level kernel; raises `_OverBudget` where neither
    route is admitted.

    A per-value encoder's word index is its value index, so its values are
    its classes, without masks (None) on a weight map. A per-message
    encoder's values split on the bit planes of its message key, top plane
    first, dropping empty halves; its words are distinct, so these are the
    classes. In 2^k-bit operations, the class check's pair tests are up to
    E'^2 t ANDs, and the kernel half-swaps each of its image-index and r
    parity planes, five operations each, once per translation, of which
    there are sum of C(k, w), w = 1..2t. Up to k = EXHAUSTIVE_MAX_K the
    cheaper is taken; above, the kernel's bit operations at that k are the
    budget of a class check, which one on a weight map never spends."""
    spec, key, e = encoder.spec, encoder.message_key, len(encoder.spec.image)
    k, planes = spec.k, (e - 1).bit_length() + encoder.r
    cap = min(k, EXHAUSTIVE_MAX_K)  # the budget: the kernel's at k <= cap, spread over 2^k above
    budget = 5 * (sphere_size(cap, 2 * t) - 1) * planes >> (k - cap)
    most = math.isqrt(budget // t)  # E' <= most iff E'^2 t <= budget

    def fallback(count: int) -> None:  # the kernel, where admitted
        if k > cap:
            cost = (f"exhaustive verification at k={k}, t={t} costs at least "
                    f"{count * count * t} operations on 2^{k}-bit masks")
            if k > TABLE_MAX_K:  # a sample reads the value table, not built up here
                raise _OverBudget(f"{cost}, and above k={TABLE_MAX_K} no value table is built "
                                  f"to sample: verify the construction at a k <= {TABLE_MAX_K}")
            raise _OverBudget(f"{cost}, over its budget of {budget}; pass --sample N")

    weights = key is None and spec.weight_index is not None
    if e > most and not (weights and k > cap):
        return fallback(e)
    if key is None:
        return None if weights else spec.preimage_masks, range(e), encoder.words
    classes = [(m, i, 0) for i, m in enumerate(spec.preimage_masks)]
    for plane in reversed(_bit_planes(key, (len(encoder.words) - 1).bit_length())):
        split = []
        for m, i, j in classes:  # word index bits gathered top plane first
            hi = m & plane
            if hi != m:
                split.append((m ^ hi, i, j << 1))
            if hi:
                split.append((hi, i, j << 1 | 1))
        classes = split
        if len(classes) > most:
            return fallback(len(classes))
    masks, values, keys = zip(*classes)
    return masks, values, [encoder.words[j] for j in keys]


def _bit_planes(table: Sequence[int], width: int) -> list[int]:
    """Plane b of a table of width-bit ints: the set of messages u whose
    table[u] has bit b set, as a 2^k-bit mask. A table wider than a byte is
    read as little-endian 64-bit limbs, byte j of every limb at once."""
    if width <= 8:
        return _byte_planes(bytes(table))[:width]
    planes: list[int] = []
    for lo in range(0, width, 64):
        limb = array("Q", table if width <= 64 else [v >> lo & _LIMB for v in table])
        if sys.byteorder == "big":
            limb.byteswap()
        raw = limb.tobytes()
        for j in range(0, min(width - lo, 64), 8):
            planes += _byte_planes(raw[j // 8 :: 8])[: width - lo - j]
    return planes


def _translated_planes(planes: list[int], k: int, depth: int):
    """(e, top bit of e, planes XOR-translated by e) for every k-bit e of
    weight 1..depth, depth first: each e extends its parent above its top
    bit, so each node costs one half-swap per plane (`_xor_translate` by
    one bit, written out)."""
    pats = _bit_set_patterns(k)

    def walk(e: int, moved: list[int], w: int):
        for b in range(e.bit_length(), k):
            s, pat = 1 << b, pats[b]
            here = [(p ^ (hi := p & pat)) << s | hi >> s for p in moved]
            yield e | s, b, here
            if w + 1 < depth:
                yield from walk(e | s, here, w + 1)

    return walk(0, planes, 0)


def _verify_message_level(encoder: FccEncoder, t: int, witness: bool) -> VerifyResult:
    """The message-level route of verify_fcc, one difference vector at a time;
    without `witness`, a violation ends the walk."""
    spec = encoder.spec
    k = spec.k
    need = 2 * t + 1
    idx_planes = _bit_planes(spec.index_table, (len(spec.image) - 1).bit_length())
    par_planes = _bit_planes(encoder.parity_ints, encoder.r)
    high = _bit_set_patterns(k)  # high[b]: the messages with bit b set

    def pairs_by_e(planes: list[int]):
        # the u with u < u ^ e (bit `top` clear) whose value differs from u ^ e's
        for e, top, moved in _translated_planes(planes, k, 2 * t):
            pairs = 0
            for a, b in zip(idx_planes, moved):
                pairs |= a ^ b
            yield e, pairs & ~high[top], moved[len(idx_planes):]

    checked, best = 0, None
    for e, pairs, moved in pairs_by_e(idx_planes + par_planes):
        if not pairs:
            continue
        checked += pairs.bit_count()
        # bad: the pairs whose parities differ in too few bits to make up the distance
        far = _at_least((a ^ b for a, b in zip(par_planes, moved)), need - e.bit_count())
        bad = pairs & ~far
        if bad:
            if not witness:
                return VerifyResult(False, None, checked, "message-level")
            u1 = (bad & -bad).bit_length() - 1
            if best is None or (u1, u1 ^ e) < best:
                best = (u1, u1 ^ e)
    if best is None:
        return VerifyResult(True, None, checked, "message-level")
    rows = (2 << best[0]) - 1  # the pairs of rows u1 <= the witness's
    checked = sum((pairs & rows).bit_count() for _, pairs, _ in pairs_by_e(idx_planes))
    witness = (BitWord(best[0], k), BitWord(best[1], k))
    return VerifyResult(False, witness, checked, "message-level")


class DecodeResult(Record):
    __slots__ = _fields = ("value", "out_of_model", "distance")

    def __init__(self, value: FunctionValue, out_of_model: bool, distance: int) -> None:
        self._init(value, out_of_model, distance)


def decode(encoder: FccEncoder, y: BitWord) -> DecodeResult:
    """Recover the function value from a received word.

    Nearest-codeword search over the Hamming shells of y's message part: for
    w = 0, 1, ..., each message u at distance w from it scores w + d(p(u),
    y's parity part). A codeword at distance d has its message within d of
    y's, so stopping once w exceeds the best score has seen every nearest
    codeword, ties included, for any encoder. Within the design guarantee (y
    at distance <= t from some codeword of a verified encoder) the value is
    unique. Outside it — best distance above t, or distinct values tied at
    the best distance — the result carries out_of_model=True and ties
    resolve to the smallest image index.
    """
    spec = encoder.spec
    if y.length != encoder.block_length:
        raise ValueError(f"received length {y.length}, expected {encoder.block_length}")
    k, r = spec.k, encoder.r
    idx = spec.index_table
    par = encoder.parity_ints
    ym, yp = y.value >> r, y.value & ((1 << r) - 1)
    best_d = y.length + 1
    best_indices: set[int] = set()
    for w in range(k + 1):
        if w > best_d:
            break
        for e in _weight_shell(k, w):
            u = ym ^ e
            d = w + (par[u] ^ yp).bit_count()
            if d < best_d:
                best_d = d
                best_indices = {idx[u]}
            elif d == best_d:
                best_indices.add(idx[u])
    out = best_d > encoder.t or len(best_indices) > 1
    return DecodeResult(spec.image[min(best_indices)], out, best_d)


def _nearest_value_masks(encoder: FccEncoder, depth: int) -> tuple[list[int], int]:
    """Per image index, the received words that decode to that value; and
    the set of codewords.

    Bit y of mask i is set when y lies within `depth` of a codeword and
    image[i] is what decode returns for y: the value of its nearest
    codewords, ties to the smallest image index. Every value's Hamming ball
    grows by one shell per level (d = 0..min(depth, n)), and a word first
    reached at level d goes to the smallest index that reaches it. The masks
    are disjoint, 2^n bits each: memory is O(E * 2^n) bits.
    """
    spec = encoder.spec
    n, r = encoder.block_length, encoder.r
    balls = [bytearray(((1 << n) + 7) >> 3) for _ in spec.image]
    for u, (i, p) in enumerate(zip(spec.index_table, encoder.parity_ints)):
        c = (u << r) | p
        balls[i][c >> 3] |= 1 << (c & 7)
    # one shell generator per value, advanced in lock-step: one ball set alive
    balls = [_shells(int.from_bytes(b, "little"), n) for b in balls]
    claimed = [next(ball) for ball in balls]  # level 0: the codewords, all distinct
    code = region = sum(claimed)  # words labelled so far
    everything = (1 << (1 << n)) - 1
    for _ in range(min(depth, n)):
        if region == everything:
            break
        for i, ball in enumerate(balls):
            new = next(ball) & ~region
            claimed[i] |= new
            region |= new
    return claimed, code


def exact_optimal_redundancy(
    spec: FunctionSpec, t: int, budget: construct.SearchBudget | None = None
) -> construct.ExactLengthResult:
    """The true optimal redundancy for spec at t, by exhaustive search.

    Builds the requirement matrix over every message (so parities may depend
    on the whole message, not just its value) and finds the smallest length
    satisfying it. Feasible only for small k; guarded at k <= 6.
    """
    if spec.k > 6:
        raise ValueError(f"exact search over 2^{spec.k} rows is not feasible")
    dmat = distance_requirement_matrix(spec, t, list(all_words(spec.k)))
    return construct.exact_min_length(dmat, budget)


def encoder_from_exact_witness(
    spec: FunctionSpec, t: int, code: Code
) -> FccEncoder:
    """Per-message encoder from an exact-search witness (row u = parity of u)."""
    return per_message_encoder(spec, t, code.words)


# --- function balls ----------------------------------------------------------


# Used only by tests, but the benchmark's traced round wraps it (perfbench/spans.py).
def function_ball(spec: FunctionSpec, u: BitWord, rho: int) -> frozenset:
    """All values f takes within Hamming distance rho of u."""
    if u.length != spec.k:
        raise ValueError(f"message length {u.length}, expected {spec.k}")
    if rho < 0:
        raise ValueError(f"negative radius {rho}")
    idx = spec.index_table
    out = {idx[u.value]}
    out.update(idx[u.value ^ e] for e in _low_weight_masks(spec.k, rho))
    return frozenset(spec.image[i] for i in out)


def value_balls(spec: FunctionSpec, rho: int) -> list[int]:
    """Per image index, the messages within rho of a preimage of that value
    (equivalently, whose radius-rho ball sees it), as 2^k-bit masks."""
    if rho < 0:
        raise ValueError(f"negative radius {rho}")
    level = min(rho, spec.k)
    return [next(islice(_shells(m, spec.k), level, None)) for m in spec.preimage_masks]


def is_locally_binary(
    spec: FunctionSpec, rho: int, balls: list[int] | None = None
) -> tuple[bool, BitWord | None]:
    """Whether every radius-rho ball sees at most two function values.

    Counts, bit-sliced over all messages at once, how many value balls
    (`value_balls`, or `balls` where the caller has grown them) cover each
    message. On failure returns the smallest message whose ball witnesses
    three values.
    """
    many = _at_least(value_balls(spec, rho) if balls is None else balls, 3)
    if many:
        return False, BitWord((many & -many).bit_length() - 1, spec.k)
    return True, None


# --- registry and serialization ----------------------------------------------

_REGISTRY: dict[str, tuple[Callable[[dict[str, str]], FunctionSpec], frozenset[str]]] = {}


def register_spec_builder(
    name: str, builder: Callable[[dict[str, str]], FunctionSpec], keys: Iterable[str]
) -> None:
    """Register a named spec family taking the parameters `keys`; `builder`
    gets raw string parameters, only those among `keys`."""
    _REGISTRY[name] = (builder, frozenset(keys))


def registered_spec_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def spec_keys(name: str) -> frozenset[str]:
    """The parameters the registered family `name` takes."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown function {name!r}; known: {', '.join(registered_spec_names())}")
    return _REGISTRY[name][1]


def check_spec_pairs(name: str, given: Iterable[str], keys: Iterable[str]) -> None:
    """Reject a key among `given` that family `name`, taking `keys`, does not
    take; any spec string may carry t, which no family takes."""
    extra = sorted(set(given) - set(keys) - {"t"})
    if extra:
        raise ValueError(f"{name!r} takes no parameter {extra[0]!r}")


def parse_spec_string(text: str) -> tuple[str, dict[str, str]]:
    """Split a registry string like "wt", "delta_T:T=3", or
    "ml:sigmoid,k=5,eps=1" into its family name and parameters.

    The part before ':' names the family; the rest is a comma list of
    key=value pairs. A single bare token is returned as the parameter "arg"
    (the ml family reads its kind that way). A repeated key is an error.
    """
    name, _, rest = text.strip().partition(":")
    params: dict[str, str] = {}
    for token in filter(None, map(str.strip, rest.split(","))):
        key, sep, val = token.partition("=")
        key = key.strip() if sep else "arg"
        if key in params:
            what = f"key {key!r}" if sep else "bare parameter"
            raise ValueError(f"more than one {what} in {text!r}")
        params[key] = val.strip() if sep else token
    return name.strip(), params


def spec_from_string(text: str, defaults: dict[str, str] | None = None) -> FunctionSpec:
    """Build a spec from a registry string (see parse_spec_string).

    `defaults` fills the keys the string leaves out (the CLI passes --k and
    the other spec flags through it); those the family does not take are
    ignored, while such a key in the string itself is an error.
    """
    name, params = parse_spec_string(text)
    keys = spec_keys(name)
    check_spec_pairs(name, params, keys)
    params = {**(defaults or {}), **params}
    return _REGISTRY[name][0]({key: val for key, val in params.items() if key in keys})


ENCODER_HEADER = "fcodes encoder v1"


def encoder_to_text(encoder: FccEncoder) -> str:
    """Serialize an encoder as a commented bitcore code file.

    The parity table doubles as a loadable plain code: one line per value,
    or per message; the headers carry enough to rebuild the encoder when the
    function is registry-addressable. A per-message body keyed by bytes is
    written a column at a time: column c of every line is the message key
    mapped to bit c of its word.
    """
    r = encoder.r
    head = (
        f"# {ENCODER_HEADER}\n# function: {encoder.spec.name}\n# k: {encoder.spec.k}\n"
        f"# t: {encoder.t}\n# r: {r}\n# mode: {encoder.mode}\n"
    )
    key = encoder.message_key
    if r == 0:
        return head + "# (no parity bits)\n"
    if not isinstance(key, bytes):
        labels = [format(w, f"0{r}b") for w in encoder.words]
        return head + "\n".join(labels if key is None else map(labels.__getitem__, key)) + "\n"
    raw = head.encode()  # the header leads the buffer too, so one copy is decoded
    body = bytearray(b"\n") * (len(raw) + len(key) * (r + 1))
    body[: len(raw)] = raw
    for c in range(r):
        column = bytes(48 | w >> (r - 1 - c) & 1 for w in encoder.words)  # b"0" or b"1"
        body[len(raw) + c :: r + 1] = key.translate(column.ljust(256, b"0"))
    return body.decode()


_FIRST_BIT_LINE = re.compile("^[01]", re.MULTILINE)
_BIT_LINE = re.compile("[01]+").fullmatch
_is_comment = methodcaller("startswith", "#")
_BULK_R = {str(r): r for r in range(1, 9)}  # widths read a column at a time
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _bulk_values(body: str, r: int) -> bytes | None:
    """The value of every line of `body`, one byte each, when it is only
    lines of r <= 8 bits, each ending in a newline; else None. Column c of
    every line is read at once, as the bytes body[c::r+1]."""
    lines, rest = divmod(len(body), r + 1)
    ends = b"\n" * lines
    if rest or not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw[r :: r + 1] != ends or raw.translate(None, b"01") != ends:
        return None
    bits, value = raw.translate(_BIT_VALUES), 0
    for c in range(r):  # every line's bits, top first, each in its own byte
        value = value << 1 | int.from_bytes(bits[c :: r + 1], "little")
    return value.to_bytes(lines, "little")


def encoder_headers(text: str) -> tuple[dict[str, str], int | None]:
    """An encoder file's headers, and where its body starts when that body
    is bare bit lines after only blank and comment lines (else None).

    The headers are the `key: value` pairs of its '#' lines, wherever they
    stand and however indented; a later one overrides. Only the lines
    before the first bit line are split when no '#' follows it."""
    found = _FIRST_BIT_LINE.search(text)
    start = found.start() if found and text.find("#", found.start()) < 0 else None
    lines = list(filter(None, map(str.strip, text[:start].splitlines())))
    comments = list(filter(_is_comment, lines))
    headers = {}
    for line in comments:
        key, sep, val = line[1:].strip().partition(":")
        if sep:
            headers[key.strip()] = val.strip()
    return headers, start if len(comments) == len(lines) else None


def encoder_from_text(text: str, spec: FunctionSpec | None = None) -> FccEncoder:
    """Rebuild an encoder serialized by encoder_to_text.

    A spec may be supplied to override the registry lookup (it must agree on
    k). Raises on malformed headers or a parity table of the wrong size.
    The headers come from `encoder_headers`, and a body of bare r <= 8 bit
    lines is read a column at a time (`_bulk_values`); any other body is read
    as stripped lines (blank, indented or comment lines among it). With r = 0
    the body is ignored and every parity is 0. The parity values, however
    read, then map per message to distinct words and a key (`_keyed`).
    """
    values = None
    headers, start = encoder_headers(text)
    if start is not None and headers.get("r") in _BULK_R:
        values = _bulk_values(text[start:], _BULK_R[headers["r"]])
    if values is None:  # every line stripped, blank and comment ones dropped
        body = list(filterfalse(_is_comment, filter(None, map(str.strip, text.splitlines()))))
    for required in ("k", "t", "r", "mode"):
        if required not in headers:
            raise ValueError(f"encoder file missing '{required}' header")
    k = int(headers["k"])
    t = int(headers["t"])
    r = int(headers["r"])
    mode = headers["mode"]
    if mode not in (PER_VALUE, PER_MESSAGE):
        raise ValueError(f"unknown mode {mode!r}")
    if spec is None:
        if "function" not in headers:
            raise ValueError("encoder file names no function and no spec was given")
        spec = spec_from_string(headers["function"], defaults={"k": str(k)})
    if spec.k != k:
        raise ValueError(f"spec has k={spec.k} but encoder file says {k}")
    size = spec.expressiveness if mode == PER_VALUE else 1 << k
    if r == 0:  # no parity bits: the body, if any, is ignored
        values = bytes(size)
    count = len(body if values is None else values)
    if count != size:
        raise ValueError(f"{mode} encoder needs {size} parities, got {count}")
    if values is None:  # stripped lines, each distinct one checked and read once
        read = {}
        for line in dict.fromkeys(body):
            if len(line) != r or not _BIT_LINE(line):
                raise ValueError(f"parity line {line!r} is not {r} bits")
            read[line] = int(line, 2)
        values = list(map(read.__getitem__, body))
    if mode == PER_VALUE:
        return FccEncoder(spec, t, r, tuple(values))
    return FccEncoder(spec, t, r, *_keyed(values))
