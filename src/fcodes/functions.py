"""Concrete protected functions and their specialized encoders.

Families: Hamming weight, weight blocks (floor(wt/T)), block min-max,
codeword indicator, and quantized machine-learning activations. Each comes
with the cheap encoder the theory promises for it, built from the raw
material in `fcodes.construct`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import NamedTuple

from . import construct, fcc
from .bits import Code, DistanceMatrix, Record
from .bounds import gv_irregular_threshold  # noqa: F401 - perfbench/spans.py wraps this name
from .fcc import _BIT_VALUES, FccEncoder, FunctionSpec

# --- plain specs ---------------------------------------------------------


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _weight_table(k: int) -> bytes:
    """wt(u) for every k-bit message u, one byte each, by doubling: the
    messages with the new top bit set weigh one more than those without.
    k is bounded as `FunctionSpec.index_table` is."""
    if k > fcc.TABLE_MAX_K:
        raise ValueError(f"k={k} too large to tabulate")
    table = b"\0"
    for _ in range(k):
        table += table.translate(_PLUS_ONE)
    return table


def _weight_spec(k: int, image, name: str, index_of_weight) -> FunctionSpec:
    """A spec whose value at u is image[index_of_weight(wt(u))], the rule
    written once on the weights: fn reads it per message, the whole table is
    the weight table mapped through it, and it is the spec's weight map."""
    values, index = tuple(image), list(map(index_of_weight, range(k + 1)))
    bulk = lambda: _weight_table(k).translate(bytes(index).ljust(256, b"\0"))
    return FunctionSpec(k, lambda u: values[index[u.bit_count()]], values, name=name,
                        bulk_table=bulk, weight_index=index)


def wt_spec(k: int) -> FunctionSpec:
    """The Hamming weight of the message; image 0..k."""
    return _weight_spec(k, range(k + 1), f"wt:k={k}", lambda v: v)


def parity_spec(k: int) -> FunctionSpec:
    """XOR of all message bits; the canonical two-valued function."""
    return _weight_spec(k, (0, 1), f"parity:k={k}", lambda v: v & 1)


def or_spec(k: int) -> FunctionSpec:
    """OR of all message bits: 0 only on the all-zero message."""
    return _weight_spec(k, (0, 1), f"or:k={k}", lambda v: min(v, 1))


def constant_spec(k: int) -> FunctionSpec:
    """The constant 0 function (nothing to protect; redundancy 0)."""
    return _weight_spec(k, (0,), f"constant:k={k}", lambda v: 0)


def delta_spec(k: int, T: int) -> FunctionSpec:
    """Weight blocks: floor(wt(u) / T); image 0..floor(k/T)."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    return _weight_spec(k, range(k // T + 1), f"delta_T:k={k},T={T}", lambda v: v // T)


class MinMaxValue(NamedTuple):
    """1-based indices of the smallest and largest block of a message."""

    argmin_index: int
    argmax_index: int


def minmax_spec(w: int, l: int) -> FunctionSpec:
    """Which of the w length-l blocks is smallest, and which largest.

    Blocks compare as binary numerals (leftmost bit most significant); ties
    go to the smaller index for the minimum and the larger for the maximum,
    so the two indices always differ. Image: all w(w-1) ordered pairs, which
    requires l >= 2 (single-bit blocks cannot realise every pair).
    """
    if w < 2:
        raise ValueError(f"need w >= 2 blocks, got {w}")
    if l < 2:
        raise ValueError(f"need block length l >= 2, got {l}")
    k = w * l
    mask = (1 << l) - 1

    def fn(u: int) -> MinMaxValue:
        best_lo = best_hi = None
        lo_i = hi_i = 0
        for i in range(1, w + 1):
            part = (u >> (l * (w - i))) & mask
            if best_lo is None or part < best_lo:
                best_lo, lo_i = part, i
            if best_hi is None or part >= best_hi:
                best_hi, hi_i = part, i
        return MinMaxValue(lo_i, hi_i)

    image = [
        MinMaxValue(i, j)
        for i in range(1, w + 1)
        for j in range(1, w + 1)
        if i != j
    ]
    bulk = (lambda: _minmax_table(w, l)) if l <= 8 else None
    return FunctionSpec(k, fn, image, name=f"minmax:w={w},l={l}", bulk_table=bulk)


_STEP_UP = b"\0" * 256 + b"\xff" * 256
_STEP_DOWN = _STEP_UP[::-1]
_BYTES = bytes(range(256))


def _block_marks(size: int) -> list[tuple[bytes, bytes, bytes, bytes]]:
    """`_minmax_table`'s four translate tables of each block value b below
    `size`, indexed by the suffix's byte v: b <= v and b > v as 0xff masks,
    min(v, b) and max(v, b). Each is sliced from the constants above, with
    b's own run as one repeat."""
    return [(_STEP_UP[256 - b:512 - b], _STEP_DOWN[256 - b:512 - b],
             _BYTES[:b] + bytes([b]) * (256 - b), bytes([b]) * (b + 1) + _BYTES[b + 1:])
            for b in range(size)]


def _minmax_table(w: int, l: int) -> bytes:
    """Image index of minmax_spec(w, l) for every message (l <= 8).

    Built block by block from the last, one byte per suffix of blocks for its
    smallest and largest block and their 0-based positions. A block b put in
    front of a suffix becomes the minimum where b <= the suffix's minimum
    (ties to the smaller index) and the maximum where b > its maximum (ties
    to the larger index): one translate per list, and a byte-wise select on
    big ints for the positions.
    """
    size = 1 << l
    mins = maxs = _BYTES[:size]
    argmin = argmax = bytes([w - 1]) * size
    marks = _block_marks(size)
    for i in range(w - 2, -1, -1):
        n = len(mins)
        here = int.from_bytes(bytes([i]) * n, "big")
        amin, amax = int.from_bytes(argmin, "big"), int.from_bytes(argmax, "big")
        parts: list[list[bytes]] = [[], [], [], []]
        for low, high, to_min, to_max in marks:
            takes_min = int.from_bytes(mins.translate(low), "big")
            takes_max = int.from_bytes(maxs.translate(high), "big")
            parts[0].append(mins.translate(to_min))
            parts[1].append(maxs.translate(to_max))
            parts[2].append(((amin & ~takes_min) | (here & takes_min)).to_bytes(n, "big"))
            parts[3].append(((amax & ~takes_max) | (here & takes_max)).to_bytes(n, "big"))
        mins, maxs, argmin, argmax = (b"".join(p) for p in parts)
    # position pair (i, j) as the byte i * w + j (i, j < w), then its image index
    pair = int.from_bytes(argmin.translate(bytes(range(0, w * w, w)).ljust(256, b"\0")), "big")
    pair = (pair + int.from_bytes(argmax, "big")).to_bytes(len(argmax), "big")
    index = bytearray(256)
    for i in range(w):
        for j in range(w):
            if i != j:
                index[i * w + j] = i * (w - 1) + (j if j < i else j - 1)
    return pair.translate(index)


def indicator_spec(code: Code, *, name: str = "indicator") -> FunctionSpec:
    """Which codeword (1-based index) the message is, or 0 for none.

    The code's words must be distinct. When the code covers the whole space
    the 0 value disappears from the image.
    """
    values = [w.value for w in code.words]
    if len(set(values)) != len(values):
        raise ValueError("indicator needs distinct codewords")
    lookup = {v: i + 1 for i, v in enumerate(values)}
    full_cover = code.size == 1 << code.length
    image = range(1, code.size + 1) if full_cover else range(code.size + 1)
    return FunctionSpec(
        code.length, lambda u: lookup.get(u, 0), image, name=name
    )


# --- quantized ML activations ---------------------------------------------


class Quantizer(Record):
    """Fixed-precision signed quantizer: k bits, step epsilon.

    Message u represents the real value epsilon * (u - 2^(k-1) + 1/2); the
    2^k centers are symmetric about zero and strictly increasing in u.
    """

    __slots__ = _fields = ("k", "epsilon")

    def __init__(self, k: int, epsilon: Fraction) -> None:
        if k < 2:
            raise ValueError(f"need k >= 2, got {k}")
        if epsilon <= 0:
            raise ValueError(f"need epsilon > 0, got {epsilon}")
        self._init(k, epsilon)

    def center(self, u: int) -> Fraction:
        eps = self.epsilon  # epsilon * (2u + 1 - 2^k) / 2, as one Fraction
        return Fraction((2 * u + 1 - (1 << self.k)) * eps.numerator, 2 * eps.denominator)

    @property
    def low(self) -> Fraction:
        return self.center(0)

    @property
    def high(self) -> Fraction:
        return self.center((1 << self.k) - 1)


BIJECTIVE = "bijective"  # increasing, saturating on both sides (sigmoid, tanh)
BIJECTIVE_POSITIVE = "bijective-positive"  # zero below 0, increasing above (relu)
SYMMETRIC = "symmetric"  # g(x) = g(-x), decreasing on [0, a] (the derivatives)


class MlFunctionKind(Record):
    """An activation's shape class and the interval where it is injective:
    `lo` is its start (bijective kinds), `hi` its end, or the one-sided
    cutoff a (symmetric kinds)."""

    __slots__ = _fields = ("name", "style", "lo", "hi")

    def __init__(self, name: str, style: str, lo: Fraction | None, hi: Fraction | None) -> None:
        self._init(name, style, lo, hi)


_ML_DEFAULTS: dict[str, tuple[str, Fraction | None, Fraction | None]] = {
    "sigmoid": (BIJECTIVE, Fraction(-10), Fraction(10)),
    "tanh": (BIJECTIVE, Fraction(-6), Fraction(6)),
    "relu": (BIJECTIVE_POSITIVE, None, None),
    "sigmoid_derivative": (SYMMETRIC, Fraction(0), Fraction(10)),
    "tanh_derivative": (SYMMETRIC, Fraction(0), Fraction(6)),
}


def ml_kind(
    name: str, lo: Fraction | None = None, hi: Fraction | None = None
) -> MlFunctionKind:
    """Look up an activation kind, optionally overriding its interval, which
    must not be empty."""
    if name not in _ML_DEFAULTS:
        raise ValueError(f"unknown ML kind {name!r}; known: {', '.join(sorted(_ML_DEFAULTS))}")
    style, d_lo, d_hi = _ML_DEFAULTS[name]
    lo = lo if lo is not None else d_lo
    hi = hi if hi is not None else d_hi
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError(f"{name} interval [{lo}, {hi}] is empty: need its start below its end")
    return MlFunctionKind(name, style, lo, hi)


def _ml_check(kind: MlFunctionKind, q: Quantizer) -> None:
    """Reject a quantizer that leaves a saturation class empty or whose step
    does not tile the injective stretch."""
    step = q.epsilon
    if kind.style == BIJECTIVE:
        if not (q.low < kind.lo and q.high > kind.hi):
            raise ValueError(
                f"{kind.name}: quantizer range [{q.low}, {q.high}] leaves a "
                f"saturation class empty around [{kind.lo}, {kind.hi}]"
            )
        if (kind.hi - kind.lo) % step != 0:
            raise ValueError(
                f"{kind.name}: epsilon {step} does not divide the interval "
                f"length {kind.hi - kind.lo}"
            )
    elif kind.style == SYMMETRIC:
        if q.high <= kind.hi:
            raise ValueError(
                f"{kind.name}: no centers beyond {kind.hi}; saturation class empty"
            )
        if kind.hi % step != 0:
            raise ValueError(
                f"{kind.name}: epsilon {step} does not divide the cutoff {kind.hi}"
            )


def _centers_below(q: Quantizer, x: Fraction, *, inclusive: bool = False) -> int:
    """How many messages have a center below x (or at most x, if inclusive).

    Centers strictly increase in u, and center(u) < x iff u < s with
    s = (2x / epsilon + 2^k - 1) / 2, so the count is s rounded, clamped."""
    n = 1 << q.k
    s = (2 * x / q.epsilon + n - 1) / 2
    count = math.floor(s) + 1 if inclusive else math.ceil(s)
    return min(max(count, 0), n)


def _ml_layout(kind: MlFunctionKind, q: Quantizer) -> tuple[int, int, int]:
    """Where the image indices change along the messages, as (a, b, end).

    Messages below a saturate low (index 0), messages a..b-1 carry indices
    1..b-a in order, and messages b..end-1 saturate high (index b-a+1).
    Symmetric kinds lay out the left half (end = 2^(k-1)), whose centers run
    from most negative to -epsilon/2, so |center| falls as u rises; the right
    half mirrors it.
    """
    n = 1 << q.k
    if kind.style == BIJECTIVE:
        return _centers_below(q, kind.lo), _centers_below(q, kind.hi, inclusive=True), n
    if kind.style == BIJECTIVE_POSITIVE:
        return n // 2, n, n
    return _centers_below(q, -kind.hi), n // 2, n // 2


def ml_spec(kind: MlFunctionKind, q: Quantizer) -> FunctionSpec:
    """Spec for g(center(u)): distinguishable activation outputs as values.

    `_ml_layout` defines it. The image, in the activation's output order, is
    low saturation (-1, 0), (0, center(u)) for each u in a..b-1 (a symmetric
    kind's are negative, so they order like -|center|), then high saturation
    (1, 0) if b < end. `fn` reads u's index off the layout, mirrored to
    2^k-1-u past end, and `bulk_table` lays it out for every message.
    """
    _ml_check(kind, q)
    a, b, end = _ml_layout(kind, q)
    n = 1 << q.k
    image = [(-1, Fraction(0)), *((0, q.center(u)) for u in range(a, b))]
    image += [(1, Fraction(0))] if b < end else []

    def index(u: int) -> int:
        return min(max((u if u < end else n - 1 - u) - a + 1, 0), b - a + 1)

    def bulk_table() -> list[int]:
        half = [0] * a + list(range(1, b - a + 1)) + [b - a + 1] * (end - b)
        return half if end == n else half + half[::-1]

    extra = ""
    style, d_lo, d_hi = _ML_DEFAULTS[kind.name]
    if (kind.lo, kind.hi) != (d_lo, d_hi):
        if kind.style == SYMMETRIC:
            extra = f",a={kind.hi}"
        else:
            extra = f",a={kind.lo},b={kind.hi}"
    return FunctionSpec(
        q.k,
        lambda u: image[index(u)],
        image,
        name=f"ml:{kind.name},k={q.k},eps={q.epsilon}{extra}",
        value_label=lambda v: (
            "saturated-low" if v[0] < 0 else ("saturated-high" if v[0] > 0 else f"g({v[1]})")
        ),
        bulk_table=bulk_table,
    )


def wt_requirement_matrix(k: int, t: int) -> DistanceMatrix:
    """Requirement matrix between weight values: weights i and j admit
    messages as close as |i - j|, so the entry is max(2t+1 - |i - j|, 0),
    read off wt_spec(k)'s weights at any k."""
    return fcc.function_distance_matrix(wt_spec(k), t)


# --- specialized encoders ---------------------------------------------------


def _wt_parity_base(t: int) -> Code:
    """The parity cycle for weight protection, one word per residue.

    For one and two errors these are small hand-picked optimal codes: 3 words
    of length 3, and 8 words of length 6 (period 8). Beyond that, any 2t+1
    words pairwise 2t apart do (cyclically adjacent residues carry the
    tightest requirement, 2t): the first 2t+1 rows of the Sylvester code of
    length n = 2^ceil(log2 4t), cut to their first n/2 + 2t positions. Its
    rows are pairwise exactly n/2 apart, so dropping n/2 - 2t positions
    leaves at least 2t.
    """
    if t == 1:
        return Code.from_strings(["000", "110", "011"])
    if t == 2:
        return Code.from_strings(
            [
                "000000", "110011", "001111", "111100",
                "000001", "110010", "001110", "111101",
            ]
        )
    kept = wt_cycle_redundancy(t)
    rows = construct.hadamard_code(kept - 2 * t).words[: 2 * t + 1]  # length n
    return Code.of((w.split(kept)[0] for w in rows), kept)


def wt_cycle_redundancy(t: int) -> int:
    """`_wt_parity_base(t)`'s length, which is `wt_cyclic_encoder`'s r, without
    building the cycle: 3, 6, and beyond n/2 + 2t for n = 2^ceil(log2 4t)."""
    if t <= 2:
        return 3 * t
    return (1 << (4 * t - 1).bit_length()) // 2 + 2 * t


def _family_pairs(spec: FunctionSpec, family: str, t: int) -> dict[str, str]:
    """A family builder's registry pairs; another family, or t < 1, is a ValueError."""
    if spec.name.partition(":")[0] != family:
        raise ValueError(f"{spec.name} is not a {family} function")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    return fcc.parse_spec_string(spec.name)[1]


def wt_cyclic_encoder(spec: FunctionSpec, t: int) -> FccEncoder:
    """Weight-protecting encoder: parity = base word for wt(u) mod the cycle.

    Weights whose difference is below 2t+1 need parities making up the gap;
    the base cycle's distances cover every residue offset, and weights a full
    cycle apart are already 2t+1 apart in the message alone. Redundancy 3
    for t=1 and 6 for t=2 (both optimal), the base length beyond.
    """
    _family_pairs(spec, "wt", t)
    if spec.k <= t:
        raise ValueError(f"need k > t, got k={spec.k}, t={t}")
    base = _wt_parity_base(t)
    words = tuple(base[wgt % base.size].value for wgt in range(spec.k + 1))
    return FccEncoder(spec, t, base.length, words)


def delta_ramp_encoder(spec: FunctionSpec, t: int) -> FccEncoder:
    """Weight-block encoder with ramp parities of length exactly 2t.

    Parity for weight wgt is 1^(wgt mod T) padded with zeros when that prefix
    fits in 2t bits, else all ones; indices then repeat every T weights.
    Needs 2t+1 <= T: inside a block the value doesn't change, and across the
    block boundary the ramp wraps from all-ones back to all-zeros, paying the
    full 2t where the messages themselves differ least. The words are the
    2t+1 ramp steps, and the message key is the weight table mapped to
    steps (`_weight_table`, which bounds k). T is read off the spec's name.
    """
    k, T = spec.k, int(_family_pairs(spec, "delta_T", t)["T"])
    if 2 * t + 1 > T:
        raise ValueError(f"need 2t+1 <= T, got t={t}, T={T}")
    r = 2 * t
    words = tuple(((1 << ones) - 1) << (r - ones) for ones in range(r + 1))
    weights = _weight_table(k)  # weights 0..k, so k + 1 steps
    step_of_weight = bytes(min(v % T, r) for v in range(k + 1)).ljust(256, b"\0")
    return FccEncoder(spec, t, r, words, weights.translate(step_of_weight))


# --- locally binary functions ------------------------------------------------


def locally_binary_encoder(spec: FunctionSpec, t: int) -> FccEncoder:
    """One indicator bit repeated 2t times, for functions that are locally
    two-valued at radius 2t.

    The bit says whether f(u) is the larger of the (at most two) values in
    u's radius-2t ball. Messages with different values within distance 2t
    then disagree on the full parity, and anything further apart needs no
    parity help. Redundancy exactly 2t. The bit is set, for all messages at
    once, on each value's preimages outside the radius-2t balls of the
    values above it, in the values' own order.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    balls = fcc.value_balls(spec, 2 * t)
    ok, witness = fcc.is_locally_binary(spec, 2 * t, balls)
    if not ok:
        raise ValueError(
            f"{spec.name} is not {2 * t}-locally binary (witness {witness})"
        )
    top = above = 0
    for i in sorted(range(spec.expressiveness), key=spec.image.__getitem__, reverse=True):
        top |= spec.preimage_masks[i] & ~above
        above |= balls[i]
    bits = format(top, f"0{1 << spec.k}b")[::-1].encode()  # message u's bit at u
    # bit 0 keys word 0, all zeros, and bit 1 word 1, all ones
    return FccEncoder(spec, t, 2 * t, (0, (1 << 2 * t) - 1), bits.translate(_BIT_VALUES))


# --- min-max -----------------------------------------------------------------


def minmax_parity_encoder(spec: FunctionSpec, t: int) -> FccEncoder:
    """Min-max encoder from a replicated even-weight code.

    Distinct values sit at message distance >= 1, so parities pairwise 2t
    apart suffice; replicating a distance-2 even-weight code t-fold provides
    E = w(w-1) of them at length t(ceil(log2 E) + 1).
    """
    _family_pairs(spec, "minmax", t)
    r = minmax_parity_redundancy(spec.expressiveness, t)
    code = construct.replicate_bits(construct.even_weight_subcode(spec.expressiveness, r // t), t)
    return FccEncoder(spec, t, r, tuple(w.value for w in code.words))


def minmax_parity_redundancy(e: int, t: int) -> int:
    """`minmax_parity_encoder`'s r for E = w(w-1) values, t(ceil(log2 E) + 1):
    the even-weight code's width, replicated t-fold."""
    return t * ((max(e - 1, 1)).bit_length() + 1)


def minmax_rm_encoder(spec: FunctionSpec, t: int) -> FccEncoder:
    """Min-max encoder drawing parities from a Reed-Muller code.

    Takes `minmax_rm_shape`'s RM(order, m), the smallest m (then the
    smallest order) with min distance >= 2t and at least E = w(w-1)
    codewords; the first E codewords become the parities. Redundancy 2^m —
    asymptotically near 4t when w is small relative to t. The parities
    depend on (E, t) alone, not on the block length l.
    """
    _family_pairs(spec, "minmax", t)
    e = spec.expressiveness
    m, order = minmax_rm_shape(e, t)
    rm = construct.reed_muller_code(order, m)
    parities = tuple(rm.words[:e])
    if construct.min_distance(Code.of(parities, rm.length)) < 2 * t:  # pragma: no cover - by design
        raise AssertionError("Reed-Muller subcode lost its distance")
    return FccEncoder(spec, t, rm.length, tuple(w.value for w in parities))


def minmax_rm_shape(e: int, t: int) -> tuple[int, int]:
    """The (m, order) of `minmax_rm_encoder`'s RM(order, m) for E = w(w-1)
    values, whose r is 2^m: the least m, then order, with distance
    2^(m - order) >= 2t and dimension >= ceil(log2 E)."""
    need_dim = (max(e - 1, 1)).bit_length()  # ceil(log2 E)
    dist_gap = (2 * t - 1).bit_length()  # smallest g with 2^g >= 2t
    return next((m, o) for m in count() for o in range(m - dist_gap + 1)
                if sum(math.comb(m, i) for i in range(o + 1)) >= need_dim)


# --- registry glue -----------------------------------------------------------


def _get(params: dict[str, str], key: str, parse):
    if key in params:
        return parse(params[key])
    raise ValueError(f"missing parameter {key!r}")


def _int_family(build, *keys: str):
    """Registry builder of a family whose parameters are all integers."""
    return lambda p: build(*(_get(p, key, int) for key in keys))


def check_minmax_k(k: int | str | None, w: int, l: int) -> None:
    """The min-max rule k = w·l: a given k that breaks it is an error."""
    if k is not None and int(k) != w * l:
        raise ValueError(f"k={k} inconsistent with w*l={w * l}")


def _build_minmax(p: dict[str, str]) -> FunctionSpec:
    w = _get(p, "w", int)
    l = _get(p, "l", int)
    check_minmax_k(p.get("k"), w, l)
    return minmax_spec(w, l)


def _build_indicator(p: dict[str, str]) -> FunctionSpec:
    path = _get(p, "path", str)
    if "," in path or path != path.strip():  # the spec's name could not carry it
        raise ValueError(f"indicator path {path!r}: a function string cannot carry "
                         "a comma or spaces at either end")
    with open(path, "r", encoding="utf-8") as fh:
        code = Code.from_text(fh.read())
    if "k" in p and int(p["k"]) != code.length:
        raise ValueError(f"k={p['k']} inconsistent with codeword length {code.length}")
    return indicator_spec(code, name=f"indicator:path={path}")


def _fraction(key: str, text: str) -> Fraction:
    """A parameter's number; a zero denominator is a ValueError naming it."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{key}={text} has a zero denominator") from None


def ml_kind_from_pairs(name: str, a: str | None, b: str | None) -> MlFunctionKind:
    """The kind a registry string or the CLI names with a= and b=: the
    interval [a, b] of a bijective kind, the cutoff a (or b) of a symmetric
    one. relu has no interval, and a symmetric kind one cutoff, so the other
    combinations are rejected rather than dropped."""
    style = _ML_DEFAULTS.get(name, (None, None, None))[0]
    lo = _fraction("a", a) if a is not None else None
    hi = _fraction("b", b) if b is not None else None
    if style == BIJECTIVE_POSITIVE and (lo, hi) != (None, None):
        raise ValueError(f"{name} has no interval to override: it takes no a= or b=")
    if style == SYMMETRIC and lo is not None and hi is not None:
        raise ValueError(f"{name} takes one cutoff a=, not an interval a=, b=")
    if style == SYMMETRIC and lo is not None:
        lo, hi = Fraction(0), lo  # one-sided cutoff given as a=
    return ml_kind(name, lo, hi)


def _build_ml(p: dict[str, str]) -> FunctionSpec:
    if "arg" not in p:
        raise ValueError("ml needs a kind, e.g. ml:sigmoid,k=5,eps=1")
    kind = ml_kind_from_pairs(p["arg"], p.get("a"), p.get("b"))
    q = Quantizer(_get(p, "k", int), _fraction("eps", _get(p, "eps", str)))
    return ml_spec(kind, q)


for _name, _build, _keys in (
    ("wt", wt_spec, ("k",)),
    ("parity", parity_spec, ("k",)),
    ("or", or_spec, ("k",)),
    ("constant", constant_spec, ("k",)),
    ("delta_T", delta_spec, ("k", "T")),
):
    fcc.register_spec_builder(_name, _int_family(_build, *_keys), _keys)
fcc.register_spec_builder("minmax", _build_minmax, ("k", "w", "l"))
fcc.register_spec_builder("indicator", _build_indicator, ("k", "path"))
fcc.register_spec_builder("ml", _build_ml, ("k", "arg", "eps", "a", "b"))
