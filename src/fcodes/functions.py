"""Concrete protected functions and their specialized encoders.

Families: Hamming weight, weight blocks (floor(wt/T)), block min-max,
codeword indicator, and quantized machine-learning activations. Each comes
with the cheap encoder the theory promises for it, built from the raw
material in `fcodes.construct`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import construct, fcc
from .bits import Code, DistanceMatrix
from .bounds import gv_irregular_threshold  # noqa: F401 - perfbench/spans.py wraps this name
from .fcc import _BIT_VALUES, FccEncoder, FunctionSpec

# --- plain specs ---------------------------------------------------------


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _weight_table(k: int) -> bytes:
    """wt(u) for every k-bit message u, one byte each, by doubling: the
    messages with the new top bit set weigh one more than those without."""
    table = b"\0"
    for _ in range(k):
        table += table.translate(_PLUS_ONE)
    return table


def _weight_spec(k: int, image, name: str, index_of_weight) -> FunctionSpec:
    """A spec whose value at u is image[index_of_weight(wt(u))], the rule
    written once on the weights: fn reads it per message, and the whole
    table is the weight table mapped through it."""
    values, index = tuple(image), list(map(index_of_weight, range(k + 1)))
    bulk = lambda: _weight_table(k).translate(bytes(index).ljust(256, b"\0"))
    return FunctionSpec(k, lambda u: values[index[u.bit_count()]], values, name=name, bulk_table=bulk)


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
    mins = maxs = bytes(range(size))
    argmin = argmax = bytes([w - 1]) * size
    for i in range(w - 2, -1, -1):
        n = len(mins)
        here = int.from_bytes(bytes([i]) * n, "big")
        amin, amax = int.from_bytes(argmin, "big"), int.from_bytes(argmax, "big")
        parts: list[list[bytes]] = [[], [], [], []]
        for b in range(size):
            takes_min = int.from_bytes(mins.translate(b"\0" * b + b"\xff" * (256 - b)), "big")
            takes_max = int.from_bytes(maxs.translate(b"\xff" * b + b"\0" * (256 - b)), "big")
            parts[0].append(mins.translate(bytes(range(b)) + bytes([b]) * (256 - b)))
            parts[1].append(maxs.translate(bytes([b]) * (b + 1) + bytes(range(b + 1, 256))))
            parts[2].append(((amin & ~takes_min) | (here & takes_min)).to_bytes(n, "big"))
            parts[3].append(((amax & ~takes_max) | (here & takes_max)).to_bytes(n, "big"))
        mins, maxs, argmin, argmax = (b"".join(p) for p in parts)
    # position pair (i, j) as the byte i * w + j, then its image index
    pair = int.from_bytes(argmin.translate(bytes(v * w & 255 for v in range(256))), "big")
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


@dataclass(frozen=True)
class Quantizer:
    """Fixed-precision signed quantizer: k bits, step epsilon.

    Message u represents the real value epsilon * (u - 2^(k-1) + 1/2); the
    2^k centers are symmetric about zero and strictly increasing in u.
    """

    k: int
    epsilon: Fraction

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need k >= 2, got {self.k}")
        if self.epsilon <= 0:
            raise ValueError(f"need epsilon > 0, got {self.epsilon}")

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


@dataclass(frozen=True)
class MlFunctionKind:
    """An activation's shape class and the interval where it is injective."""

    name: str
    style: str
    lo: Fraction | None  # interval start (bijective kinds)
    hi: Fraction | None  # interval end, or the one-sided cutoff a (symmetric)


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


def ml_distance_matrix(spec: FunctionSpec, t: int) -> DistanceMatrix:
    """Requirement matrix for an activation's spec (`ml_spec`), classwise.

    Groups messages by the spec's index table (saturation classes, single
    centers, +/- pairs for symmetric kinds) and takes, for each pair of
    classes, the plain minimum of Hamming distances between their members —
    the direct form of the distance the generic matrix reaches through shell
    search. Rows follow ml_spec's image order, so the two agree entrywise.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if spec.k > 16:
        raise ValueError(f"k={spec.k} too large for classwise minimization")
    members: list[list[int]] = [[] for _ in spec.image]
    for u, i in enumerate(spec.index_table):
        members[i].append(u)
    e = len(members)
    rows = [[0] * e for _ in range(e)]
    for i in range(e):
        for j in range(i + 1, e):
            rows[i][j] = rows[j][i] = min(
                (a ^ b).bit_count() for a in members[i] for b in members[j]
            )
    return fcc.requirement_matrix(rows, t, spec.k)


def wt_requirement_matrix(k: int, t: int) -> DistanceMatrix:
    """Requirement matrix between weight values, in closed form.

    Weights i and j admit messages as close as |i - j|, so the entry is
    max(2t+1 - |i - j|, 0). Equal to the generic value-distance matrix of
    wt_spec(k) but costs nothing to build, whatever k.
    """
    if k < 1 or t < 1:
        raise ValueError(f"need k >= 1 and t >= 1, got ({k}, {t})")
    return fcc.requirement_matrix(
        ([abs(i - j) for j in range(k + 1)] for i in range(k + 1)), t, k
    )


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
    n = 1 << (4 * t - 1).bit_length()
    kept = n // 2 + 2 * t
    rows = construct.hadamard_code(n // 2).words[: 2 * t + 1]
    return Code.of((w.split(kept)[0] for w in rows), kept)


def wt_cyclic_encoder(k: int, t: int) -> FccEncoder:
    """Weight-protecting encoder: parity = base word for wt(u) mod the cycle.

    Weights whose difference is below 2t+1 need parities making up the gap;
    the base cycle's distances cover every residue offset, and weights a full
    cycle apart are already 2t+1 apart in the message alone. Redundancy 3
    for t=1 and 6 for t=2 (both optimal), the base length beyond.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if k <= t:
        raise ValueError(f"need k > t, got k={k}, t={t}")
    base = _wt_parity_base(t)
    period = base.size
    spec = wt_spec(k)
    words = tuple(base[wgt % period].value for wgt in range(k + 1))
    return FccEncoder(spec, t, base.length, words)


def delta_ramp_encoder(k: int, T: int, t: int) -> FccEncoder:
    """Weight-block encoder with ramp parities of length exactly 2t.

    Parity for weight wgt is 1^(wgt mod T) padded with zeros when that prefix
    fits in 2t bits, else all ones; indices then repeat every T weights.
    Needs 2t+1 <= T: inside a block the value doesn't change, and across the
    block boundary the ramp wraps from all-ones back to all-zeros, paying the
    full 2t where the messages themselves differ least. The words are the
    2t+1 ramp steps, and the message key is the weight table mapped to
    steps; k is bounded as `FunctionSpec.index_table` is.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if 2 * t + 1 > T:
        raise ValueError(f"need 2t+1 <= T, got t={t}, T={T}")
    if k > 24:
        raise ValueError(f"k={k} too large to tabulate")
    r = 2 * t
    words = tuple(((1 << ones) - 1) << (r - ones) for ones in range(r + 1))
    step_of_weight = bytes(min(v % T, r) for v in range(256))
    return FccEncoder(delta_spec(k, T), t, r, words, _weight_table(k).translate(step_of_weight))


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
    ok, witness = fcc.is_locally_binary(spec, 2 * t)
    if not ok:
        raise ValueError(
            f"{spec.name} is not {2 * t}-locally binary (witness {witness})"
        )
    balls = fcc.value_balls(spec, 2 * t)
    top = above = 0
    for i in sorted(range(spec.expressiveness), key=spec.image.__getitem__, reverse=True):
        top |= spec.preimage_masks[i] & ~above
        above |= balls[i]
    bits = format(top, f"0{1 << spec.k}b")[::-1].encode()  # message u's bit at u
    # bit 0 keys word 0, all zeros, and bit 1 word 1, all ones
    return FccEncoder(spec, t, 2 * t, (0, (1 << 2 * t) - 1), bits.translate(_BIT_VALUES))


# --- min-max -----------------------------------------------------------------


@dataclass(frozen=True)
class MinMaxOracleResult:
    """Exhaustively measured value-distance landscape of a min-max spec."""

    spec: FunctionSpec
    distances: DistanceMatrix  # raw closest-approach distances, not requirements
    neighbor_counts: tuple[int, ...]  # per value: values at distance exactly 1

    def claims_hold(self, t: int = 1) -> bool:
        """Whether the landscape has the structure the min-max encoders rely
        on: swapped values at distance 2 (for w >= 4 index-disjoint ones too),
        none farther, 4(w-2) values at distance 1 from each, and so
        4w(w-1)(w-2) ordered pairs needing the full 2t at budget t."""
        if t < 1:
            raise ValueError(f"need t >= 1, got {t}")
        image, d = self.spec.image, self.distances
        w = len({v.argmin_index for v in image})
        pairs = [(i, j) for i in range(d.dim) for j in range(d.dim) if i != j]
        swaps_at_2 = all(d.at(i, j) == 2 for i, j in pairs if image[i] == image[j][::-1])
        req = fcc.function_distance_matrix(self.spec, t)
        full_2t = sum(req.at(i, j) == 2 * t for i, j in pairs)
        return (
            swaps_at_2
            and d.max_entry == 2
            and all(c == 4 * (w - 2) for c in self.neighbor_counts)
            and full_2t == 4 * w * (w - 1) * (w - 2)
        )


def minmax_distance_oracle(spec: FunctionSpec) -> MinMaxOracleResult:
    """Exhaustively measure all pairwise value distances of a min-max spec.

    Ground truth for the structural facts the cheap encoders rely on: the
    farthest pairs are the swapped (i,j)/(j,i) ones at distance 2, and every
    value has exactly 4(w-2) values at distance 1.
    """
    if spec.k > 18:
        raise ValueError(f"k={spec.k} too large for the exhaustive oracle")
    rows = fcc.value_distances(spec, spec.k)
    counts = tuple(row.count(1) for row in rows)
    return MinMaxOracleResult(spec, DistanceMatrix.from_rows(rows), counts)


def minmax_parity_encoder(w: int, l: int, t: int) -> FccEncoder:
    """Min-max encoder from a replicated even-weight code.

    Distinct values sit at message distance >= 1, so parities pairwise 2t
    apart suffice; replicating a distance-2 even-weight code t-fold provides
    w(w-1) of them at length t(ceil(log2(w(w-1))) + 1).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    spec = minmax_spec(w, l)
    e = spec.expressiveness
    width = (max(e - 1, 1)).bit_length() + 1  # ceil(log2 e) + 1
    base = construct.even_weight_subcode(e, width)
    code = construct.replicate_bits(base, t)
    return FccEncoder(spec, t, code.length, tuple(w.value for w in code.words))


def minmax_rm_encoder(w: int, t: int, l: int = 3) -> FccEncoder:
    """Min-max encoder drawing parities from a Reed-Muller code.

    Picks the smallest m (then the smallest order) whose RM(order, m) has
    min distance >= 2t and at least w(w-1) codewords; the first w(w-1)
    codewords become the parities. Redundancy 2^m — asymptotically near 4t
    when w is small relative to t. The block length l only sizes the message
    domain; the parities depend on (w, t) alone.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    spec = minmax_spec(w, l)
    e = spec.expressiveness
    need_dim = (max(e - 1, 1)).bit_length()  # ceil(log2 e)
    dist_gap = (2 * t - 1).bit_length()  # smallest g with 2^g >= 2t
    m = 0
    while True:
        chosen = None
        for order in range(m + 1):
            if m - order < dist_gap:
                break
            if sum(math.comb(m, i) for i in range(order + 1)) >= need_dim:
                chosen = order
                break
        if chosen is not None:
            break
        m += 1
    rm = construct.reed_muller_code(chosen, m)
    parities = tuple(rm.words[:e])
    sub = Code.of(parities, rm.length)
    if construct.min_distance(sub) < 2 * t:  # pragma: no cover - by design
        raise AssertionError("Reed-Muller subcode lost its distance")
    return FccEncoder(spec, t, rm.length, tuple(w.value for w in parities))


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
    with open(path, "r", encoding="utf-8") as fh:
        code = Code.from_text(fh.read())
    if "k" in p and int(p["k"]) != code.length:
        raise ValueError(f"k={p['k']} inconsistent with codeword length {code.length}")
    return indicator_spec(code, name=f"indicator:path={path}")


def ml_kind_from_pairs(name: str, a: str | None, b: str | None) -> MlFunctionKind:
    """The kind a registry string or the CLI names with a= and b=: the
    interval [a, b] of a bijective kind, the cutoff a (or b) of a symmetric
    one. relu has no interval, and a symmetric kind one cutoff, so the other
    combinations are rejected rather than dropped."""
    style = _ML_DEFAULTS.get(name, (None, None, None))[0]
    lo = Fraction(a) if a is not None else None
    hi = Fraction(b) if b is not None else None
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
    q = Quantizer(_get(p, "k", int), _get(p, "eps", Fraction))
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
