"""Lower and upper bounds on code length and on encoder redundancy.

N(M, D) below means the smallest length admitting M binary words whose
pairwise Hamming distances meet a requirement matrix D (or a single common
requirement D). Everything algebraic is exact rational arithmetic; the two
genuinely real-valued bounds go through a guarded ceiling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, itemgetter, mul
from typing import Sequence

from .bits import DistanceMatrix, Record, sphere_size

CEIL_GUARD = 1e-9


def ceil_guarded(x: float) -> int:
    """Ceiling that snaps to the nearest integer when within CEIL_GUARD of it.

    Keeps float-valued bounds from flipping to the next integer (or failing to
    reach one) on account of representation error alone.
    """
    nearest = round(x)
    if abs(x - nearest) <= CEIL_GUARD:
        return int(nearest)
    return math.ceil(x)


class BoundResult(Record):
    """An exact bound value together with its integer form and provenance."""

    __slots__ = _fields = ("value", "integer_value", "kind", "source")

    def __init__(self, value: Fraction, integer_value: int, kind: str, source: str) -> None:
        self._init(value, integer_value, kind, source)  # kind: "lower" | "upper"

    def to_json_dict(self) -> dict:
        return {
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "integer_value": self.integer_value,
            "kind": self.kind,
            "source": self.source,
        }

    def __str__(self) -> str:
        v = self.value
        text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return f"{text} (ceil {self.integer_value})"


def _lower(value: Fraction, source: str) -> BoundResult:
    return BoundResult(value, math.ceil(value), "lower", source)


def _upper(value: Fraction, source: str) -> BoundResult:
    return BoundResult(value, math.ceil(value), "upper", source)


def plotkin_irregular(dmat: DistanceMatrix) -> BoundResult:
    """Averaging lower bound on N(M, D) for a full requirement matrix.

    With M words, column sums of any code are most spread at M/2, which caps
    the total pairwise distance per coordinate at M²/4 (even M) or (M²−1)/4
    (odd M); dividing the required distance total by that cap bounds the
    length from below. Fewer than two words need no length: 0.
    """
    return _lower(Fraction(*plotkin_ratio(dmat)), "plotkin-irregular")


def plotkin_ratio(dmat: DistanceMatrix) -> tuple[int, int]:
    """`plotkin_irregular`'s value: `total_plotkin_ratio` of the matrix's
    required distance total."""
    m = dmat.dim
    total = sum(dmat.entries[i][j] for i in range(m) for j in range(i + 1, m))
    return total_plotkin_ratio(total, m)


def total_plotkin_ratio(total: int, m: int) -> tuple[int, int]:
    """The averaging bound on m words whose required pairwise distances add
    up to `total`, as (4 · total, M² − (M mod 2)); (0, 1) for M <= 1, where
    the empty code of length 0 does."""
    if m < 2:
        return 0, 1
    return 4 * total, m * m - m % 2


def plotkin_regular(size: int, dist: int) -> BoundResult:
    """Plotkin-style lower bound 2·D·(M−1)/M for a common requirement D."""
    if size < 2:
        raise ValueError(f"need at least 2 words, got {size}")
    if dist < 0:
        raise ValueError(f"negative distance {dist}")
    return _lower(Fraction(2 * dist * (size - 1), size), "plotkin-regular")


def _placements(dmat: DistanceMatrix, order: Sequence[int] | None) -> list[tuple[int, ...]]:
    """The distinct placements of a greedy build in `order`, a permutation of
    the rows: placement j's earlier rows counted by requirement, as the counts
    of each d = 1..D_max; placements with equal counts appear once."""
    rows = dmat.entries
    if order is not None and len(order) > 1:  # rows and columns reindexed by order
        pick = itemgetter(*order)
        rows = [pick(rows[i]) for i in order]
    needs = range(1, dmat.max_entry + 1)
    return list({tuple(map(row[:j].count, needs)) for j, row in enumerate(rows)})


def _first_full(profiles: list[tuple[int, ...]], row: list[int], r: int) -> int | None:
    """The index of the first placement whose forbidden volume
    sum_d count[d] * V(r, d - 1) reaches 2^r, or None when every placement
    fits; row[i] is C(r, i) for every radius i below D_max."""
    volume = list(accumulate(row))  # volume[d - 1] = V(r, d - 1)
    space = 1 << r
    for i, profile in enumerate(profiles):
        if sum(map(mul, profile, volume)) >= space:
            return i
    return None


def _start(profiles: list[tuple[int, ...]]) -> int:
    """The least r where 2^r exceeds some placement's number of nonzero
    requirements, the volume when every sphere is one word: no greedy length
    is shorter."""
    return max(map(sum, profiles), default=0).bit_length()


def _not_below(profiles: list[tuple[int, ...]], below: int, top: int) -> bool:
    """Whether some of these placements keep the greedy length at `below` or
    more: one starts there, or is full at below - 1; `top` is D_max."""
    if below <= _start(profiles):
        return True
    row = [math.comb(below - 1, i) for i in range(top)]
    return _first_full(profiles, row, below - 1) is not None


def gv_irregular_threshold(
    dmat: DistanceMatrix, order: Sequence[int] | None = None, below: int | None = None
) -> int | None:
    """Greedy sphere-covering upper bound on N(M, D).

    Words are placed one by one in the given order; the j-th placement
    succeeds whenever 2^r exceeds the total volume of the forbidden spheres
    around the already-placed words. Returns the smallest such r (a length
    that provably admits a satisfying code). Zero requirements contribute
    nothing (an empty sphere). Placement j counts its earlier rows by
    requirement value d once, so at each r its forbidden volume is
    sum_d count_j[d] * V(r, d - 1), with the binomials C(r, i) kept from one
    r to the next by Pascal's rule; placements with equal counts are checked
    once, the one that failed last first. The search starts where 2^r first
    exceeds the number of nonzero requirements of some placement, the volume
    when every sphere is one word.

    As V(r + 1, d) <= 2 V(r, d), no placement's share of the space
    V(r, d - 1) / 2^r rises with r, so a length where every placement fits
    bounds the threshold from above, and one where a placement is full
    bounds it from below. With `below`, the result is None where the
    threshold is not below it, settled by tests at below - 1 before any
    search: first of the last placement alone, whose earlier rows are its
    whole row, then of every placement.
    """
    m, top = dmat.dim, dmat.max_entry
    if order is not None and sorted(order) != list(range(m)):
        raise ValueError(f"order is not a permutation of 0..{m - 1}")
    if below is not None and m:
        row = dmat.entries[m - 1 if order is None else order[-1]]
        if _not_below([tuple(map(row.count, range(1, top + 1)))], below, top):
            return None
    profiles = _placements(dmat, order)
    if below is not None and _not_below(profiles, below, top):
        return None
    r = _start(profiles)
    row = [math.comb(r, i) for i in range(top)]
    while True:
        full = _first_full(profiles, row, r)
        if full is None:
            return r
        profiles[0], profiles[full] = profiles[full], profiles[0]
        r += 1
        row = [1, *map(add, row[1:], row)]  # C(r + 1, i) = C(r, i) + C(r, i - 1)


def heuristic_row_order(dmat: DistanceMatrix) -> tuple[int, ...]:
    """Descending row sums (ties by index): often tightens the greedy bound."""
    sums = dmat.row_sums()
    return tuple(sorted(range(dmat.dim), key=lambda i: (-sums[i], i)))


def gv_threshold_and_order(
    dmat: DistanceMatrix, below: int | None = None
) -> tuple[int, tuple[int, ...] | None] | None:
    """The greedy length and row order of every greedy build: the smaller
    `gv_irregular_threshold` of the identity order (None, which wins ties)
    and `heuristic_row_order`. Either threshold bounds N(M, D) above. The
    heuristic order is searched first, and the identity order only where it
    could win, at or below the heuristic length, where its last placement
    often settles it alone; with `below`, None where neither length is
    below it."""
    order = heuristic_row_order(dmat)
    r_heur = gv_irregular_threshold(dmat, order, below)
    r = gv_irregular_threshold(dmat, None, below if r_heur is None else r_heur + 1)
    if r is not None:
        return r, None
    return None if r_heur is None else (r_heur, order)


def hadamard_upper(size: int, dist: int) -> BoundResult | None:
    """Upper bound N ≤ 2·D from a Hadamard-derived code, when one exists.

    Applicable when M ≤ 4D and a Sylvester matrix of order 2D materialises
    (2D a power of two). Returns None otherwise; a negative size or distance
    is an error.
    """
    if size < 0 or dist < 0:
        raise ValueError(f"negative size or distance: ({size}, {dist})")
    if size < 1 or dist < 1:
        return None
    if size > 4 * dist:
        return None
    n = 2 * dist
    if n & (n - 1) != 0:  # not a power of two: no Sylvester matrix
        return None
    return _upper(Fraction(n), "hadamard")


def gv_regular_closed_form(size: int, dist: int) -> BoundResult | None:
    """Closed-form upper bound 2D / (1 − 2·sqrt(ln D / D)).

    Valid for D ≥ 10 and M ≤ D²; returns None outside that range, and a
    negative size or distance is an error.
    """
    if size < 0 or dist < 0:
        raise ValueError(f"negative size or distance: ({size}, {dist})")
    if dist < 10 or size > dist * dist:
        return None
    raw = 2 * dist / (1 - 2 * math.sqrt(math.log(dist) / dist))
    return BoundResult(Fraction(raw), ceil_guarded(raw), "upper", "gv-closed-form")


def sandwich(dmat: DistanceMatrix) -> tuple[BoundResult, BoundResult]:
    """Bracket N(M, D) between the largest single requirement and a GV bound.

    Lower: some pair must differ in D_max coordinates, so N ≥ D_max. Upper:
    the closed form at D_max when its range applies, else the greedy
    threshold on the matrix itself (`gv_threshold_and_order`).
    """
    d_max = dmat.max_entry
    lower = _lower(Fraction(d_max), "max-entry")
    upper = gv_regular_closed_form(dmat.dim, d_max)
    if upper is None:
        upper = _upper(Fraction(gv_threshold_and_order(dmat)[0]), "gv-threshold")
    return lower, upper


def wt_lower_bound(t: int) -> BoundResult:
    """Lower bound on the redundancy needed to protect the Hamming weight.

    Exact rational (10t³ + 30t² + 20t + 12) / (3t² + 12t + 12); its ceiling is
    tight for t = 1 (3) and t = 2 (6).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    num = 10 * t**3 + 30 * t**2 + 20 * t + 12
    den = 3 * t**2 + 12 * t + 12
    return _lower(Fraction(num, den), "wt-lower")


def minmax_lower_bound(w: int, t: int) -> BoundResult:
    """Lower bound on redundancy for the (argmin, argmax) block function.

    Exact rational (4t(w²−w−1) − 3w² + 7w − 5) / (w(w−1)), valid for w ≥ 3
    blocks of length ≥ 2.
    """
    if w < 3:
        raise ValueError(f"need w >= 3, got {w}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    num = 4 * t * (w * w - w - 1) - 3 * w * w + 7 * w - 5
    den = (w - 1) * w
    return _lower(Fraction(num, den), "minmax-lower")


def minmax_sphere_packing_bound(w: int, t: int) -> BoundResult:
    """Sphere-packing flavoured lower bound for the block min-max function.

    log2(w(w−1)) + (t−2)·log2 log2(w(w−1)) − t·log2 t, for w ≥ 3, t ≥ 2.
    Real-valued; the integer form is a guarded ceiling.
    """
    if w < 3:
        raise ValueError(f"need w >= 3, got {w}")
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    e = w * (w - 1)
    raw = math.log2(e) + (t - 2) * math.log2(math.log2(e)) - t * math.log2(t)
    return BoundResult(Fraction(raw), ceil_guarded(raw), "lower", "minmax-sphere-packing")


def minmax_gv_upper(w: int, t: int) -> int:
    """Greedy upper bound on redundancy for the block min-max function.

    Each of the w(w−1) function values must get a parity word; around a fixed
    value the others forbid (w²−w−1)·V(r, 2t−2) + (4w−8)·C(r, 2t−1) words
    (the swapped pair and the (w−2)(w−3) distance-2 values need distance
    2t−1, the 4(w−2) adjacent values need 2t). Returns the smallest r whose
    space 2^r strictly exceeds that count. Coincides with
    gv_irregular_threshold on the min-max requirement matrix.
    """
    if w < 3:
        raise ValueError(f"need w >= 3, got {w}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    r = 0
    while True:
        phi = (
            (1 << r)
            - (w * w - w - 1) * sphere_size(r, 2 * t - 2)
            - (4 * w - 8) * math.comb(r, 2 * t - 1)
        )
        if phi > 0:
            return r
        r += 1


def _ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError(f"need a positive argument, got {x}")
    return (x - 1).bit_length()


def ecc_on_data_redundancy(k: int, t: int) -> int:
    """Redundancy of the classical route: correct the data, then evaluate.

    Smallest r with r ≥ t·ceil(log2(k + r)) — a Singleton/Hamming style
    estimate for a t-error-correcting code on k message bits. Grows like
    t·log2(k). (At k = 1 the estimate degenerates to 0; a one-bit message
    really takes a repetition code costing 2t.)
    """
    if k < 1 or t < 1:
        raise ValueError(f"need k >= 1 and t >= 1, got ({k}, {t})")
    r = t * _ceil_log2(k)
    while r < t * _ceil_log2(k + r):
        r = t * _ceil_log2(k + r)
    return r


def ecc_on_function_values_redundancy(image_size: int, t: int) -> int:
    """Redundancy of the other classical route: send f(u) in a protected code.

    ceil(log2 E) bits describe the value, and protecting them costs what
    the data route costs on that many message bits. Grows like log2 E +
    t·log2 log2 E. (For tiny images the estimate degenerates; a 2-valued
    function is really a repetition code costing 2t+1.)
    """
    if image_size < 2 or t < 1:
        raise ValueError(f"need image size >= 2 and t >= 1, got ({image_size}, {t})")
    base = _ceil_log2(image_size)
    return base + ecc_on_data_redundancy(base, t)
