"""Lower and upper bounds on code length and on encoder redundancy.

N(M, D) below means the smallest length admitting M binary words whose
pairwise Hamming distances meet a requirement matrix D (or a single common
requirement D). Everything algebraic is exact rational arithmetic; the two
genuinely real-valued bounds go through a guarded ceiling.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bits import DistanceMatrix, sphere_size

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


@dataclass(frozen=True)
class BoundResult:
    """An exact bound value together with its integer form and provenance."""

    value: Fraction
    integer_value: int
    kind: str  # "lower" | "upper"
    source: str

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
    length from below.
    """
    m = dmat.dim
    if m < 2:
        raise ValueError(f"need at least 2 rows, got {m}")
    total = sum(dmat.entries[i][j] for i in range(m) for j in range(i + 1, m))
    denom = m * m if m % 2 == 0 else m * m - 1
    return _lower(Fraction(4 * total, denom), "plotkin-irregular")


def plotkin_regular(size: int, dist: int) -> BoundResult:
    """Plotkin-style lower bound 2·D·(M−1)/M for a common requirement D."""
    if size < 2:
        raise ValueError(f"need at least 2 words, got {size}")
    if dist < 0:
        raise ValueError(f"negative distance {dist}")
    return _lower(Fraction(2 * dist * (size - 1), size), "plotkin-regular")


def gv_irregular_threshold(
    dmat: DistanceMatrix, order: Sequence[int] | None = None
) -> int:
    """Greedy sphere-covering upper bound on N(M, D).

    Words are placed one by one in the given order; the j-th placement
    succeeds whenever 2^r exceeds the total volume of the forbidden spheres
    around the already-placed words. Returns the smallest such r (a length
    that provably admits a satisfying code). Zero requirements contribute
    nothing (an empty sphere). Placement j counts its earlier rows by
    requirement value d once, so at each r its forbidden volume is
    sum_d count_j[d] * V(r, d - 1), with one sphere_size per distinct d;
    placements with equal counts are checked once. The search starts where
    2^r first exceeds the number of nonzero requirements of some placement,
    the volume when every sphere is one word.
    """
    m = dmat.dim
    if order is None:
        order = range(m)
    else:
        if sorted(order) != list(range(m)):
            raise ValueError(f"order is not a permutation of 0..{m - 1}")
    pi = list(order)
    profiles = set()
    for j in range(m):
        count = Counter(map(dmat.entries[pi[j]].__getitem__, pi[:j]))
        count.pop(0, None)
        profiles.add(tuple(sorted(count.items())))
    needs = {need for profile in profiles for need, _ in profile}
    # every nonzero requirement forbids at least its own word
    r = max((sum(c for _, c in profile).bit_length() for profile in profiles), default=0)
    while True:
        volume = {need: sphere_size(r, need - 1) for need in needs}
        if all(
            sum(c * volume[need] for need, c in profile) < 1 << r for profile in profiles
        ):
            return r
        r += 1


def heuristic_row_order(dmat: DistanceMatrix) -> tuple[int, ...]:
    """Descending row sums (ties by index): often tightens the greedy bound."""
    sums = dmat.row_sums()
    return tuple(sorted(range(dmat.dim), key=lambda i: (-sums[i], i)))


def gv_threshold_and_order(dmat: DistanceMatrix) -> tuple[int, tuple[int, ...] | None]:
    """The greedy length and row order of every greedy build: the smaller
    `gv_irregular_threshold` of the identity order (None, which wins ties)
    and `heuristic_row_order`. Either threshold bounds N(M, D) above."""
    r = gv_irregular_threshold(dmat)
    order = heuristic_row_order(dmat)
    r_heur = gv_irregular_threshold(dmat, order)
    return (r_heur, order) if r_heur < r else (r, None)


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
    t·log2(k).
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
