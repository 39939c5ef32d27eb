"""Code construction: greedy builds, exact minimal-length search, classic families.

The greedy builder realises the sphere-covering existence argument behind
`bounds.gv_irregular_threshold`: each word is the first one outside the
Hamming balls around the words placed before it, read off a bitset of those
balls. The exact search settles N(M, D) on desk-scale instances by
depth-first backtracking, run as an iterative kernel over row depths: each
row's domain is a cached mask of the balls of all but its last earlier row,
plus one ball per candidate. Its tree, and so its node count, is that of
the plain backtracking search, which the benchmark's committed node counts
pin. Hadamard (Sylvester), Reed-Muller,
even-weight subcodes and bit replication supply the raw material for the
specialised encoders in `fcodes.functions`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from . import bounds
from .bits import BitWord, Code, DistanceMatrix, _expand_once, _xor_translate
from .bits import satisfies_distance_matrix


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the exact search: length, backtracking nodes, wall clock."""

    max_length: int = 16
    max_nodes: int = 2_000_000
    time_limit: float = 30.0  # seconds

    def __post_init__(self) -> None:
        if not (self.max_length > 0 and self.max_nodes > 0 and self.time_limit > 0):  # NaN too
            raise ValueError(f"budget caps must be positive: {self}")


@dataclass(frozen=True)
class ExactLengthResult:
    """Outcome of exact_min_length.

    When `proven` is True, `value` is N(M, D) exactly and `code` is a witness.
    Otherwise `value` is the smallest length neither refuted nor confirmed
    before the budget ran out (so N >= value), and `code` is None.
    `refute_nodes` of the `nodes` were spent before the last length tried.
    """

    value: int
    proven: bool
    nodes: int
    code: Code | None
    refute_nodes: int = 0


_GREEDY_WINDOW = 16  # greedy_irregular_code's first window, in bits


def greedy_irregular_code(
    dmat: DistanceMatrix, r: int, order: Sequence[int] | None = None
) -> Code | None:
    """First-fit code for a requirement matrix at a fixed length.

    Rows are processed in `order`; each gets the smallest length-r word far
    enough from all previously placed ones. That word is the lowest clear
    bit of the union of the balls `_ball` around the placed words (radius
    D[i][j] - 1), a mask over the window of words below 2^s, the word an
    ascending scan of all 2^r candidates would stop at. The window starts
    at s = min(r, 16) bits and grows by one whenever it is full; every
    placed word lies inside it, so beyond 2^16 a mask never spans more than
    twice the largest word placed. That word is not small on matrices with
    many rows at high requirement: it grows roughly as 2^r (a uniform 12 on
    13 rows at r = 31 places one near 2^23), and time and memory with it.
    Returns None if some row exhausts the whole space, which provably cannot
    happen at r >= gv_irregular_threshold(dmat, order).
    """
    if r < 0:
        raise ValueError(f"negative length {r}")
    m = dmat.dim
    pi = list(range(m)) if order is None else list(order)
    if sorted(pi) != list(range(m)):
        raise ValueError(f"order is not a permutation of 0..{m - 1}")
    s = min(r, _GREEDY_WINDOW)
    balls: dict[int, dict[int, int]] = defaultdict(dict)
    words: dict[int, int] = {}
    for j in pi:
        row = dmat.entries[j]
        while True:
            blocked = 0
            for i, w in words.items():
                d = row[i]
                if d:
                    blocked |= balls[d].get(w) or _ball(balls, s, d, w)
            free = ~blocked & ((1 << (1 << s)) - 1)
            if free:
                words[j] = (free & -free).bit_length() - 1
                break
            if s == r:
                return None
            s += 1
            balls.clear()
    return Code.of((BitWord(words[i], r) for i in range(m)), r)


def _interchange_groups(dmat: DistanceMatrix) -> list[int | None]:
    """For each row, the previous row it may be swapped with harmlessly.

    Rows i and j are interchangeable when swapping them leaves the matrix
    unchanged, i.e. their rows agree everywhere outside columns {i, j}. Rows
    are grouped greedily into cliques of pairwise-interchangeable rows; the
    search may then insist on non-decreasing words inside each clique.
    """
    m = dmat.dim

    def interchangeable(i: int, j: int) -> bool:
        return all(
            dmat.entries[i][c] == dmat.entries[j][c]
            for c in range(m)
            if c != i and c != j
        )

    groups: list[list[int]] = []
    prev: list[int | None] = [None] * m
    for i in range(m):
        for g in groups:
            if all(interchangeable(i, j) for j in g):
                prev[i] = g[-1]
                g.append(i)
                break
        else:
            groups.append([i])
    return prev


class _Budget:
    """One exact search's node count and caps, kept across its lengths."""

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.time_limit
        self.nodes = 0
        self.exhausted = False


def _ball(balls: dict[int, dict[int, int]], r: int, d: int, w: int) -> int:
    """The length-r words closer than d >= 1 to w (the Hamming ball of
    radius d - 1), as a 2^r-bit mask.

    Around 0 it is the ball for d - 1 grown by one shell; around w it is the
    ball around 0 XOR-translated by w. balls[d] memoises it by w.
    """
    if d == 1:
        ball = 1 << w
    elif d > r:
        ball = (1 << (1 << r)) - 1
    else:
        ball = balls[d].get(0)
        if ball is None:
            ball = balls[d][0] = _expand_once(_ball(balls, r, d - 1, 0), r)
        ball = _xor_translate(ball, r, w)
    balls[d][w] = ball
    return ball


def _row_lists(dmat: DistanceMatrix) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Per row i: the (j, D[i][j]) pairs with j < i - 1 and D[i][j] > 0, and
    D[i][i - 1] (0 for row 0); one matrix's lists serve every length r."""
    far: list[list[tuple[int, int]]] = [[]]
    near = [0]
    for i in range(1, dmat.dim):
        row = dmat.entries[i]
        far.append([(j, row[j]) for j in range(i - 1) if row[j]])
        near.append(row[i - 1])
    return far, near


def _assignment_search(
    dmat: DistanceMatrix,
    r: int,
    budget: _Budget,
    prev_in_group: list[int | None],
    rows: tuple[list[list[tuple[int, int]]], list[int]],
) -> list[int] | None:
    """Find word values for every row at length r, or None if impossible.

    Depth-first over rows in index order, as an explicit loop over depths.
    The first row is pinned to the all-zero word: XOR-translating any
    satisfying code moves word 0 to zero without changing distances. Row
    i's candidates are the set bits of its domain doms[i]: the 2^r-bit mask
    of the words at distance >= D[i][j] from words[j] for every earlier row
    j (under row symmetry, also not below the word of its group
    predecessor), minus those already tried. They are tried lowest bit
    first at one budget node each, as a scan over all 2^r words would meet
    them; row 0's single word is the root node. No domain is looked at
    before its row is reached, so the tree and its node count are those of
    the plain backtracking search (the contract with pinned node counts).

    pre[i] holds the balls of rows < i - 1 against row i, ORed once when
    row i - 1's domain is set; each of row i - 1's candidates then adds one
    ball to form row i's domain. The node count is kept in a local and
    written back to `budget` on every exit; the node cap is tested at every
    node, the wall clock every 4,096 nodes (counted across lengths), and the
    node that reaches either still counts. `rows` is `_row_lists(dmat)`,
    built once per matrix.
    """
    m = dmat.dim
    if m == 0:
        return []
    far, near = rows
    full = (1 << (1 << r)) - 1
    balls: dict[int, dict[int, int]] = defaultdict(dict)
    near_balls = [balls[d] for d in near]
    words = [0] * m
    doms = [0] * m
    pre = [0] * m
    doms[0] = 1  # row 0: the all-zero word only
    i = 0
    nodes, max_nodes, deadline = budget.nodes, budget.max_nodes, budget.deadline
    monotonic = time.monotonic
    while True:
        dom = doms[i]
        if not dom:
            if not i:
                budget.nodes = nodes
                return None
            i -= 1
            continue
        low = dom & -dom
        doms[i] = dom ^ low
        nodes += 1
        if nodes >= max_nodes or (not nodes & 4095 and monotonic() > deadline):
            budget.nodes = nodes
            budget.exhausted = True
            return None
        w = words[i] = low.bit_length() - 1
        i += 1
        if i == m:
            budget.nodes = nodes
            return words
        blocked = pre[i]
        d = near[i]
        if d:
            blocked |= near_balls[i].get(w) or _ball(balls, r, d, w)
        dom = full ^ blocked
        p = prev_in_group[i]
        if p is not None:
            dom &= -(1 << words[p])
        if not dom:
            i -= 1  # a leaf: back to its siblings
            continue
        doms[i] = dom
        if i + 1 < m:
            blocked = 0
            for j, d in far[i + 1]:
                v = words[j]
                blocked |= balls[d].get(v) or _ball(balls, r, d, v)
            pre[i + 1] = blocked


def exact_min_length(
    dmat: DistanceMatrix,
    budget: SearchBudget | None = None,
    *,
    use_row_symmetry: bool = False,
    trace: Callable[[str], None] | None = None,
) -> ExactLengthResult:
    """The smallest length admitting a code for the requirement matrix.

    Tries lengths upward from the averaging lower bound, running a complete
    backtracking search at each; the first satisfiable length is N(M, D).
    Budget exhaustion (nodes, wall clock, or the length cap) yields an
    unproven result whose value is still a valid lower bound on N.
    """
    if budget is None:
        budget = SearchBudget()
    m = dmat.dim
    if m <= 1:
        return ExactLengthResult(0, True, 0, Code.of([BitWord.zeros(0)] * m, 0))
    start = max(0, bounds.plotkin_irregular(dmat).integer_value)
    prev_in_group = (
        _interchange_groups(dmat) if use_row_symmetry else [None] * m
    )
    rows = _row_lists(dmat)
    state = _Budget(budget)
    r, refute = start, 0
    while True:
        if r > budget.max_length:
            if trace:
                trace(f"length-cap r={r} nodes={state.nodes}")
            return ExactLengthResult(r, False, state.nodes, None, refute)
        if trace:
            trace(f"try r={r} nodes={state.nodes}")
        refute = state.nodes
        found = _assignment_search(dmat, r, state, prev_in_group, rows)
        if state.exhausted:
            if trace:
                trace(f"budget-exhausted r={r} nodes={state.nodes}")
            return ExactLengthResult(r, False, state.nodes, None, refute)
        if found is not None:
            code = Code.of((BitWord(v, r) for v in found), r)
            if not satisfies_distance_matrix(code, dmat)[0]:
                raise RuntimeError("search returned an invalid witness")
            if trace:
                trace(f"proven r={r} nodes={state.nodes}")
            return ExactLengthResult(r, True, state.nodes, code, refute)
        r += 1


def hadamard_code(dist: int) -> Code | None:
    """Length-2D code with 4D words at min distance D, from a Sylvester matrix.

    Exists here exactly when 2D is a power of two: rows of the matrix (in the
    0/1 domain, H[i][j] = parity of popcount(i AND j)) plus their complements.
    The distance profile is checked before returning. None for other D.
    """
    if dist < 1:
        return None
    n = 2 * dist
    if n & (n - 1) != 0:
        return None
    rows = []
    for i in range(n):
        v = 0
        for j in range(n):
            v = (v << 1) | ((i & j).bit_count() & 1)
        rows.append(v)
    full = (1 << n) - 1
    words = [BitWord(v, n) for v in rows] + [BitWord(v ^ full, n) for v in rows]
    code = Code.of(words, n)
    ok, _ = satisfies_distance_matrix(code, DistanceMatrix.uniform(4 * dist, dist))
    if not ok:  # pragma: no cover - Sylvester construction always satisfies
        return None
    return code


def reed_muller_code(r_rm: int, m: int) -> Code:
    """All codewords of the Reed-Muller code RM(r_rm, m), length 2^m.

    Generator rows evaluate the monomials of degree <= r_rm over all 2^m
    points; rows are ordered by (degree, variable tuple) and codewords by the
    integer whose bit j selects row j. Min distance is 2^(m - r_rm).
    """
    if not 0 <= r_rm <= m:
        raise ValueError(f"need 0 <= order <= m, got ({r_rm}, {m})")
    n = 1 << m
    monomials: list[tuple[int, ...]] = []
    for size in range(r_rm + 1):
        monomials.extend(tuple(c) for c in combinations(range(m), size))
    gen_rows = []
    for s in monomials:
        v = 0
        for x in range(n):
            bit = 1
            for var in s:
                bit &= (x >> var) & 1
            v = (v << 1) | bit
        gen_rows.append(v)
    words = []
    for msg in range(1 << len(gen_rows)):
        v = 0
        for j, row in enumerate(gen_rows):
            if (msg >> j) & 1:
                v ^= row
        words.append(BitWord(v, n))
    return Code.of(words, n)


def even_weight_subcode(count: int, length: int) -> Code:
    """The first `count` even-weight words of a length, in lexicographic order.

    A subcode of the single parity check code, so min distance 2 whenever
    count >= 2. There are 2^(length-1) even-weight words in total.
    """
    if length < 1:
        raise ValueError(f"need length >= 1, got {length}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if count > 1 << (length - 1):
        raise ValueError(
            f"only {1 << (length - 1)} even-weight words of length {length}, "
            f"asked for {count}"
        )
    words = []
    v = 0
    while len(words) < count:
        if v.bit_count() % 2 == 0:
            words.append(BitWord(v, length))
        v += 1
    return Code.of(words, length)


def replicate_bits(code: Code, factor: int) -> Code:
    """Repeat every bit of every word `factor` times in place.

    Scales every pairwise distance by exactly `factor`.
    """
    if factor < 1:
        raise ValueError(f"need factor >= 1, got {factor}")
    out = []
    for w in code:
        bits = []
        for b in w.bits():
            bits.extend([b] * factor)
        out.append(BitWord.from_bits(bits))
    return Code.of(out, code.length * factor)


def min_distance(code: Code) -> int:
    """Minimum pairwise Hamming distance over all distinct index pairs."""
    if code.size < 2:
        raise ValueError(f"need at least 2 words, got {code.size}")
    vals = [w.value for w in code.words]
    best = code.length
    for i in range(len(vals)):
        vi = vals[i]
        for j in range(i + 1, len(vals)):
            d = (vi ^ vals[j]).bit_count()
            if d < best:
                best = d
                if best == 0:
                    return 0
    return best
