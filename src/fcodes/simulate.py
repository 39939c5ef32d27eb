"""Substitution-channel harness: drive an encoder through error patterns.

Every run is over all 2^k messages. Exhaustive mode enumerates every
pattern of weight 0..t (by weight, then by lexicographic position set, so
witnesses are canonical); random mode draws (message, pattern) pairs from a
seeded `random.Random` — same seed, same report, always. Both modes cap the
pattern weight at the block length.

An encoder protects f against t substitutions iff every two codewords with
different values are 2t+1 apart: then each word within t of c(u) is at least
t+1 from every codeword of another value, and otherwise a word between two
codewords less than 2t+1 apart is within t of both, so whatever it decodes
to, a trial from one of them fails. So `simulate` first checks the encoder
exhaustively at the channel's t (`fcc._verify_exhaustive`); an encoder that
passes gets its report, zero failures, without a trial being run or drawn.
At t = 0 every encoder passes, and a check over budget (`fcc._classes`) is
not run: the trials are.

An encoder that fails the check runs its trials. A received word y = c(u) ^
e lies within wt(e) <= t of the code, so per-value tables of every word
within t of a codeword, each labelled with the value `decode` returns for it
(`fcc._nearest_value_masks`), settle every trial, in both modes. An
exhaustive run that is cheap enough (_WALK_BITS_PER_TRIAL) is settled one
error pattern at a time: the bit planes of the labels, translated by the
pattern, mark every codeword it moves to a word of another value, so one
popcount counts the pattern's failures over all messages
(`_failures_by_pattern`). Any other run takes one bit test per trial. Only the first failure is decoded, for its witness.
Functions with too many values for the tables to pay off call `decode` on
every trial. The report's `route` names which of the three routes settled
it, and `decodes` counts the words handed to `decode`.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, Iterator, Sequence

from .bits import BitWord, Record, _weight_shell, sphere_size
from .fcc import FccEncoder, FunctionValue, decode
from .fcc import _OverBudget, _nearest_value_masks, _translated_planes, _verify_exhaustive


# Largest table, in mask bits per trial, that simulate builds. The masks cost
# a few ns per bit and level to grow and a decode several us, so below this
# the table is the cheaper route, and its memory stays within 64 bytes per
# trial (an identity function has E = 2^k values and would need thousands of
# bits per trial). Random runs on per-value encoders of u -> u mod E, with
# (k, E, n) = (8, 256, 15) and (10, 64, 16), broke even between 512 and
# 1,050 bits per trial at channel t 3-6 and between 1,050 and 4,200 at t = 1;
# at or below 512 the tables were 1.1-3.6x faster (2-core Xeon host).
_TABLE_BITS_PER_TRIAL = 512

# Largest cost per trial, in 2^n-bit operations, at which an exhaustive run
# on the tables is settled one error pattern at a time over all its messages
# (`_failures_by_pattern`) rather than one trial at a time. A pattern costs
# about seven operations per label plane and half as many again for the
# codeword mask, so (label planes + 1) * 2^n over the messages counts it:
# (width + 1) * 2^r for every message. Measured on per-message encoders of
# u -> u mod E at k 6-10, depth 2-3 and widths 1-5 (2-core Xeon host,
# settling alone): at 256-384 the walk took 0.36-0.73 of the one-bit-test
# loop's time, at 768 0.80-1.03, and at 1,024 0.96-1.17; at 1,280-2,048 it
# took 1.2-1.7x. Random draws and larger costs keep the loop.
_WALK_BITS_PER_TRIAL = 768


class ChannelModel(Record):
    """Up-to-t substitutions, enumerated exhaustively or sampled."""

    __slots__ = _fields = ("t", "mode", "seed", "trials")

    def __init__(self, t: int, mode: str = "exhaustive", seed: int = 0,
                 trials: int = 1000) -> None:  # mode: "exhaustive" or "random"
        if t < 0:
            raise ValueError(f"negative t {t}")
        if mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown channel mode {mode!r}")
        if seed < 0:  # Random(-s) seeds as Random(s) does
            raise ValueError(f"need seed >= 0, got {seed}")
        if mode == "random" and trials < 1:
            raise ValueError(f"need trials >= 1, got {trials}")
        self._init(t, mode, seed, trials)


def error_patterns(n: int, t: int) -> Iterator[BitWord]:
    """All length-n patterns of weight 0..t: weight first, positions lex
    (position 0 is the leftmost bit, so that is descending integer value)."""
    for wgt in range(max(min(t, n), 0) + 1):
        for e in sorted(_weight_shell(n, wgt), reverse=True):
            yield BitWord(e, n)


class SimulationReport(Record):
    """`witness` is (message, error pattern, decoded value, expected value).
    The last two fields, how the report was reached, are not part of the
    result, so reports compare equal whatever route they took: the words handed
    to `decode`, and the route ("certified", "tables" or "decode-every-trial")."""

    __slots__ = _fields = ("trials", "failures", "witness", "mode", "seed", "decodes", "route")
    _compared = _hashed = 5

    def __init__(self, trials: int, failures: int,
                 witness: tuple[BitWord, BitWord, FunctionValue, FunctionValue] | None,
                 mode: str, seed: int | None, decodes: int = 0, route: str = "") -> None:
        self._init(trials, failures, witness, mode, seed, decodes, route)

    def to_json_dict(self) -> dict:
        out: dict = {
            "trials": self.trials,
            "failures": self.failures,
            "mode": self.mode,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.witness is not None:
            u, pattern, got, expected = self.witness
            out["witness"] = {
                "message": str(u),
                "pattern": str(pattern),
                "decoded": str(got),
                "expected": str(expected),
            }
        return out


def simulate(
    encoder: FccEncoder,
    channel: ChannelModel,
    trace: Callable[[str], None] | None = None,
) -> SimulationReport:
    """Decode every (message, error) combination and count wrong values.

    The messages are all 2^k of them. The first failure (in enumeration
    order) is kept as the witness; a verified encoder must come back with
    zero failures in exhaustive mode. An encoder that passes an admitted
    exhaustive FCC check at channel.t (capped at n) is certified: no trial
    can fail, so none is run. Otherwise the trials are settled on the
    per-value tables of `fcc._nearest_value_masks` grown to depth channel.t,
    which label every word a trial can produce as `decode` would: an
    exhaustive run whose label planes cost at most _WALK_BITS_PER_TRIAL per
    trial by error pattern over all messages at once, any other run by one
    bit test per trial. Only the witness is decoded. Above
    _TABLE_BITS_PER_TRIAL every trial is decoded instead.
    `trace` receives one line naming the route (and, on the tables, how the
    trials were settled: `settle=patterns` or `settle=trials`).
    """
    spec = encoder.spec
    k, r = spec.k, encoder.r
    n = k + r
    depth = min(channel.t, n)
    if channel.mode == "exhaustive":
        trials, seed = sphere_size(n, depth) << k, None
    else:
        trials, seed = channel.trials, channel.seed
    checking = time.perf_counter()
    try:
        certified = depth == 0 or _verify_exhaustive(encoder, depth, witness=False).ok
    except _OverBudget:
        certified = False
    if certified:
        if trace:
            check_ms = (time.perf_counter() - checking) * 1e3
            trace(f"route=certified t={depth} check_ms={check_ms:.3f}")
        return SimulationReport(trials, 0, None, channel.mode, seed, 0, "certified")
    groups: Iterable[tuple[int, Sequence[int]]]
    if channel.mode == "exhaustive":
        groups = _exhaustive_trials(k, n, depth)
    else:
        groups = _random_trials(k, n, channel)
    idx = spec.index_table
    par = encoder.parity_ints
    image = spec.image
    failures = decodes = 0
    witness = None

    def judge(u: int, e: int) -> None:
        """Decode one trial and record it if the value is wrong."""
        nonlocal failures, decodes, witness
        decodes += 1
        got = decode(encoder, BitWord(((u << r) | par[u]) ^ e, n))
        if got.value != image[idx[u]]:
            failures += 1
            if witness is None:
                witness = (BitWord(u, k), BitWord(e, n), got.value, spec.fn(u))

    bits = len(image) << n
    if bits <= _TABLE_BITS_PER_TRIAL * trials:
        route = "tables"
        building = time.perf_counter()
        tables, code = _nearest_value_masks(encoder, depth)
        by_pattern = (
            channel.mode == "exhaustive"
            and ((len(tables) - 1).bit_length() + 1) << n <= _WALK_BITS_PER_TRIAL << k
        )
        if not by_pattern:
            size = ((1 << n) + 7) >> 3
            for i, mask in enumerate(tables):
                tables[i] = mask.to_bytes(size, "little")  # in place: no second copy
        if trace:
            build_ms = (time.perf_counter() - building) * 1e3
            trace(f"route=tables E={len(image)} n={n} depth={depth} mask_bits={bits} "
                  f"build_ms={build_ms:.3f} settle={'patterns' if by_pattern else 'trials'}")
        if by_pattern:
            counted, first = _failures_by_pattern(tables, code, r, n, depth)
            if first is not None:
                judge(*first)  # decoded for the witness only
            failures = counted
        else:
            for u, es in groups:
                own = tables[idx[u]]
                c = (u << r) | par[u]
                for e in es:
                    y = c ^ e
                    if not own[y >> 3] >> (y & 7) & 1:
                        if witness is None:
                            judge(u, e)  # a failure: decode it for the witness
                        else:
                            failures += 1
    else:
        route = "decode-every-trial"
        if trace:
            trace(f"route=decode-every-trial E={len(image)} n={n} mask_bits={bits}")
        for u, es in groups:
            for e in es:
                judge(u, e)
    return SimulationReport(trials, failures, witness, channel.mode, seed, decodes, route)


def _failures_by_pattern(
    tables: list[int], code: int, r: int, n: int, depth: int
) -> tuple[int, tuple[int, int] | None]:
    """How many trials fail over every codeword in the set `code` (one per
    message) and every n-bit pattern of weight 0..depth, and the first
    failure in (message, `error_patterns`) order as (u, e), or None.

    Label plane b is the set of words whose image index in `tables` has bit
    b set. Codewords are distinct, so each is labelled with its own value,
    and c(u) fails under e iff some plane holds exactly one of c(u) and
    c(u) ^ e: the failures of e are the codewords in OR_b(translate(plane b,
    e) ^ plane b). Pattern 0 fails nowhere and is skipped; the others are
    walked depth first (`fcc._translated_planes`), one half-swap per plane
    each. The first failure is a running minimum of (codeword, weight, -e):
    the lowest failing codeword is the first failing message, and
    error_patterns lists a weight's patterns in descending integer order.
    """
    labels = [0] * (len(tables) - 1).bit_length()
    for i, mask in enumerate(tables):
        for b in range(len(labels)):
            if i >> b & 1:
                labels[b] |= mask
    failures, best = 0, None
    for e, _, moved in _translated_planes(labels, n, depth):
        wrong = 0
        for a, b in zip(labels, moved):
            wrong |= a ^ b
        wrong &= code
        if wrong:
            failures += wrong.bit_count()
            first = ((wrong & -wrong).bit_length() - 1, e.bit_count(), -e)
            if best is None or first < best:
                best = first
    if best is None:
        return 0, None
    return failures, (best[0] >> r, -best[2])


def _exhaustive_trials(k: int, n: int, depth: int) -> Iterator[tuple[int, list[int]]]:
    """(message, every pattern of weight 0..depth) for each k-bit message in
    turn; the patterns are listed when the first message is asked for."""
    patterns = [p.value for p in error_patterns(n, depth)]
    for u in range(1 << k):
        yield u, patterns


def _random_trials(k: int, n: int, channel: ChannelModel) -> Iterator[tuple[int, tuple[int]]]:
    """channel.trials seeded (message, (pattern,)) draws: a k-bit message, a
    weight in 0..min(t, n), then that many distinct positions."""
    rng = random.Random(channel.seed)
    top = min(channel.t, n)
    for _ in range(channel.trials):
        u = rng.randrange(1 << k)
        wgt = rng.randint(0, top)
        e = 0
        for pos in rng.sample(range(n), wgt) if wgt else ():
            e |= 1 << (n - 1 - pos)
        yield u, (e,)
