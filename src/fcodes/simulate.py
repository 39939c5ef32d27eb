"""Substitution-channel harness: drive an encoder through error patterns.

Exhaustive mode enumerates every pattern of weight 0..t (by weight, then by
lexicographic position set, so witnesses are canonical); random mode draws
(message, pattern) pairs from a seeded `random.Random` — same seed, same
report, always. Both modes cap the pattern weight at the block length.

An exhaustive run over every message reads most trials off per-value tables
of the received words that decode in model (`fcc._in_model_masks`): one bit
test per trial, and only the other words go to `decode`. Random runs,
explicit message lists and functions with too many values for the tables to
pay off call `decode` on every trial. The report's `decodes` counts the
words handed to `decode`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Sequence

from .bits import BitWord
from .fcc import FccEncoder, FunctionValue, _in_model_masks, decode


# Largest table, in mask bits per trial, that exhaustive simulate builds. The
# masks cost a few ns per bit to grow and a decode several us, so below this
# the table is the cheaper route, and its memory stays within a few dozen
# bytes per trial (an identity function has E = 2^k values and would need
# thousands of bits per trial).
_TABLE_BITS_PER_TRIAL = 512


@dataclass(frozen=True)
class ChannelModel:
    """Up-to-t substitutions, enumerated exhaustively or sampled."""

    t: int
    mode: str = "exhaustive"  # or "random"
    seed: int = 0
    trials: int = 1000

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"negative t {self.t}")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")


def error_patterns(n: int, t: int) -> Iterator[BitWord]:
    """All length-n patterns of weight 0..t: weight first, positions lex."""
    yield BitWord.zeros(n)
    for wgt in range(1, min(t, n) + 1):
        for positions in combinations(range(n), wgt):
            yield BitWord.zeros(n).flip(positions)


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    failures: int
    witness: tuple[BitWord, BitWord, FunctionValue, FunctionValue] | None
    # witness = (message, error pattern, decoded value, expected value)
    mode: str
    seed: int | None
    # received words handed to `decode`: how the report was reached, not part
    # of the result, so reports compare equal whatever route they took
    decodes: int = field(default=0, compare=False)

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
    messages: Iterable[BitWord] | None = None,
) -> SimulationReport:
    """Decode every (message, error) combination and count wrong values.

    `messages` defaults to every message. The first failure (in enumeration
    order) is kept as the witness; a verified encoder must come back with
    zero failures in exhaustive mode. An exhaustive run over every message
    settles each received word that decodes in model by one bit test in the
    per-value tables of `fcc._in_model_masks` (unless they would exceed
    _TABLE_BITS_PER_TRIAL) and hands only the other words to `decode`;
    random runs and message lists decode every trial.
    """
    spec = encoder.spec
    k, r = spec.k, encoder.r
    n = k + r
    if messages is None:
        msgs: Sequence[int] = range(1 << k)
    else:
        msgs = []
        for u in messages:
            if u.length != k:
                raise ValueError(f"message length {u.length}, expected {k}")
            msgs.append(u.value)
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

    if channel.mode == "exhaustive":
        patterns = [p.value for p in error_patterns(n, channel.t)]
        trials = len(msgs) * len(patterns)
        if messages is None and len(image) << n <= _TABLE_BITS_PER_TRIAL * trials:
            size = ((1 << n) + 7) >> 3
            tables = _in_model_masks(encoder)
            settled = reduce(or_, tables, 0).to_bytes(size, "little")
            for i, mask in enumerate(tables):
                tables[i] = mask.to_bytes(size, "little")  # in place: no second copy
            for u in msgs:
                own = tables[idx[u]]
                c = (u << r) | par[u]
                for e in patterns:
                    y = c ^ e
                    if own[y >> 3] >> (y & 7) & 1:
                        continue  # decodes in model to the sent value
                    if witness is None or not settled[y >> 3] >> (y & 7) & 1:
                        judge(u, e)
                    else:
                        failures += 1  # decodes in model to another value
        else:
            for u in msgs:
                for e in patterns:
                    judge(u, e)
        return SimulationReport(trials, failures, witness, "exhaustive", None, decodes)

    if not msgs:
        raise ValueError("random channel needs at least one message")
    rng = random.Random(channel.seed)
    top = min(channel.t, n)
    for _ in range(channel.trials):
        u = rng.choice(msgs)
        wgt = rng.randint(0, top)
        e = 0
        for pos in rng.sample(range(n), wgt) if wgt else ():
            e |= 1 << (n - 1 - pos)
        judge(u, e)
    return SimulationReport(channel.trials, failures, witness, "random", channel.seed, decodes)
