"""Substitution-channel harness: drive an encoder through error patterns.

Exhaustive mode enumerates every pattern of weight 0..t (by weight, then by
lexicographic position set, so witnesses are canonical); random mode draws
(message, pattern) pairs from a seeded `random.Random` — same seed, same
report, always. Both modes cap the pattern weight at the block length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .bits import BitWord
from .fcc import FccEncoder, FunctionValue, decode


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
    zero failures in exhaustive mode.
    """
    spec = encoder.spec
    n = encoder.block_length
    if messages is None:
        msg_list = [BitWord(u, spec.k) for u in range(1 << spec.k)]
    else:
        msg_list = list(messages)

    trials = 0
    failures = 0
    witness = None

    if channel.mode == "exhaustive":
        patterns = list(error_patterns(n, channel.t))
        for u in msg_list:
            expected = spec.eval(u)
            sent = encoder.encode(u)
            for pattern in patterns:
                got = decode(encoder, sent ^ pattern)
                trials += 1
                if got.value != expected:
                    failures += 1
                    if witness is None:
                        witness = (u, pattern, got.value, expected)
        return SimulationReport(trials, failures, witness, "exhaustive", None)

    if not msg_list:
        raise ValueError("random channel needs at least one message")
    rng = random.Random(channel.seed)
    for _ in range(channel.trials):
        u = rng.choice(msg_list)
        wgt = rng.randint(0, min(channel.t, n))
        positions = rng.sample(range(n), wgt) if wgt else []
        pattern = BitWord.zeros(n).flip(positions)
        expected = spec.eval(u)
        got = decode(encoder, encoder.encode(u) ^ pattern)
        trials += 1
        if got.value != expected:
            failures += 1
            if witness is None:
                witness = (u, pattern, got.value, expected)
    return SimulationReport(trials, failures, witness, "random", channel.seed)
