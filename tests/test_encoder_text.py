"""Encoder files (`fcodes encoder v1`): the bulk parser against the line-by-line
one it replaced, byte-pinned files of every construction, and round trips."""

from __future__ import annotations

import hashlib
import random

import pytest

from fcodes import fcc, functions
from fcodes.bits import BitWord


def reference_encoder_from_text(text: str, spec: fcc.FunctionSpec | None = None):
    """The line-by-line parser that `fcc.encoder_from_text` replaced, with the
    checks the encoder then made on its parity table: (spec, t, r, mode,
    parities), one parity BitWord per value or per message."""
    headers: dict[str, str] = {}
    body: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            content = line[1:].strip()
            key, sep, val = content.partition(":")
            if sep:
                headers[key.strip()] = val.strip()
            continue
        body.append(line)
    for required in ("k", "t", "r", "mode"):
        if required not in headers:
            raise ValueError(f"encoder file missing '{required}' header")
    k = int(headers["k"])
    t = int(headers["t"])
    r = int(headers["r"])
    mode = headers["mode"]
    if spec is None:
        if "function" not in headers:
            raise ValueError("encoder file names no function and no spec was given")
        spec = fcc.spec_from_string(headers["function"], defaults={"k": str(k)})
    if spec.k != k:
        raise ValueError(f"spec has k={spec.k} but encoder file says {k}")
    if r == 0:
        count = spec.expressiveness if mode == fcc.PER_VALUE else 1 << k
        parities = tuple(BitWord.zeros(0) for _ in range(count))
    else:
        words = {s: BitWord.from_string(s) for s in dict.fromkeys(body)}
        parities = tuple(map(words.__getitem__, body))
    if mode not in (fcc.PER_VALUE, fcc.PER_MESSAGE):
        raise ValueError(f"unknown mode {mode!r}")
    expected = spec.expressiveness if mode == fcc.PER_VALUE else 1 << spec.k
    if len(parities) != expected:
        raise ValueError(f"{mode} encoder needs {expected} parities, got {len(parities)}")
    for p in parities:
        if p.length != r:
            raise ValueError(f"parity {p} has length {p.length}, expected {r}")
    return spec, t, r, mode, parities


# one encoder of each construction, and the sha256 of its file as written
# before encoders were stored as words plus a key
GOLDEN = {
    "auto-ml": (
        lambda: fcc.build_function_value_encoder(fcc.spec_from_string("ml:sigmoid,k=6,eps=1/2"), 1),
        "785da805cdc3bc483c78f155eae916d9568f27cfc2e4703e81cd44545e7cfa5f",
    ),
    "auto-ml-mirrored": (  # a symmetric kind's mirrored layout, with a= in its name
        lambda: fcc.build_function_value_encoder(
            fcc.spec_from_string("ml:tanh_derivative,k=7,eps=1/2,a=2"), 1),
        "b034616f84650f329417fa8b316243dbf87f2aaee02e0b0b8025ff1645611ae8",
    ),
    "auto-ml-one-sided": (
        lambda: fcc.build_function_value_encoder(fcc.spec_from_string("ml:relu,k=6,eps=1/2"), 1),
        "3ad359a6d1c2a04a49e8236c7b1eacac9b5dfabf994212f97824b253f09f0db5",
    ),
    "wt-cycle": (
        lambda: functions.wt_cyclic_encoder(functions.wt_spec(8), 2),
        "fb07e8fe70d6b772d72eb159befd3e3e9a902615a178cb61c5325a5c87581c99",
    ),
    "delta-ramp": (
        lambda: functions.delta_ramp_encoder(functions.delta_spec(10, 5), 2),
        "acf27444de348205e6fc2eaedb88c61c97f82a296fc69e9cad683073282bfd2f",
    ),
    "locally-binary": (
        lambda: functions.locally_binary_encoder(functions.delta_spec(9, 5), 1),
        "4acf331dcaf88658107157b7fa8e79da7411bc5a95e1743b3df5ba71da22376a",
    ),
    "minmax-spc": (
        lambda: functions.minmax_parity_encoder(functions.minmax_spec(3, 2), 1),
        "2094fb5666e255f0985f934b7697563341f1a3c076c0a43571743236137ca011",
    ),
    "minmax-rm": (
        lambda: functions.minmax_rm_encoder(functions.minmax_spec(3, 2), 1),
        "66035d82f3743e6ed4d45dce1e2b74b29c70ec2eb556c278cb2ebf0bf1585532",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoder_files_are_byte_identical_to_the_pinned_ones(name):
    make, digest = GOLDEN[name]
    text = fcc.encoder_to_text(make())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert fcc.encoder_to_text(fcc.encoder_from_text(text)) == text


def _files() -> list[str]:
    """Real encoder files, both modes, with and without parity bits."""
    encoders = [make() for make, _ in GOLDEN.values()]
    encoders += [
        functions.delta_ramp_encoder(functions.delta_spec(6, 3), 1),
        fcc.build_function_value_encoder(functions.constant_spec(4), 1),  # r = 0
        fcc.per_message_encoder(functions.parity_spec(3), 1, [BitWord.zeros(0)] * 8),
        # wider than a byte, with a bytes key
        fcc.per_message_encoder(functions.wt_spec(6), 1, [BitWord(u * 37 % 1024, 10) for u in range(64)]),
    ]
    return [fcc.encoder_to_text(enc) for enc in encoders]


def _mutate(rng: random.Random, text: str) -> str:
    """One seeded edit of the kinds an encoder file may come with."""
    lines = text.split("\n")[:-1]
    first_body = next((i for i, s in enumerate(lines) if not s.startswith("#")), len(lines))
    at = rng.randint(first_body, len(lines))  # a place among the body lines
    kind = rng.randrange(10)
    if kind == 0:  # CRLF line ends, or bare CR
        return text.replace("\n", rng.choice(("\r\n", "\r")))
    if kind == 1:  # blank or whitespace-only lines
        lines.insert(rng.randint(0, len(lines)), rng.choice(("", "   ", "\t", " \t ")))
    elif kind == 2 and at < len(lines):  # indented or padded line
        lines[at] = rng.choice(("  ", "\t", "")) + lines[at] + rng.choice(("", " ", "\t "))
    elif kind == 3:  # a comment, or a header given again, after body lines
        lines.insert(at, rng.choice((
            "# note", "# note: body follows", "#", "# t: 3", "# r: 5", "# r: 0",
            "   # mode: per-message", "# mode: per-function-value", "# k: 7")))
    elif kind == 4:  # no final newline
        return "\n".join(lines)
    elif kind == 5 and at < len(lines) and lines[at]:  # one bit too many or too few
        lines[at] = lines[at] + "0" if rng.random() < 0.5 else lines[at][1:]
    elif kind == 6 and at < len(lines) and lines[at]:  # a character that is not a bit
        i = rng.randrange(len(lines[at]))
        lines[at] = lines[at][:i] + rng.choice("2x ,#") + lines[at][i + 1:]
    elif kind == 7 and at < len(lines):  # a line missing
        del lines[at]
    elif kind == 8 and at < len(lines):  # a line repeated
        lines.insert(at, lines[at])
    elif kind == 9:  # a body line in a file with r = 0, or one more line
        lines.insert(at, rng.choice(("0", "1", "01")))
    return "\n".join(lines) + "\n"


def _parity_table(enc: fcc.FccEncoder) -> tuple[BitWord, ...]:
    """The parity words as the reference returns them: one per value or per message."""
    words = enc.words if enc.mode == fcc.PER_VALUE else enc.parity_ints
    return tuple(BitWord(w, enc.r) for w in words)


def _parse(parser, text):
    try:
        return parser(text)
    except ValueError:
        return ValueError


def test_bulk_parser_agrees_with_the_line_by_line_one_on_mutated_files():
    rng = random.Random(19)
    outcomes = {"same": 0, "rejected": 0}
    for text in _files():
        for _ in range(60):
            mutated = text
            for _ in range(rng.randint(1, 3)):
                mutated = _mutate(rng, mutated)
            want = _parse(reference_encoder_from_text, mutated)
            got = _parse(fcc.encoder_from_text, mutated)
            if want is ValueError:
                assert got is ValueError, mutated
                outcomes["rejected"] += 1
                continue
            assert got is not ValueError, mutated
            spec, t, r, mode, parities = want
            assert (got.spec.name, got.spec.k, got.t, got.r, got.mode) == (
                spec.name, spec.k, t, r, mode)
            assert _parity_table(got) == parities
            outcomes["same"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_bulk_parser_takes_a_given_spec():
    text = fcc.encoder_to_text(functions.delta_ramp_encoder(functions.delta_spec(6, 3), 1))
    spec = functions.delta_spec(6, 3)
    enc = fcc.encoder_from_text(text, spec)
    assert enc.spec is spec and _parity_table(enc) == reference_encoder_from_text(text, spec)[4]


def test_per_message_files_with_more_than_256_words_round_trip():
    # the message key is then a table of wider ints
    rng = random.Random(5)
    spec = functions.wt_spec(10)
    enc = fcc.per_message_encoder(spec, 1, [BitWord(rng.randrange(1 << 12), 12) for _ in range(1024)])
    assert len(enc.words) > 256 and not isinstance(enc.message_key, bytes)
    text = fcc.encoder_to_text(enc)
    again = fcc.encoder_from_text(text)
    assert _parity_table(again) == _parity_table(enc) == reference_encoder_from_text(text)[4]
    assert fcc.encoder_to_text(again) == text
