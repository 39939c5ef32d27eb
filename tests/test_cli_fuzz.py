"""The command line's exit-code contract under fuzzed argv.

Every call exits 0 (ok), 1 (property violated) or 2 (usage or budget),
argparse's own usage errors included, and no other exception escapes
`cli.main`. Under --json a call that prints anything prints one JSON line
with `stats.elapsed_s`. The argv of each subcommand is drawn from its own
parser (`cli._subparsers()`), with small values (k <= 8, t <= 3) that are now
and then bad, so that valid calls and usage errors are both common.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fcodes import cli, fcc, tables

# registry strings of every family, with and without their keys, then four
# that name no family or do not parse
_FUNCTIONS = [
    "wt", "wt:k=5", "parity", "or:k=4", "constant", "delta_T", "delta_T:k=8,T=5",
    "delta_T:T=3", "minmax", "minmax:w=3,l=2", "minmax:w=2", "indicator", "ml:sigmoid",
    "ml:sigmoid,k=5,eps=1", "ml:relu,k=5,eps=1", "ml:tanh,k=6,eps=1/2",
    "ml:tanh_derivative,k=6,eps=1,a=2", "binary", "ml", "nosuch", "wt:k=4,trials=3", "wt:a,b",
]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, list[str]]:
    """Paths the file flags draw from: good files, a malformed one and a
    missing one, each kind in its own list."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "code.txt").write_text("000\n111\n", encoding="utf-8")
    (d / "a,b.txt").write_text("000\n111\n", encoding="utf-8")
    (d / "junk.txt").write_text("not a file of any kind\n", encoding="utf-8")
    (d / "matrix.json").write_text(json.dumps({"entries": [[0, 3, 2], [3, 0, 1], [2, 1, 0]]}),
                                   encoding="utf-8")
    (d / "cfg.txt").write_text("k=4\nt=1\n", encoding="utf-8")
    (d / "cfg-bad.txt").write_text("nosuch=1\n", encoding="utf-8")
    encoders = []
    for name, argv in (("wt", ["--function", "wt", "--k", "6", "--t", "1"]),
                       ("ramp", ["--function", "delta_T:k=8,T=5", "--t", "2",
                                 "--construction", "delta-ramp"]),
                       ("minmax", ["--function", "minmax", "--w", "3", "--l", "2", "--t", "1"]),
                       ("ml", ["--function", "ml:sigmoid,k=5,eps=1", "--t", "1"])):
        path = str(d / f"{name}.txt")
        assert cli.main(["fcc-build", *argv, "--out", path]) == 0
        encoders.append(path)
    junk, missing = str(d / "junk.txt"), str(d / "missing.txt")
    return {
        "encoder": [*encoders, junk, missing],
        "path": [str(d / "code.txt"), str(d / "a,b.txt"), junk, missing],
        "infile": [str(d / "code.txt"), junk, missing],
        "file": [str(d / "matrix.json"), junk, missing],
        "config": [str(d / "cfg.txt"), str(d / "cfg-bad.txt"), missing],
        "out": [str(d / "out.txt")],
    }


def _mostly(rng: random.Random, good: list, bad: list) -> str:
    """One of `good` nine times in ten, else one of `bad`."""
    return str(rng.choice(good if not bad or rng.random() < 0.9 else bad))


def _value(rng: random.Random, dest: str, files: dict[str, list[str]]) -> str:
    """A value for the flag whose dest is `dest`: small, and now and then bad."""
    if dest in files:
        good = [path for path in files[dest] if "junk" not in path and "missing" not in path]
        return _mostly(rng, good, [path for path in files[dest] if path not in good])
    if dest in ("u", "y"):  # the lengths of the messages and words of the encoder files
        sizes = (0, 3, 5, 6, 8) if dest == "u" else (1, 9, 10, 12, 13)
        return "".join(rng.choice("01") for _ in range(rng.choice(sizes)))
    low, high, *bad = {
        "t": (1, 3, 0), "T": (1, 6, 0), "w": (2, 4, 1), "l": (2, 2, 1),
        "length": (1, 14, 0, -1), "max_length": (0, 14),
        # RM(order, m) has 2^dimension words: build-code refuses those over its budget
        "rm_order": (0, 8, -1), "log_length": (0, 8, -1),
        "max_nodes": (0, 2000), "sample": (1, 50, 0, -1), "seed": (0, 3, -1),
        "trials": (0, 50), "channel_t": (0, 3),
    }.get(dest, (1, 8, 0, -1))  # k and the other small counts
    strings = {
        "eps": (["1", "1/2", "1/4", "3/10"], ["0", "1/0", "x"]),
        "a": (["-2", "0", "1/2", "2"], ["1/0"]),
        "b": (["-2", "1", "2"], ["1/0"]),
        "function": (_FUNCTIONS[:-4], _FUNCTIONS[-4:]),
        "construction": (["auto", "1", "2", "3", "4", *tables.CONSTRUCTIONS], ["5", "nosuch"]),
        "time_limit": (["0", "0.5", "1"], []),
    }
    if dest in strings:
        return _mostly(rng, *strings[dest])
    return _mostly(rng, list(range(low, high + 1)), bad)


def _reads(command: str, chosen: dict[str, str]) -> set[str]:
    """The flag dests a call of `command` reads, given its drawn choices: a
    `bounds` method's or a `build-code` kind's values (with what its matrix
    source reads), else every flag but the spec flags its function's family
    does not take."""
    if command == "bounds":
        reads = set(cli._BOUNDS[chosen["method"]][1])
    elif command == "build-code":
        reads = {*cli._KINDS[chosen["kind"]], "out"}
    else:
        reads = {a.dest for a in cli._subparsers()[command]._actions} - set(cli._SPEC_KEYS)
        reads -= {"config", *(("encoder",) if "function" in chosen else ("function", "construction"))}
        reads |= {"t"}
    if "matrix" in reads:
        reads |= cli._MATRIX_READS[chosen["matrix"]]
    family, _, rest = chosen.get("function", "").partition(":")
    if "function" in reads and (family in fcc.registered_spec_names() or family == "binary"):
        reads |= set(tables.row_keys(family)) - {pair.partition("=")[0] for pair in rest.split(",")}
    return reads


def _argv(rng: random.Random, files: dict[str, list[str]]) -> list[str]:
    """One subcommand and a draw over its parser's flags: its choices and its
    function's source nearly always, each other flag the call reads most of
    the time, and each flag it does not read now and then, so that valid
    calls and usage errors are both common."""
    command = rng.choice(sorted(cli._subparsers()))
    actions = [a for a in cli._subparsers()[command]._actions
               if a.option_strings and a.dest != "help"]
    chosen = {a.dest: rng.choice(sorted(a.choices)) for a in actions if a.choices}
    has_encoder = any(a.dest == "encoder" for a in actions)
    source = "encoder" if has_encoder and rng.random() < 0.5 else "function"
    if source in _reads(command, chosen) | {"encoder"}:
        chosen[source] = _value(rng, source, files)
    reads = _reads(command, chosen)
    argv = [command]
    for action in actions:
        # a required flag is always given, and so are exact search's
        # budgets, so no call searches on the default ones
        always = action.required or action.dest in ("max_nodes", "time_limit") and "exact" in argv
        odds = (0.01 if action.dest not in reads else
                0.95 if action.dest in chosen or action.dest == "t" else 0.85)
        if not always and rng.random() >= odds:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        else:
            argv += [flag, chosen.get(action.dest) or _value(rng, action.dest, files)]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_every_call_exits_0_1_or_2_and_json_carries_elapsed(files, capsys, seed):
    # the call is drawn with the seed's own Random: Hypothesis picks seeds,
    # and the odds of each flag are the ones `_argv` states
    argv = _argv(random.Random(seed), files)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if "--json" in argv and out:
        lines = out.splitlines()
        assert len(lines) == 1, argv
        assert isinstance(json.loads(lines[0])["stats"]["elapsed_s"], float), argv


def test_the_fuzz_draws_every_subcommand_and_family():
    # the corpus reaches all eight subcommands and a string of every family
    assert len(cli._subparsers()) == 8
    families = {text.partition(":")[0] for text in _FUNCTIONS}
    assert set(fcc.registered_spec_names()) | {"binary"} <= families
