"""End-to-end checks of the fcodes command line."""

from __future__ import annotations

import json
import re
from math import comb
from pathlib import Path

import pytest

from fcodes import bounds, cli, construct, fcc, functions
from fcodes.bits import BitWord
from fcodes.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict, str]:
    """A --json run, its payload without the `stats`, whose elapsed time
    differs run to run."""
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    del payload["stats"]
    return code, payload, err


# --- bounds -------------------------------------------------------------------


def test_bounds_plotkin_weight_matrix(capsys):
    code, out, _ = run(capsys, "bounds", "--matrix", "dwt", "--k", "6", "--t", "2", "--method", "plotkin")
    assert code == 0
    assert out.strip() == "25/6 (ceil 5)"


def test_bounds_plotkin_json(capsys):
    code, out, _ = run(
        capsys, "bounds", "--matrix", "dwt", "--k", "6", "--t", "2",
        "--method", "plotkin", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value_num"] == 25 and data["value_den"] == 6
    assert data["integer_value"] == 5


def test_bounds_gv_function_matrix(capsys):
    code, out, _ = run(
        capsys, "bounds", "--matrix", "function", "--function", "parity:k=3",
        "--t", "1", "--method", "gv",
    )
    assert code == 0
    assert out.strip() == "2"


# the (function, t) cases where the row-sum order's GV threshold is below
# the identity order's
_ORDER_MOVES = [
    ("minmax:w=4,l=2", 2), ("minmax:w=5,l=2", 2), ("ml:sigmoid,k=6,eps=1", 1),
    ("ml:sigmoid,k=6,eps=1", 2), ("ml:tanh,k=7,eps=3/10", 1), ("ml:tanh,k=7,eps=3/10", 2),
]


@pytest.mark.parametrize("function, t", _ORDER_MOVES)
def test_gv_sandwich_and_greedy_code_take_the_auto_encoders_length_and_order(
    capsys, function, t
):
    matrix = ("--matrix", "function", "--function", function, "--t", str(t))
    enc = fcc.build_function_value_encoder(fcc.spec_from_string(function), t)
    dmat = fcc.function_distance_matrix(enc.spec, t)
    assert enc.r < bounds.gv_irregular_threshold(dmat)
    assert run(capsys, "bounds", "--method", "gv", *matrix)[:2] == (0, f"{enc.r}\n")
    code, payload, _ = run_json(capsys, "bounds", "--method", "sandwich", *matrix)
    assert code == 0 and payload["upper"]["integer_value"] == enc.r
    code, payload, _ = run_json(capsys, "build-code", "--kind", "greedy", *matrix)
    assert code == 0 and payload["length"] == enc.r
    # one parity word per value, in image order, as the encoder has them
    assert payload["code"] == [str(BitWord(w, enc.r)) for w in enc.words]
    assert run_json(capsys, "build-code", "--kind", "greedy", *matrix, "--length", str(enc.r)) == (
        code, payload, "")


@pytest.mark.parametrize("k", range(3, 12))
def test_dwt_bounds_and_greedy_codes_keep_the_identity_order(capsys, k):
    for t in (1, 2, 3):
        matrix = ("--matrix", "dwt", "--k", str(k), "--t", str(t))
        r = 4 * t - 1
        assert run(capsys, "bounds", "--method", "gv", *matrix)[:2] == (0, f"{r}\n")
        assert run(capsys, "bounds", "--method", "sandwich", *matrix)[:2] == (
            0, f"lower {2 * t} (ceil {2 * t})  upper {r} (ceil {r})\n")
        code, payload, _ = run_json(capsys, "build-code", "--kind", "greedy", *matrix)
        greedy = construct.greedy_irregular_code(functions.wt_requirement_matrix(k, t), r)
        assert (code, payload["length"]) == (0, r)
        assert payload["code"] == [str(w) for w in greedy]


def test_row_order_and_message_options_are_gone(capsys, tmp_path):
    for argv in (["bounds", "--method", "gv", "--matrix", "dwt", "--k", "3", "--t", "1",
                  "--order", "heuristic"],
                 ["build-code", "--kind", "greedy", "--k", "3", "--t", "1", "--order", "id"],
                 ["simulate", "--function", "wt", "--k", "4", "--t", "1", "--messages", "all"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bounds_hadamard_not_applicable(capsys):
    code, out, _ = run(capsys, "bounds", "--method", "hadamard", "--size", "9", "--dist", "2")
    assert code == 0
    assert out.strip() == "not-applicable"
    assert run_json(capsys, "bounds", "--method", "hadamard", "--size", "9", "--dist", "2") == (
        0, {"value": None}, "")


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--method", "plotkin", "--matrix", "dwt", "--k", "4", "--t", "1", "--T", "9"],
     "--matrix dwt takes no --T"),
    (["bounds", "--method", "ecc-data", "--k", "10", "--t", "2", "--w", "7"],
     "--method ecc-data takes no --w"),
    (["build-code", "--kind", "hadamard", "--dist", "4", "--k", "3"], "--kind hadamard takes no --k"),
    (["build-code", "--kind", "exact", "--matrix", "file", "--file", "d.json", "--k", "3"],
     "--matrix file takes no --k"),
    (["bounds", "--method", "minmax-lower", "--w", "3", "--t", "1", "--l", "3"],
     "--method minmax-lower takes no --l"),
    (["bounds", "--method", "plotkin", "--matrix", "dwt", "--k", "4", "--t", "1",
      "--function", "nosuch:x=1"], "--matrix dwt takes no --function"),
    (["build-code", "--kind", "hadamard", "--dist", "4", "--t", "3"], "--kind hadamard takes no --t"),
    (["bounds", "--method", "wt-lower", "--t", "2", "--matrix", "file"],
     "--method wt-lower takes no --matrix"),
    (["build-code", "--kind", "exact", "--matrix", "file", "--file", "d.json", "--t", "1"],
     "--matrix file takes no --t"),
], ids=["dwt", "method", "kind", "file", "minmax-lower", "dwt-function", "kind-t",
        "method-matrix", "file-t"])
def test_a_spec_flag_the_matrix_or_method_does_not_read_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["build-code", "--kind", "exact", "--matrix", "dwt", "--k", "3", "--t", "1", "--length", "9"],
     "--kind exact takes no --length"),
    (["build-code", "--kind", "greedy", "--matrix", "dwt", "--k", "3", "--t", "1",
      "--max-nodes", "5"], "--kind greedy takes no --max-nodes"),
    (["build-code", "--kind", "hadamard", "--dist", "2", "--count", "3", "--factor", "2"],
     "--kind hadamard takes no --count"),
    (["bounds", "--method", "plotkin", "--matrix", "dwt", "--k", "4", "--t", "1", "--size", "3"],
     "--method plotkin takes no --size"),
], ids=["exact-length", "greedy-max-nodes", "hadamard-count", "plotkin-size"])
def test_a_value_flag_the_method_or_kind_does_not_read_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["build-code", "--kind", "hadamard", "--dist", "2", "--row-symmetry", "--trace"],
     "--kind hadamard takes no --row-symmetry"),
    (["build-code", "--kind", "greedy", "--k", "3", "--t", "1", "--row-symmetry"],
     "--kind greedy takes no --row-symmetry"),
    (["build-code", "--kind", "even-weight", "--count", "3", "--length", "4", "--trace"],
     "--kind even-weight takes no --trace"),
], ids=["hadamard", "greedy", "even-weight"])
def test_an_on_off_flag_only_exact_reads_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_exact_reads_its_on_off_flags_and_every_kind_reads_json(capsys):
    code, out, err = run(capsys, "build-code", "--kind", "exact", "--k", "3", "--t", "1",
                         "--row-symmetry", "--trace")
    assert code == 0 and out.startswith("N = 3 (proven") and "proven r=3" in err
    assert run_json(capsys, "build-code", "--kind", "hadamard", "--dist", "2")[0] == 0


def test_an_unknown_config_matrix_source_is_named_before_its_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matrix=bogus\n")
    code, out, err = run(capsys, "bounds", "--method", "gv", "--k", "4", "--t", "1",
                         "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: unknown matrix source 'bogus'\n")
    # a method that reads no matrix leaves the config key alone
    assert run(capsys, "bounds", "--method", "wt-lower", "--t", "1", "--config", str(cfg))[0] == 0


def test_matrix_and_method_read_their_own_spec_flags(capsys, tmp_path):
    assert run(capsys, "bounds", "--method", "ecc-data", "--k", "10", "--t", "2")[:2] == (0, "10\n")
    assert run(capsys, "bounds", "--method", "minmax-lower", "--w", "3", "--t", "1")[0] == 0
    # a config key stays exempt: one config serves several subcommands
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("k=4\nT=9\nw=3\n")
    argv = ["bounds", "--method", "plotkin", "--matrix", "dwt", "--t", "1"]
    assert run(capsys, *argv, "--config", str(cfg)) == run(capsys, *argv, "--k", "4")


@pytest.mark.parametrize("method, size, dist", [
    ("hadamard", "-1", "4"), ("gv-closed", "-5", "100"), ("gv-closed", "100", "-3"),
])
def test_regular_bounds_reject_a_negative_size_or_distance(capsys, method, size, dist):
    code, out, err = run(capsys, "bounds", "--method", method, "--size", size, "--dist", dist)
    assert (code, out) == (2, "") and len(err.strip().splitlines()) == 1
    assert err.startswith("error: negative size or distance")


def test_bounds_sandwich(capsys):
    code, out, _ = run(capsys, "bounds", "--matrix", "dwt", "--k", "4", "--t", "1", "--method", "sandwich")
    assert code == 0
    assert out.startswith("lower ") and " upper " in out


def test_bounds_sandwich_json(capsys):
    argv = ["bounds", "--method", "sandwich", "--matrix", "dwt", "--k", "4", "--t", "1", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == {"value_num": 2, "value_den": 1, "integer_value": 2,
                             "kind": "lower", "source": "max-entry"}
    assert data["upper"] == {"value_num": 3, "value_den": 1, "integer_value": 3,
                             "kind": "upper", "source": "gv-threshold"}


def test_bounds_wt_lower(capsys):
    code, out, _ = run(capsys, "bounds", "--method", "wt-lower", "--t", "2")
    assert code == 0
    assert out.strip() == "21/4 (ceil 6)"


def test_bounds_ecc_values(capsys):
    code, out, _ = run(capsys, "bounds", "--method", "ecc-values", "--image-size", "1048576", "--t", "1")
    assert code == 0
    assert out.strip() == "25"


def test_bounds_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "bounds", "--method", "plotkin", "--matrix", "dwt", "--t", "1")
    assert code == 2
    assert "--k" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bounds", "--method", "plotkin-regular"], "--size"),
        (["bounds", "--method", "hadamard", "--size", "4"], "--dist"),
        (["build-code", "--kind", "hadamard"], "--dist"),
        (["build-code", "--kind", "reed-muller"], "--rm-order"),
        (["build-code", "--kind", "even-weight"], "--count"),
    ],
)
def test_missing_code_size_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and flag in err


def test_bounds_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 6\nt = 2\n# comment\n")
    code, out, _ = run(capsys, "bounds", "--method", "plotkin", "--matrix", "dwt", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "25/6 (ceil 5)"


def test_bounds_json_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"k": 6, "t": 2}')
    code, out, _ = run(capsys, "bounds", "--method", "plotkin", "--matrix", "dwt", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "25/6 (ceil 5)"


def test_bounds_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t=2\nk=9\n")
    code, out, _ = run(
        capsys, "bounds", "--method", "plotkin", "--matrix", "dwt", "--k", "6",
        "--config", str(cfg),
    )
    assert code == 0
    assert out.strip() == "25/6 (ceil 5)"


# --- build-code ---------------------------------------------------------------


def test_build_code_exact_restricted_matrix(capsys, tmp_path):
    mat = tmp_path / "d.json"
    mat.write_text('{"dim": 3, "entries": [[0,2,1],[2,0,2],[1,2,0]]}')
    code, out, _ = run(capsys, "build-code", "--kind", "exact", "--matrix", "file", "--file", str(mat))
    assert code == 0
    assert "N = 3 (proven" in out


def test_build_code_exact_budget_exhaustion_exit(capsys, tmp_path):
    mat = tmp_path / "d.json"
    mat.write_text('{"dim": 4, "entries": [[0,3,3,3],[3,0,3,3],[3,3,0,3],[3,3,3,0]]}')
    code, out, _ = run(
        capsys, "build-code", "--kind", "exact", "--matrix", "file", "--file", str(mat),
        "--max-nodes", "2",
    )
    assert code == 2
    assert "budget exhausted" in out


def test_build_code_exact_rejects_a_nan_time_limit(capsys):
    argv = ["build-code", "--kind", "exact", "--matrix", "dwt", "--k", "3", "--t", "1"]
    code, out, err = run(capsys, *argv, "--time-limit", "nan")
    assert (code, out) == (2, "") and err.startswith("error: budget caps must be positive")
    assert len(err.strip().splitlines()) == 1
    assert run(capsys, *argv, "--time-limit", "inf")[0] == 0  # no limit


def test_build_code_exact_json_stats(capsys, tmp_path):
    mat = tmp_path / "d.json"
    mat.write_text('{"dim": 3, "entries": [[0,2,1],[2,0,2],[1,2,0]]}')
    code, out, err = run(
        capsys, "build-code", "--kind", "exact", "--matrix", "file", "--file", str(mat), "--json"
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["value"] == 3 and data["proven"] and len(data["code"]) == 3
    stats = data["stats"]
    assert set(stats) == {"elapsed_s", "nodes", "nodes_per_s", "refute_nodes", "confirm_nodes"}
    assert stats["nodes"] == data["nodes"] > 0
    assert 0 <= stats["elapsed_s"] < 30 and stats["nodes_per_s"] >= 0
    assert stats["refute_nodes"] + stats["confirm_nodes"] == stats["nodes"]


def test_build_code_exact_json_splits_nodes_at_the_last_tried_length(capsys):
    # D_wt(k=4, t=1) is refuted below N = 3 before it is confirmed at 3
    argv = ["build-code", "--kind", "exact", "--matrix", "dwt", "--k", "4", "--t", "1"]
    code, out, err = run(capsys, *argv, "--json", "--trace")
    assert code == 0
    stats = json.loads(out)["stats"]
    tries = [int(line.rsplit("nodes=", 1)[1]) for line in err.splitlines()
             if line.startswith("try r=")]
    assert len(tries) >= 2 and stats["refute_nodes"] == tries[-1] > 0
    assert stats["refute_nodes"] + stats["confirm_nodes"] == stats["nodes"]


def test_build_code_exact_trace_streams_to_stderr(capsys, tmp_path):
    mat = tmp_path / "d.json"
    mat.write_text('{"dim": 3, "entries": [[0,2,1],[2,0,2],[1,2,0]]}')
    argv = ["build-code", "--kind", "exact", "--matrix", "file", "--file", str(mat)]
    code, out, err = run(capsys, *argv, "--trace")
    assert code == 0 and "N = 3 (proven" in out
    lines = err.strip().splitlines()
    assert lines[0].startswith("try r=") and lines[-1].startswith("proven r=3 nodes=")
    assert run(capsys, *argv)[2] == ""  # silent without the flag


def test_build_code_greedy_to_file(capsys, tmp_path):
    out_path = tmp_path / "code.txt"
    code, _, _ = run(
        capsys, "build-code", "--kind", "greedy", "--matrix", "dwt", "--k", "4",
        "--t", "1", "--length", "4", "--out", str(out_path),
    )
    assert code == 0
    lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 5 and all(len(l) == 4 for l in lines)


def test_build_code_greedy_without_a_length_builds_at_the_gv_threshold(capsys):
    argv = ["build-code", "--kind", "greedy", "--matrix", "dwt", "--k", "4", "--t", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "using gv threshold length r=3\n"
    assert out == "# greedy code, r=3\n000\n011\n100\n001\n010\n"
    code, out, err = run(capsys, *argv, "--length", "2")
    assert (code, out, err) == (1, "", "greedy build failed at length 2\n")


@pytest.mark.parametrize("argv, expected", [
    (["--kind", "hadamard", "--dist", "2"],
     "# hadamard-derived code, distance 2\n0000\n0101\n0011\n0110\n1111\n1010\n1100\n1001\n"),
    (["--kind", "reed-muller", "--rm-order", "1", "--log-length", "2"],
     "# RM(1,2)\n0000\n1111\n0101\n1010\n0011\n1100\n0110\n1001\n"),
    (["--kind", "even-weight", "--count", "3", "--length", "3"],
     "# even-weight subcode\n000\n011\n101\n"),
], ids=["hadamard", "reed-muller", "even-weight"])
def test_build_code_generators_print_their_codes(capsys, argv, expected):
    assert run(capsys, "build-code", *argv) == (0, expected, "")


def test_build_code_hadamard_impossible(capsys):
    code, _, err = run(capsys, "build-code", "--kind", "hadamard", "--dist", "3")
    assert code == 1
    assert "no Sylvester order" in err


@pytest.mark.parametrize("dist", ["0", "-2"])
def test_build_code_hadamard_distance_below_one_is_usage(capsys, dist):
    code, out, err = run(capsys, "build-code", "--kind", "hadamard", "--dist", dist)
    assert (code, out) == (2, "")
    assert err == f"error: need --dist >= 1, got {dist}\n"


@pytest.mark.parametrize("argv, payload", [
    (["--kind", "even-weight", "--count", "3", "--length", "3"],
     {"length": 3, "code": ["000", "011", "101"]}),
    (["--kind", "greedy", "--matrix", "dwt", "--k", "4", "--t", "1"],
     {"length": 3, "code": ["000", "011", "100", "001", "010"]}),
], ids=["even-weight", "greedy"])
def test_build_code_json_lists_the_code(capsys, tmp_path, argv, payload):
    code, data, _ = run_json(capsys, "build-code", *argv)
    assert (code, data) == (0, payload)
    # --out takes the file, and the payload stays
    path = tmp_path / "code.txt"
    assert run_json(capsys, "build-code", *argv, "--out", str(path))[:2] == (0, payload)
    assert path.read_text() == run(capsys, "build-code", *argv)[1]


@pytest.mark.parametrize("argv, length, err", [
    (["--kind", "hadamard", "--dist", "3"], None, "no Sylvester order for distance 3\n"),
    (["--kind", "greedy", "--matrix", "dwt", "--k", "4", "--t", "1", "--length", "2"], 2,
     "greedy build failed at length 2\n"),
], ids=["hadamard", "greedy"])
def test_build_code_json_failure_has_no_code(capsys, argv, length, err):
    assert run_json(capsys, "build-code", *argv) == (1, {"length": length, "code": None}, err)


def test_build_code_exact_json_writes_its_out_file(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    argv = ["build-code", "--kind", "exact", "--matrix", "dwt", "--k", "4", "--t", "1",
            "--out", str(path)]
    code, data, _ = run_json(capsys, *argv)
    assert code == 0 and data["code"] == ["000", "011", "100", "001", "010"]
    text = path.read_text()
    path.unlink()
    assert run(capsys, *argv)[:2] == (0, "N = 3 (proven, 7 nodes)\n")
    assert path.read_text() == text == "# exact witness\n000\n011\n100\n001\n010\n"


def test_build_code_replicate(capsys, tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("01\n10\n")
    code, out, _ = run(capsys, "build-code", "--kind", "replicate", "--in", str(src), "--factor", "2")
    assert code == 0
    assert "0011" in out and "1100" in out  # bits repeat in place


# --- encoder pipeline -----------------------------------------------------------


def test_fcc_build_verify_encode_decode_roundtrip(capsys, tmp_path):
    enc_path = tmp_path / "enc.txt"
    code, _, err = run(
        capsys, "fcc-build", "--function", "wt", "--k", "6", "--t", "1",
        "--construction", "1", "--out", str(enc_path),
    )
    assert code == 0
    assert "r=3" in err

    code, out, _ = run(capsys, "fcc-verify", "--encoder", str(enc_path))
    assert code == 0 and out.strip() == "OK"

    code, out, _ = run(capsys, "fcc-encode", "--encoder", str(enc_path), "--u", "110100")
    assert code == 0
    codeword = out.strip()
    assert codeword.startswith("110100") and len(codeword) == 9

    flipped = "0" + codeword[1:] if codeword[0] == "1" else "1" + codeword[1:]
    code, out, _ = run(capsys, "fcc-decode", "--encoder", str(enc_path), "--y", flipped)
    assert code == 0
    assert out.strip() == "3"  # wt(110100)


def test_fcc_verify_numeric_alias_and_inline_build(capsys):
    code, out, _ = run(
        capsys, "fcc-verify", "--function", "wt", "--k", "8", "--t", "1",
        "--construction", "1",
    )
    assert code == 0 and out.strip() == "OK"


@pytest.mark.parametrize(
    "function,construction",
    [
        ("delta_T:k=8,T=3", "2"),
        ("minmax:w=3,l=3", "3"),
        ("minmax:w=3,l=3", "4"),
        ("delta_T:k=9,T=5", "locally-binary"),
    ],
)
def test_fcc_verify_all_constructions(capsys, function, construction):
    code, out, _ = run(
        capsys, "fcc-verify", "--function", function, "--t", "1",
        "--construction", construction,
    )
    assert code == 0 and out.strip() == "OK"


def test_bounds_gv_heuristic_order(capsys):
    # the row-sum order's threshold is below the identity's here, so gv
    # prints it, as `auto` builds at it
    dmat = fcc.function_distance_matrix(fcc.spec_from_string("ml:tanh,k=7,eps=3/10"), 2)
    heuristic = bounds.gv_irregular_threshold(dmat, bounds.heuristic_row_order(dmat))
    assert (heuristic, bounds.gv_irregular_threshold(dmat)) == (11, 15)
    code, out, _ = run(
        capsys, "bounds", "--matrix", "function", "--function", "ml:tanh,k=7,eps=3/10",
        "--t", "2", "--method", "gv",
    )
    assert (code, out) == (0, "11\n")


def test_fcc_verify_detects_violation(capsys, tmp_path):
    enc_path = tmp_path / "enc.txt"
    run(
        capsys, "fcc-build", "--function", "wt", "--k", "5", "--t", "1",
        "--construction", "1", "--out", str(enc_path),
    )
    text = enc_path.read_text().splitlines()
    # sabotage: make the weight-1 parity equal the weight-0 parity
    parities = [l for l in text if not l.startswith("#")]
    headers = [l for l in text if l.startswith("#")]
    parities[1] = parities[0]
    enc_path.write_text("\n".join(headers + parities) + "\n")

    code, out, _ = run(capsys, "fcc-verify", "--encoder", str(enc_path))
    assert code == 1
    assert out.startswith("VIOLATION")


def test_fcc_verify_explicit_t_overrides_stored_t(capsys, tmp_path):
    enc_path = tmp_path / "enc.txt"
    run(
        capsys, "fcc-build", "--function", "wt", "--k", "8", "--t", "1",
        "--construction", "1", "--out", str(enc_path),
    )
    # the file was built for one substitution; its parities cannot survive two
    code, out, _ = run(capsys, "fcc-verify", "--encoder", str(enc_path), "--t", "2")
    assert code == 1
    assert out.startswith("VIOLATION")
    # without the flag the stored t=1 applies and the check passes
    code, out, _ = run(capsys, "fcc-verify", "--encoder", str(enc_path))
    assert code == 0
    assert out.strip() == "OK"


def test_fcc_verify_json_witness(capsys, tmp_path):
    enc_path = tmp_path / "enc.txt"
    run(
        capsys, "fcc-build", "--function", "parity", "--k", "3", "--t", "1",
        "--out", str(enc_path),
    )
    code, out, _ = run(capsys, "fcc-verify", "--encoder", str(enc_path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["mode"] == "exhaustive"


@pytest.mark.parametrize("extra", [[], ["--sample", "500"]])
def test_fcc_verify_json_stats(capsys, extra):
    code, out, _ = run(
        capsys, "fcc-verify", "--function", "wt", "--k", "6", "--t", "1", "--json", *extra
    )
    assert code == 0
    data = json.loads(out)
    stats = data.pop("stats")
    assert set(stats) == {"elapsed_s", "pairs_checked", "route"}
    assert stats["elapsed_s"] >= 0 and stats["pairs_checked"] == data["pairs_checked"] > 0
    assert set(data) == {"ok", "pairs_checked", "mode", "route"}
    assert stats["route"] == data["route"] == ("sampled" if extra else "class")


def test_fcc_verify_json_names_each_route(capsys, tmp_path):
    # a passing per-value encoder: the class check, over its 7 values; a
    # failing per-message one (no parity bits at all): the message-level
    # kernel, for the witness; a sample: the sampled route
    path = tmp_path / "bare.txt"
    spec = functions.parity_spec(3)
    path.write_text(fcc.encoder_to_text(
        fcc.per_message_encoder(spec, 1, [BitWord.zeros(0)] * 8)), encoding="utf-8")
    cases = [
        (["--function", "wt", "--k", "6", "--t", "1"], 0, "class", 21),
        (["--encoder", str(path)], 1, "message-level", 3),
        (["--function", "wt", "--k", "6", "--t", "1", "--sample", "50"], 0, "sampled", None),
    ]
    for argv, rc, route, pairs in cases:
        code, out, _ = run(capsys, "fcc-verify", *argv, "--json")
        data = json.loads(out)
        assert (code, data["route"], data["stats"]["route"]) == (rc, route, route)
        assert pairs is None or data["pairs_checked"] == pairs
    assert data["mode"] == "sampled"


@pytest.mark.parametrize(
    "extra, route", [([], "class"), (["--sample", "500"], "sampled")]
)
def test_fcc_verify_trace_writes_route_to_stderr(capsys, extra, route):
    # a sampled OK names its route and count, so it never reads as a proof
    argv = ["fcc-verify", "--function", "wt", "--k", "6", "--t", "1", *extra]
    code, out, err = run(capsys, *argv, "--trace")
    (line,) = err.strip().splitlines()
    assert line.startswith(f"route={route} pairs_checked=") and " elapsed_s=" in line
    pairs = line.split()[1].removeprefix("pairs_checked=")
    text = f"OK (sampled: {pairs} pairs checked)\n" if extra else "OK\n"
    assert (code, out) == (0, text)
    assert run(capsys, *argv) == (0, text, "")


@pytest.mark.parametrize("sample", ["0", "-5"])
def test_fcc_verify_rejects_a_sample_of_no_pairs(capsys, sample):
    code, out, err = run(
        capsys, "fcc-verify", "--function", "wt", "--k", "4", "--t", "1",
        "--sample", sample, "--json",
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "sample >= 1" in err


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["--function", "wt", "--k", "16", "--t", "1", "--construction", "auto"], 11_208),
        (["--function", "delta_T", "--k", "16", "--T", "4", "--t", "1",
          "--construction", "delta-ramp"], 5_054),
    ],
)
def test_fcc_verify_sample_pins_its_draws(capsys, argv, pairs):
    # golden counts at the default seed 0: a change in how `random` draws
    # would move them, on any Python version
    code, out, _ = run(capsys, "fcc-verify", *argv, "--sample", "20000", "--json")
    data = json.loads(out)
    assert (code, data["ok"], data["route"], data["pairs_checked"]) == (0, True, "sampled", pairs)
    text = f"OK (sampled: {pairs} pairs checked)\n"
    assert run(capsys, "fcc-verify", *argv, "--sample", "20000")[:2] == (0, text)


@pytest.mark.parametrize(
    "argv",
    [
        ["fcc-verify", "--function", "wt", "--k", "6", "--t", "1", "--sample", "10"],
        ["simulate", "--function", "wt", "--k", "6", "--t", "1", "--construction", "1",
         "--channel", "random"],
    ],
)
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    # Random(-1) draws what Random(1) draws, so the seed would alias silently
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "seed >= 0" in err


def test_fcc_verify_above_the_exhaustive_limit_names_the_sample_flag(capsys):
    code, out, err = run(
        capsys, "fcc-verify", "--function", "wt", "--k", "15", "--t", "1", "--construction", "1"
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "pass --sample N" in err


def test_fcc_verify_delta_ramp_at_the_exhaustive_limit(capsys, tmp_path):
    # k=14, t=2: the ramp's parity follows the weight, so its (value, parity)
    # classes are the 15 weights and fcc-verify checks them by the class
    # route, counting the weight pairs in different blocks. The message
    # route counts every pair at distance 1..2t whose weight blocks differ:
    # from weight a, flipping j ones and w - j zeros lands on weight
    # a - 2j + w; each pair is met from both ends
    k, T, t = 14, 5, 2
    path = tmp_path / "ramp.txt"
    code, _, _ = run(
        capsys, "fcc-build", "--function", "delta_T", "--k", str(k), "--T", str(T),
        "--t", str(t), "--construction", "delta-ramp", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "fcc-verify", "--encoder", str(path), "--json")
    assert code == 0
    ordered = sum(
        comb(k, a) * comb(a, j) * comb(k - a, w - j)
        for a in range(k + 1)
        for w in range(1, 2 * t + 1)
        for j in range(w + 1)
        if a // T != (a - 2 * j + w) // T
    )
    data = json.loads(out)
    blocks = sum(a // T != b // T for a in range(k + 1) for b in range(a))
    assert (data["ok"], data["mode"], data["route"]) == (True, "exhaustive", "class")
    assert data["pairs_checked"] == blocks == 75
    message = fcc._verify_message_level(fcc.encoder_from_text(path.read_text()), t, True)
    assert (message.ok, message.pairs_checked) == (True, ordered // 2)


def test_fcc_build_json_reports_the_encoder_written(capsys, tmp_path):
    path = tmp_path / "enc.txt"
    argv = ["fcc-build", "--function", "wt", "--k", "8", "--t", "1", "--construction", "1",
            "--out", str(path)]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    stats = data.pop("stats")
    assert data == {"k": 8, "t": 1, "r": 3, "mode": fcc.PER_VALUE, "out": str(path)}
    assert set(stats) == {"elapsed_s"} and stats["elapsed_s"] >= 0
    # the stderr line and the file are those of a run without --json
    text = path.read_text(encoding="utf-8")
    assert run(capsys, *argv) == (0, "", err)
    assert path.read_text(encoding="utf-8") == text
    assert err.startswith("encoder: k=8 t=1 r=3 ")


def test_fcc_encode_json_names_the_codeword(capsys):
    argv = ["fcc-encode", "--function", "wt", "--k", "6", "--t", "1", "--construction", "1",
            "--u", "110100"]
    code, out, _ = run(capsys, *argv)
    assert run_json(capsys, *argv) == (0, {"codeword": out.strip()}, "") and code == 0


def test_the_encoder_file_is_read_once_per_call(capsys, tmp_path, monkeypatch):
    path = tmp_path / "enc.txt"
    run(capsys, "fcc-build", "--function", "wt", "--k", "6", "--t", "1", "--out", str(path))
    opened, real_open = [], open
    monkeypatch.setattr("builtins.open", lambda f, *a, **kw: opened.append(f) or real_open(f, *a, **kw))
    for command in (["fcc-verify"], ["simulate"], ["fcc-decode", "--y", "110100111"]):
        opened.clear()
        assert run(capsys, *command, "--encoder", str(path))[0] == 0
        assert opened.count(str(path)) == 1, command


def test_fcc_build_json_without_out_is_usage_error(capsys):
    # stdout carries the encoder file then, so it has no room for JSON
    code, out, err = run(
        capsys, "fcc-build", "--function", "wt", "--k", "8", "--t", "1", "--json"
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "--out" in err


def test_fcc_build_wrong_family_is_usage_error(capsys):
    code, _, err = run(
        capsys, "fcc-build", "--function", "parity", "--k", "4", "--t", "1",
        "--construction", "delta-ramp",
    )
    assert code == 2
    assert "delta" in err


def test_fcc_decode_out_of_model_flag(capsys, tmp_path):
    enc_path = tmp_path / "enc.txt"
    run(
        capsys, "fcc-build", "--function", "wt", "--k", "6", "--t", "1",
        "--construction", "1", "--out", str(enc_path),
    )
    code, out, _ = run(
        capsys, "fcc-decode", "--encoder", str(enc_path), "--y", "110100111", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["out_of_model"] is True


@pytest.mark.parametrize(
    "command",
    [
        ["fcc-build", "--construction", "minmax-spc"],
        ["fcc-build", "--construction", "minmax-rm"],
        ["fcc-verify", "--construction", "minmax-spc"],
        ["simulate", "--construction", "minmax-rm"],
        ["table"],
    ],
    ids=" ".join,
)
def test_minmax_contradictory_k_is_usage_error(capsys, command):
    code, out, err = run(
        capsys, *command, "--function", "minmax", "--w", "3", "--l", "2", "--k", "9", "--t", "1"
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "k=9" in err


@pytest.mark.parametrize("construction", ["minmax-spc", "minmax-rm"])
def test_minmax_k_is_checked_without_a_function(capsys, construction):
    code, out, err = run(
        capsys, "fcc-build", "--construction", construction,
        "--w", "3", "--l", "2", "--k", "9", "--t", "1",
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "k=9" in err and "w*l=6" in err


def test_minmax_consistent_k_is_accepted(capsys):
    code, _, _ = run(
        capsys, "fcc-verify", "--function", "minmax", "--construction", "minmax-spc",
        "--w", "3", "--l", "2", "--k", "6", "--t", "1",
    )
    assert code == 0


@pytest.mark.parametrize("w, k", [(3, 7), (4, 4)])
def test_table_minmax_k_of_no_block_layout_is_usage_error(capsys, w, k):
    # without --l, k must still be w*l for some block length l >= 2
    code, out, err = run(
        capsys, "table", "--function", "minmax", "--w", str(w), "--k", str(k), "--t", "1"
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and f"k={k}" in err


def test_table_minmax_k_without_l_prints_the_row_of_its_layout(capsys):
    flags = ("table", "--function", "minmax", "--w", "3", "--k", "9", "--t", "1")
    without_l = run_json(capsys, *flags)
    assert without_l == run_json(capsys, *flags, "--l", "3") and without_l[0] == 0


def test_fcc_build_locally_binary(capsys):
    code, out, _ = run(
        capsys, "fcc-build", "--function", "delta_T:k=9,T=5", "--t", "1",
        "--construction", "locally-binary",
    )
    assert code == 0
    assert "# mode: per-message" in out


# --- simulate -------------------------------------------------------------------


def test_simulate_exhaustive_clean(capsys):
    code, out, _ = run(
        capsys, "simulate", "--function", "wt", "--k", "6", "--t", "1",
        "--construction", "1",
    )
    assert code == 0
    assert "failures=0" in out


def test_simulate_random_json(capsys):
    code, out, _ = run(
        capsys, "simulate", "--function", "delta_T:k=8,T=3", "--t", "1",
        "--construction", "2", "--channel", "random", "--seed", "9",
        "--trials", "300", "--json",
    )
    assert code == 0
    data = json.loads(out)
    stats = data.pop("stats")
    assert data == {"trials": 300, "failures": 0, "mode": "random", "seed": 9}
    # the encoder passes the check at the channel's t: no trial is run or decoded
    assert stats["trials"] == 300 and stats["elapsed_s"] >= 0
    assert (stats["route"], stats["decodes"]) == ("certified", 0)


def test_simulate_json_stats_count_decodes(capsys):
    code, out, _ = run(
        capsys, "simulate", "--function", "wt", "--k", "5", "--t", "1",
        "--construction", "1", "--channel-t", "2", "--json",
    )
    assert code == 1
    data = json.loads(out)
    stats = data.pop("stats")
    assert set(stats) == {"elapsed_s", "trials", "decodes", "route"}
    assert set(data) == {"trials", "failures", "mode", "witness"}
    assert stats["trials"] == data["trials"]
    # the tables settle every trial; only the first failure is decoded, for its witness
    assert (stats["route"], stats["decodes"]) == ("tables", 1)


def test_simulate_trace_writes_route_and_totals_to_stderr(capsys):
    argv = ["simulate", "--function", "wt", "--k", "5", "--t", "1",
            "--construction", "1", "--channel-t", "2", "--json"]
    code, out, err = run(capsys, *argv, "--trace")
    assert code == 1
    route, totals = err.strip().splitlines()
    assert route.startswith("route=tables E=6 n=8 depth=2 mask_bits=1536 build_ms=")
    report = json.loads(out)
    assert totals.startswith(f"trials={report['trials']} failures={report['failures']} decodes=1 ")
    plain_code, plain_out, plain_err = run(capsys, *argv)
    assert plain_err == "" and plain_code == code
    plain = json.loads(plain_out)
    del plain["stats"], report["stats"]  # elapsed time differs run to run
    assert plain == report


def test_simulate_overdriven_channel_fails(capsys):
    code, out, _ = run(
        capsys, "simulate", "--function", "wt", "--k", "5", "--t", "1",
        "--construction", "1", "--channel-t", "3",
    )
    assert code == 1
    assert "first failure" in out


def test_simulate_witness_names_its_values_as_fcc_decode_does(capsys):
    encoder = ("--function", "ml:sigmoid,k=5,eps=1", "--t", "1")
    code, out, _ = run(capsys, "simulate", *encoder, "--channel-t", "2", "--json")
    assert code == 1
    witness = json.loads(out)["witness"]
    assert (witness["decoded"], witness["expected"]) == ("g(17/2)", "saturated-low")
    code, out, _ = run(capsys, "simulate", *encoder, "--channel-t", "2")
    assert code == 1
    assert out.splitlines()[1].endswith(" decoded=g(17/2) expected=saturated-low")
    # the witness's received word, decoded on its own
    _, sent, _ = run(capsys, "fcc-encode", *encoder, "--u", witness["message"])
    y = int(sent, 2) ^ int(witness["pattern"], 2)
    code, out, _ = run(capsys, "fcc-decode", *encoder, "--y", format(y, f"0{len(sent.strip())}b"))
    assert code == 0 and out.split()[0] == witness["decoded"]


def test_simulate_random_channel_caps_weight_at_block_length(capsys):
    # wt k=4 at t=1 gives a 7-bit code; a 12-error budget flips at most 7 bits
    code, out, err = run(
        capsys, "simulate", "--function", "wt", "--k", "4", "--t", "1",
        "--construction", "1", "--channel", "random", "--channel-t", "12",
        "--trials", "50", "--json",
    )
    assert code == 1
    assert json.loads(out)["trials"] == 50
    assert err == ""


# --- table and oracle -------------------------------------------------------------


def test_table_binary_row(capsys):
    code, out, _ = run(capsys, "table", "--function", "binary", "--t", "3")
    assert code == 0
    assert "lower=6" in out
    assert "ecc-values=7" in out
    assert "fcc=6" in out


def test_table_wt_row(capsys):
    code, out, _ = run(capsys, "table", "--function", "wt", "--t", "2", "--k", "16")
    assert code == 0
    assert "lower=6" in out and "fcc=6" in out


@pytest.mark.parametrize("t", [1, 2, 3])
def test_table_wt_row_on_one_bit_is_the_proven_optimum(capsys, t):
    # wt on one bit takes two values: the closed forms for k >= 2 do not apply
    optimum = fcc.exact_optimal_redundancy(functions.wt_spec(1), t)
    assert optimum.proven and optimum.value == 2 * t
    code, out, _ = run(capsys, "table", "--function", "wt", "--k", "1", "--t", str(t), "--json")
    row = json.loads(out)
    assert code == 0 and row["lower_bound"] == {"text": str(2 * t), "value": 2 * t, "exact": True}
    assert row["fcc_redundancy"]["value"] == 2 * t


def test_table_delta_row_below_one_block_is_all_zero(capsys):
    # k < T: every weight lies in block 0, so the function is constant
    code, out, err = run(capsys, "table", "--function", "delta_T", "--k", "4", "--T", "5", "--t",
                         "1", "--json")
    assert (code, err) == (0, "")
    row = json.loads(out)
    assert [row[key]["value"] for key in ("lower_bound", "ecc_on_function_values",
                                          "fcc_redundancy")] == [0, 0, 0]


def test_table_delta_row_without_k_names_what_the_ramp_needs(capsys):
    code, out, _ = run(capsys, "table", "--function", "delta_T", "--T", "2", "--t", "1")
    assert code == 0
    assert out.splitlines()[1] == (
        "delta_T(T=2) t=1  lower=2        ecc-data=t log k*   "
        "ecc-values=log E + t log log E* fcc=needs 2t+1 <= T*"
    )


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--function", "binary", "--t", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fcc_redundancy"] == {"text": "2", "value": 2, "exact": True}
    assert data["ecc_on_function_values"] == {"text": "3", "value": 3, "exact": True}


def test_table_generic_lower_bound_is_sound(capsys, tmp_path):
    # the message-level bound: 0010 and 1101 are 4 apart, but 0010 has a
    # neighbour outside the code, so only 2t = 4 parity bits are forced (and
    # exact search finds 4 sufficient)
    path = tmp_path / "code.txt"
    path.write_text("0010\n1101\n")
    code, out, _ = run(
        capsys, "table", "--function", "indicator", "--path", str(path), "--t", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["lower_bound"] == {"text": "4", "value": 4, "exact": True}


def test_oracle_minmax(capsys):
    code, out, _ = run(capsys, "oracle", "--kind", "minmax", "--w", "3", "--l", "3")
    assert code == 0
    assert "claims hold" in out


def test_oracle_ml_match(capsys):
    code, out, _ = run(
        capsys, "oracle", "--kind", "ml", "--ml-kind", "sigmoid", "--k", "5",
        "--eps", "1", "--t", "1",
    )
    assert code == 0
    assert out.strip() == "MATCH dim=22"


def test_unknown_function_is_usage_error(capsys):
    code, _, err = run(capsys, "fcc-verify", "--function", "nosuch", "--k", "3", "--t", "1")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["bounds"])  # missing required --method
    assert exc.value.code == 2


def test_consecutive_calls_do_not_share_parsed_values(capsys):
    # main() reuses one parser; flags and defaults of one call must not
    # reach the next
    code, out, _ = run(capsys, "bounds", "--method", "wt-lower", "--t", "2", "--json")
    assert code == 0 and json.loads(out)["integer_value"] == 6
    code, out, _ = run(capsys, "table", "--function", "binary", "--t", "1")
    assert code == 0 and out.startswith("#")  # not JSON
    code, out, _ = run(capsys, "bounds", "--method", "wt-lower", "--t", "1")
    assert code == 0 and out.strip() == "8/3 (ceil 3)"
    code, _, err = run(capsys, "bounds", "--method", "plotkin-regular", "--dist", "2")
    assert code == 2 and "--size" in err  # --size of no earlier call is kept


def test_cached_parser_matches_fresh_parser():
    argvs = [
        ["build-code", "--kind", "exact", "--row-symmetry", "--trace", "--max-nodes", "5"],
        ["build-code", "--kind", "greedy", "--k", "4", "--t", "1"],
        ["simulate", "--function", "wt", "--k", "4", "--t", "1", "--channel", "random"],
        ["simulate", "--function", "wt", "--k", "5", "--t", "2"],
        ["bounds", "--method", "gv", "--matrix", "function", "--json"],
        ["bounds", "--method", "gv"],
    ]
    for argv in argvs:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert cli.build_parser() is not cli.build_parser()


# --- one parameter layer ----------------------------------------------------------


@pytest.mark.parametrize("construction", ["auto", "wt-cycle"])
def test_flag_contradicting_a_function_pair_is_usage_error(capsys, construction):
    code, out, err = run(
        capsys, "fcc-build", "--function", "wt:k=6", "--k", "8", "--t", "1",
        "--construction", construction,
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "--k 8" in err and "k=6" in err


def test_function_pairs_outrank_the_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=9\nt=1\n")
    code, _, err = run(
        capsys, "fcc-build", "--function", "wt:k=6", "--construction", "1",
        "--config", str(cfg), "--out", str(tmp_path / "enc.txt"),
    )
    assert code == 0 and "k=6 t=1" in err


def test_repeated_key_in_a_function_string_is_usage_error(capsys):
    code, out, err = run(capsys, "fcc-build", "--function", "wt:k=3,k=4", "--t", "1")
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "'k'" in err


@pytest.mark.parametrize(
    "inline, flags",
    [
        ("delta_T:k=8,T=3", ["--function", "delta_T", "--k", "8", "--T", "3"]),
        ("minmax:w=3,l=2", ["--function", "minmax", "--w", "3", "--l", "2"]),
    ],
)
def test_table_inline_and_flag_forms_print_the_same_row(capsys, inline, flags):
    inline_run = run_json(capsys, "table", "--function", inline, "--t", "1")
    flag_run = run_json(capsys, "table", *flags, "--t", "1")
    assert inline_run == flag_run and inline_run[0] == 0
    assert flag_run[1]["function"] != inline.partition(":")[0]  # the family row


def test_table_family_row_rejects_an_unknown_pair(capsys):
    code, out, err = run(capsys, "table", "--function", "wt:bogus=1", "--t", "1")
    assert (code, out) == (2, "") and "bogus" in err


def test_config_supplies_every_value_flag(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("size=9\ndist=4\n")
    assert run(capsys, "bounds", "--method", "plotkin-regular", "--config", str(cfg)) == run(
        capsys, "bounds", "--method", "plotkin-regular", "--size", "9", "--dist", "4"
    )
    # a value argparse would default, here the matrix source
    cfg.write_text("matrix=function\nfunction=wt\nk=5\nt=1\n")
    assert run(capsys, "bounds", "--method", "gv", "--config", str(cfg)) == run(
        capsys, "bounds", "--method", "gv", "--matrix", "function", "--function", "wt",
        "--k", "5", "--t", "1",
    )


@pytest.mark.parametrize("text", ["seeds=5\n", '{"seeds": 5}'])
def test_config_key_of_no_flag_is_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    code, out, err = run(
        capsys, "fcc-verify", "--function", "wt", "--k", "6", "--t", "1", "--sample", "50",
        "--config", str(cfg),
    )
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and "'seeds'" in err


@pytest.mark.parametrize("text", ["json=1", "trace=1", "row_symmetry=1", "config=x.cfg",
                                  "order=heuristic", "messages=all"])
def test_config_key_of_an_on_off_flag_or_of_config_is_usage_error(capsys, tmp_path, text):
    # a config sets value flags only: these keys would otherwise be ignored,
    # the last two naming options that are gone
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    code, out, err = run(capsys, "fcc-verify", "--function", "wt", "--k", "4", "--t", "1",
                         "--config", str(cfg))
    assert (code, out) == (2, "")
    key = text.partition("=")[0]
    assert err == f"error: config key {key!r} names no value flag of any subcommand\n"


def test_encoder_takes_no_construction_flag(capsys, tmp_path):
    # the file's own function decides; a construction for another family
    # next to it is refused, while a config may still name one
    enc = str(tmp_path / "w6.txt")
    assert run(capsys, "fcc-build", "--function", "wt", "--k", "6", "--t", "1",
               "--construction", "wt-cycle", "--out", enc)[0] == 0
    code, out, err = run(capsys, "fcc-verify", "--encoder", enc, "--construction", "minmax-spc")
    assert (code, out, err) == (2, "", "error: --encoder takes no --construction\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("construction=minmax-spc\n")
    assert run(capsys, "fcc-verify", "--encoder", enc, "--config", str(cfg))[:2] == (0, "OK\n")


@pytest.mark.parametrize("argv, family, key", [
    (["table", "--function", "ml:sigmoid,kind=tanh,k=6,eps=3/5", "--t", "1"], "ml", "kind"),
    (["build-code", "--kind", "greedy", "--matrix", "function", "--function",
      "ml:kind=tanh,k=6,eps=3/5", "--t", "1"], "ml", "kind"),
    (["fcc-build", "--function", "wt:k=4,trials=3", "--t", "1", "--construction", "wt-cycle"],
     "wt", "trials"),
], ids=["table-kind", "build-code-kind", "construction-trials"])
def test_a_function_pair_its_family_does_not_take_is_usage_error(capsys, argv, family, key):
    # the ml kind is the bare token only, and no pair stands in for a flag
    assert run(capsys, *argv) == (2, "", f"error: {family!r} takes no parameter {key!r}\n")


def test_config_shared_across_subcommands_keeps_working(capsys, tmp_path):
    # seed, sample and construction are fcc-verify flags, size and dist
    # bounds flags, none of them a table flag; each reads the keys it has
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("k=6\nt=1\nconstruction=1\nseed=3\nsample=50\nsize=4\ndist=2\n")
    code, out, _ = run(capsys, "fcc-verify", "--function", "wt", "--config", str(cfg), "--json")
    assert code == 0 and json.loads(out)["mode"] == "sampled"
    code, out, _ = run(capsys, "bounds", "--method", "gv", "--matrix", "dwt", "--config", str(cfg))
    assert (code, out) == run(
        capsys, "bounds", "--method", "gv", "--matrix", "dwt", "--k", "6", "--t", "1",
    )[:2]
    assert run(capsys, "table", "--function", "wt", "--config", str(cfg))[0] == 0


@pytest.mark.parametrize("argv", [
    ["table", "--function", "wt", "--T", "3", "--t", "1"],
    ["fcc-build", "--function", "wt", "--k", "6", "--T", "3", "--t", "1",
     "--construction", "1", "--out", "x.txt"],
    ["simulate", "--function", "wt", "--k", "6", "--w", "3", "--t", "1", "--construction", "1"],
    ["fcc-verify", "--function", "delta_T", "--k", "8", "--T", "3", "--l", "5", "--t", "1",
     "--construction", "2"],
    ["fcc-build", "--function", "wt", "--k", "6", "--T", "3", "--t", "1", "--construction", "auto"],
    ["table", "--function", "binary", "--T", "3", "--t", "1"],
    # without --function, the named construction's family counts
    ["fcc-build", "--construction", "1", "--k", "6", "--T", "3", "--t", "1", "--out", "x.txt"],
    ["simulate", "--construction", "wt-cycle", "--k", "6", "--w", "3", "--t", "1"],
    ["fcc-verify", "--construction", "2", "--k", "8", "--T", "3", "--l", "5", "--t", "1"],
    # an oracle's kind names its family
    ["oracle", "--kind", "ml", "--ml-kind", "sigmoid", "--k", "5", "--eps", "1", "--t", "1",
     "--T", "7"],
    ["oracle", "--kind", "minmax", "--w", "3", "--l", "3", "--T", "5"],
], ids=["table", "build", "simulate", "verify", "auto", "binary", "construction-build",
        "construction-simulate", "construction-verify", "oracle-ml", "oracle-minmax"])
def test_a_spec_flag_the_family_does_not_take_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and not (tmp_path / "x.txt").exists()
    assert len(err.strip().splitlines()) == 1 and "takes no parameter" in err


@pytest.mark.parametrize("text", ["ml:sigmoid,k=4,eps=1,a=4,b=-4", "ml:tanh_derivative,k=4,eps=1,a=-2"])
def test_an_empty_ml_interval_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "table", "--function", text, "--t", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "is empty" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["table", "--function", "ml:relu,k=4,eps=1,a=1,b=2", "--t", "1"], "relu has no interval"),
    (["table", "--function", "ml:relu,k=4,eps=1", "--a", "1", "--t", "1"],
     "relu has no interval"),
    (["table", "--function", "ml:tanh_derivative,k=4,eps=1,a=1,b=3", "--t", "1"], "one cutoff"),
    (["oracle", "--kind", "ml", "--ml-kind", "relu", "--k", "4", "--eps", "1", "--t", "1",
      "--a", "1"], "relu has no interval"),
], ids=["relu-pairs", "relu-flag", "symmetric-pairs", "oracle-relu"])
def test_an_ml_interval_the_kind_cannot_take_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and message in err


def test_the_ml_oracle_reads_a_symmetric_cutoff_from_a(capsys):
    # the cutoff 3 leaves 4 values at k=4, eps=1; the default cutoff 6 leaves 7
    argv = ["oracle", "--kind", "ml", "--ml-kind", "tanh_derivative", "--k", "4",
            "--eps", "1", "--t", "1"]
    assert run_json(capsys, *argv)[1] == {"dim": 7, "match": True}
    assert run_json(capsys, *argv, "--a", "3")[1] == {"dim": 4, "match": True}


def test_a_numeric_flag_agrees_with_an_equal_pair(capsys, tmp_path):
    argv = ["fcc-verify", "--function", "ml:tanh,k=6,eps=3/5", "--t", "1"]
    assert run(capsys, *argv, "--eps", "0.6")[:2] == (0, "OK\n")
    assert run(capsys, *argv, "--eps", "0.5") == (
        2, "", "error: --eps 0.5 contradicts eps=3/5 in 'ml:tanh,k=6,eps=3/5'\n")
    enc = tmp_path / "ml.txt"
    run(capsys, "fcc-build", *argv[1:], "--out", str(enc))
    assert run(capsys, "fcc-verify", "--encoder", str(enc), "--eps", "0.6")[:2] == (0, "OK\n")


def test_an_encoder_header_names_the_family_whose_flags_count(capsys, tmp_path):
    enc = tmp_path / "enc.txt"
    run(capsys, "fcc-build", "--function", "wt", "--k", "6", "--t", "1", "--out", str(enc))
    code, out, err = run(capsys, "fcc-verify", "--encoder", str(enc), "--T", "3")
    assert (code, out) == (2, "") and "'wt' takes no parameter 'T'" in err
    assert run(capsys, "fcc-verify", "--encoder", str(enc), "--k", "6")[:2] == (0, "OK\n")


def test_a_flag_must_agree_with_the_encoder_header_values(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["wt", "--k", "8", "--construction", "1", "--out", "w8.txt"],
                 ["delta_T", "--k", "8", "--T", "5", "--construction", "2", "--out", "d8.txt"],
                 ["ml:tanh,k=6,eps=3/5", "--out", "ml.txt"]):
        assert run(capsys, "fcc-build", "--t", "1", "--function", *argv)[0] == 0
    for argv, message in [
        (["fcc-verify", "--encoder", "w8.txt", "--k", "9"], "--k 9 contradicts k=8 in 'wt:k=8'"),
        (["simulate", "--encoder", "w8.txt", "--k", "5"], "--k 5 contradicts k=8 in 'wt:k=8'"),
        (["fcc-verify", "--encoder", "d8.txt", "--T", "4"],
         "--T 4 contradicts T=5 in 'delta_T:k=8,T=5'"),
        (["fcc-verify", "--encoder", "ml.txt", "--eps", "1"],
         "--eps 1 contradicts eps=3/5 in 'ml:tanh,k=6,eps=3/5'"),
    ]:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    # flags that agree with the header are accepted, and a given t still wins
    assert run(capsys, "fcc-verify", "--encoder", "d8.txt", "--k", "8", "--T", "5")[:2] == (0, "OK\n")
    assert run(capsys, "fcc-verify", "--encoder", "w8.txt", "--k", "8", "--t", "2")[0] == 1
    # a function header without k takes the file's `# k:`
    Path("wk.txt").write_text(Path("w8.txt").read_text().replace("wt:k=8", "wt"))
    assert run(capsys, "fcc-verify", "--encoder", "wk.txt")[:2] == (0, "OK\n")
    assert run(capsys, "fcc-verify", "--encoder", "wk.txt", "--k", "8")[:2] == (0, "OK\n")
    assert run(capsys, "fcc-verify", "--encoder", "wk.txt", "--k", "4") == (
        2, "", "error: --k 4 contradicts k=8 in 'wt'\n")


def test_the_ml_oracle_builds_one_spec(capsys, monkeypatch):
    built = []
    ml_spec = functions.ml_spec
    monkeypatch.setattr(functions, "ml_spec", lambda *a: built.append(a) or ml_spec(*a))
    argv = ["oracle", "--kind", "ml", "--ml-kind", "sigmoid", "--k", "5", "--eps", "1", "--t", "1"]
    assert run(capsys, *argv) == (0, "MATCH dim=22\n", "")
    assert len(built) == 1


def test_a_blank_line_before_the_headers_still_names_the_family(capsys, tmp_path):
    # the flag check reads the headers as the encoder reader does, so a
    # leading blank line cannot hide the family from it
    enc, blank = tmp_path / "w.txt", tmp_path / "wb.txt"
    run(capsys, "fcc-build", "--function", "wt", "--k", "6", "--t", "1", "--construction", "1",
        "--out", str(enc))
    blank.write_text("\n" + enc.read_text())
    assert run(capsys, "fcc-verify", "--encoder", str(blank))[:2] == (0, "OK\n")
    code, out, err = run(capsys, "fcc-verify", "--encoder", str(blank), "--T", "3")
    assert (code, out) == (2, "") and err.strip() == "error: 'wt' takes no parameter 'T'"


def test_a_config_key_the_family_does_not_take_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("T=3\nw=3\n")
    argv = ["fcc-build", "--function", "wt", "--k", "6", "--t", "1"]
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == run(capsys, *argv)[:2] and code == 0
    code, out, _ = run(capsys, "fcc-build", "--function", "wt", "--t", "1", "--construction",
                       "1", "--k", "6", "--config", str(cfg))
    assert code == 0 and out.startswith("# fcodes encoder v1")


@pytest.mark.parametrize("function, flags", [
    ("delta_T:T=0,k=4", []),
    ("delta_T", ["--T", "0"]),
    ("minmax", ["--w", "-3"]),
    ("minmax", ["--w", "3", "--l", "1"]),
], ids=["inline-T0", "flag-T0", "negative-w", "l1"])
def test_table_rejects_parameters_its_family_rejects(capsys, function, flags):
    code, out, err = run(capsys, "table", "--function", function, *flags, "--t", "1")
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and " row needs " in err


@pytest.mark.parametrize("w, l, expected", [(4, 3, 0), (5, 3, 0), (4, 2, 1)])
def test_oracle_minmax_claims_beyond_three_blocks(capsys, w, l, expected):
    code, out, _ = run(capsys, "oracle", "--kind", "minmax", "--w", str(w), "--l", str(l), "--json")
    assert code == expected
    assert json.loads(out)["claims_hold"] is (expected == 0)


def test_oracle_minmax_checks_k_as_the_minmax_function_does(capsys, monkeypatch):
    argv = ["oracle", "--kind", "minmax", "--w", "3", "--l", "3"]
    assert run(capsys, *argv, "--k", "10") == (2, "", "error: k=10 inconsistent with w*l=9\n")
    assert run(capsys, "table", "--function", "minmax", *argv[3:], "--k", "10", "--t", "1")[2] == (
        "error: k=10 inconsistent with w*l=9\n")
    built = []
    minmax_spec = functions.minmax_spec
    monkeypatch.setattr(functions, "minmax_spec", lambda *a: built.append(a) or minmax_spec(*a))
    assert run(capsys, *argv, "--k", "9") == run(capsys, *argv) and run(capsys, *argv)[0] == 0
    assert built == [(3, 3)] * 3  # one spec per call


def test_oracle_minmax_rejects_a_zero_budget(capsys):
    code, out, err = run(capsys, "oracle", "--kind", "minmax", "--w", "3", "--l", "2", "--t", "0")
    assert (code, out) == (2, "") and len(err.strip().splitlines()) == 1


# every subcommand: a call that succeeds, and a value it cannot do without
_CALLS = {
    "bounds": (["--method", "plotkin", "--matrix", "dwt", "--k", "4", "--t", "1"], "--k"),
    "build-code": (["--kind", "exact", "--matrix", "dwt", "--k", "3", "--t", "1"], "--k"),
    "fcc-build": (["--function", "wt", "--k", "4", "--t", "1"], "--t"),
    "fcc-verify": (["--function", "wt", "--k", "4", "--t", "1"], "--t"),
    "fcc-encode": (["--function", "wt", "--k", "4", "--t", "1", "--u", "1010"], "--t"),
    "fcc-decode": (["--function", "wt", "--k", "4", "--t", "1", "--y", "1010000"], "--t"),
    "simulate": (["--function", "wt", "--k", "4", "--t", "1"], "--t"),
    "table": (["--function", "wt", "--k", "4", "--t", "1"], "--t"),
    "oracle": (["--kind", "minmax", "--w", "3", "--l", "2"], "--w"),
}
_ENCODER = "# fcodes encoder v1\n# function: wt\n# k: 4\n# t: 1\n# r: 3\n# mode: per-function-value\n"
_GARBAGE_FILES = {
    "config.cfg": "k=4\nt 1\n",  # a line without '='
    "list.json": "[[0,1],[1,0]]",
    "rows.json": '{"rows": 3}',
    "null.json": '{"entries": null}',
    "five.json": "5",
    "float.json": '{"entries": [[0,1.5],[1.5,0]]}',
    "empty.json": "",
    "text.json": "dim: 2\n",
    "header.txt": _ENCODER.replace("# k: 4", "# k: four") + "000\n" * 5,
    "no-mode.txt": _ENCODER.replace("# mode: per-function-value\n", "") + "000\n" * 5,
    "bits.txt": _ENCODER + "000\n01x\n" + "000\n" * 3,
}
_BAD_FUNCTIONS = ["nosuch:k=4", "wt:k=3,k=4", "wt:k=four", "wt:k=4,bogus=1", "ml:sigmoid,tanh,k=4"]


def _garbage_calls():
    """(id, argv) pairs: each good call with one value missing or one garbage
    input appended (argparse keeps the last of a repeated flag)."""
    for sub, (argv, needed) in _CALLS.items():
        at = argv.index(needed)
        yield f"{sub} without {needed}", [sub, *argv[:at], *argv[at + 2:]]
        yield f"{sub} config", [sub, *argv, "--config", "config.cfg"]
        takes_matrix = sub in ("bounds", "build-code")
        if takes_matrix:  # a matrix file reads no --k or --t, so these calls leave them out
            keep = [*argv[:at], *argv[at + 2:]]
            keep = keep[:keep.index("--t")] + keep[keep.index("--t") + 2:]
            for name in ("list", "rows", "null", "five", "float", "empty", "text"):
                yield f"{sub} {name}.json", [sub, *keep, "--matrix", "file",
                                              "--file", f"{name}.json"]
        if sub not in ("oracle",):
            source = ["--matrix", "function"] if takes_matrix else []
            for text in _BAD_FUNCTIONS:
                yield f"{sub} {text}", [sub, *argv, *source, "--function", text]
        if sub.startswith("fcc-") or sub == "simulate":
            for name in ("header", "no-mode", "bits"):
                yield f"{sub} {name}.txt", [sub, *argv, "--encoder", f"{name}.txt"]
    yield "fcc-encode bad bits", ["fcc-encode", *_CALLS["fcc-encode"][0], "--u", "10x0"]
    yield "fcc-decode bad bits", ["fcc-decode", *_CALLS["fcc-decode"][0], "--y", "10x0000"]


def test_every_good_fuzz_call_succeeds(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for sub, (argv, _) in _CALLS.items():
        code, out, _ = run(capsys, sub, *argv)
        assert code == 0 and out, sub


@pytest.mark.parametrize("argv", [argv for _, argv in _garbage_calls()],
                         ids=[name for name, _ in _garbage_calls()])
def test_missing_or_garbage_input_is_one_line_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in _GARBAGE_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert "--file" not in argv or "matrix JSON" in err


def _readme_command_lines() -> list[list[str]]:
    """The `fcodes ...` lines of README's Command line block, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("fcodes ")]


def test_readme_config_key_list_names_every_value_flag():
    # the keys listed after "under the flag's name": every value flag but
    # the ones the parser requires
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    listed = text.split("under the flag's name", 1)[1].split("`_`:", 1)[1]
    listed = listed.split("The flags the parser requires", 1)[0]
    keys = re.findall(r"`(\w+)`", listed)
    assert len(keys) == len(set(keys))
    assert set(keys) == cli._flag_dests() - {"method", "kind", "u", "y"}


def test_every_readme_command_prints_one_json_payload_with_its_elapsed_time(
    capsys, tmp_path, monkeypatch
):
    # in order, since later lines read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert len(lines) >= 30
    for argv in lines:
        code = run(capsys, *argv)[0]
        json_code, out, _ = run(capsys, *argv, "--json")
        assert json_code == code, argv
        (line,) = out.splitlines()
        payload = json.loads(line)
        assert isinstance(payload, dict) and payload["stats"]["elapsed_s"] >= 0, argv
