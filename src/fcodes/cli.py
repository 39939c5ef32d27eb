"""Command-line driver for bounds, code building, encoders, and experiments.

Exit codes: 0 = success / property verified, 1 = property violated (failed
verification, simulation failures, impossible build),
2 = usage or budget problems. Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import time
from fractions import Fraction

from . import bounds, construct, fcc, functions, tables
from .bits import BitWord, Code, DistanceMatrix
from .simulate import ChannelModel, SimulationReport, simulate

# --construction 1-4 name the first four entries of the table: wt-cycle,
# delta-ramp, minmax-spc, minmax-rm
_CONSTRUCTION_ALIASES = dict(zip("1234", tables.CONSTRUCTIONS))


def _trace(line: str) -> None:
    """One --trace progress line, on stderr as it happens."""
    print(line, file=sys.stderr, flush=True)


def _load_config(path: str) -> dict[str, str]:
    """Read key=value lines (or a JSON object) of default parameters."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return {str(key): str(val) for key, val in json.loads(text).items()}
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


# values of the flags that have one when neither the command line nor the
# config names them
_DEFAULTS = {
    "matrix": "dwt", "max_length": "16", "max_nodes": "2000000", "time_limit": "30.0",
    "construction": "auto", "seed": "0", "channel": "exhaustive", "trials": "1000",
}
# the parameters a registry string may take from the flags
_SPEC_KEYS = ("k", "T", "w", "l", "eps", "a", "b", "path")


def _params(args) -> dict[str, str]:
    """Every value of one call, keyed by flag dest: the defaults, then the
    --config file, then the key=value pairs of the call's function (see
    `_function`), then explicit flags; and, for a subcommand with an
    --encoder flag, the text of the file it names under `encoder_text`, read
    once. A config key that is no flag of any subcommand, a flag that
    contradicts one of those pairs, and a flag that a `bounds` or
    `build-code` call does not read (see `_reads`) are usage errors."""
    params = dict(_DEFAULTS)
    if args.config is not None:
        config = _load_config(args.config)
        unknown = sorted(set(config) - _flag_dests())
        if unknown:
            raise ValueError(f"config key {unknown[0]!r} names no value flag of any subcommand")
        params.update(config)
    flags = {
        key: str(val)
        for key, val in vars(args).items()
        if val is not None and not isinstance(val, bool) and key not in ("command", "func")
    }
    merged = {**params, **flags}
    if "encoder" in merged and "encoder" in vars(args):
        if "construction" in flags:
            raise ValueError("--encoder takes no --construction")
        with open(merged["encoder"], "r", encoding="utf-8") as fh:
            params["encoder_text"] = merged["encoder_text"] = fh.read()
    text, pairs = _function(args.command, merged)
    for key, val in pairs.items():
        if key in flags and not _same_value(key, flags[key], val):
            raise ValueError(f"{_flag(key)} {flags[key]} contradicts {key}={val} in {text!r}")
    params.update(pairs)
    params.update(flags)
    switches = {key for key, val in vars(args).items() if val is True}
    reads = _reads(args.command, params, {*flags, *switches})
    if text and (reads is None or "function" in reads):
        # an explicit spec flag is held to the family's keys like a pair
        params["function"] = text
        family = fcc.parse_spec_string(text)[0]
        fcc.check_spec_pairs(family, set(_SPEC_KEYS) & set(flags), tables.row_keys(family))
    return params


def _same_value(key: str, flag: str, pair: str) -> bool:
    """Whether a flag says what a pair says: numbers by value (`--eps 0.6`
    is `eps=3/5`), a path as written."""
    if flag == pair or key == "path":
        return flag == pair
    try:
        return Fraction(flag) == Fraction(pair)
    except (ValueError, ZeroDivisionError):  # a number that does not parse says nothing
        return False


# matrix source -> the flags it reads besides --matrix; a function matrix's
# spec flags are then held to its family's keys
_MATRIX_READS = {"dwt": {"k", "t"}, "file": {"file"}, "function": {"function", "t", *_SPEC_KEYS}}


def _reads(command: str, params: dict[str, str], flags: set[str]) -> set[str] | None:
    """The flags a `bounds` or `build-code` call reads: its method's values
    (`_BOUNDS`) or its kind's (`_KINDS`, and --out), where "matrix" adds what
    the matrix source reads (`_MATRIX_READS`), and --json. A matrix source
    not in `_MATRIX_READS` is a usage error, and so is any other flag in
    `flags` (the dests given, value or on/off), named with the option that
    decides: --matrix for a flag some matrix source reads, else --method or
    --kind. None for any other command, whose function decides."""
    if command not in ("bounds", "build-code"):
        return None
    name = "method" if command == "bounds" else "kind"
    values = _BOUNDS[params[name]][1] if command == "bounds" else (*_KINDS[params[name]], "out")
    keys, owner = {name, "config", "json", *values}, f"--{name} {params[name]}"
    if "matrix" in values:
        if params["matrix"] not in _MATRIX_READS:
            raise ValueError(f"unknown matrix source {params['matrix']!r}")
        keys |= _MATRIX_READS[params["matrix"]]
    extra = sorted(flags - keys)
    if extra and "matrix" in values and extra[0] in {"file", *_MATRIX_READS["function"]}:
        owner = f"--matrix {params['matrix']}"
    if extra:
        raise ValueError(f"{owner} takes no {_flag(extra[0])}")
    return keys


def _function(command: str, params: dict[str, str]) -> tuple[str | None, dict[str, str]]:
    """The registry string a call is about, and its key=value pairs: the
    first that names one of --function (the flag, then the config), then,
    for an encoder, the `# function:` header of the --encoder file (whose
    `# k:` fills a k the string leaves out) and the named construction's. A
    key the string's family does not take is a usage error here, before any
    pair can stand in for a flag."""
    text, pairs = params.get("function"), {}
    if text is None and command not in ("bounds", "build-code"):  # an encoder's function
        name = _CONSTRUCTION_ALIASES.get(params["construction"], params["construction"])
        text = tables.CONSTRUCTIONS[name][0] if name in tables.CONSTRUCTIONS else None
        if "encoder" in params:  # the reader's own headers
            headers = fcc.encoder_headers(params["encoder_text"])[0]
            text, pairs = headers.get("function"), {"k": headers["k"]} if "k" in headers else {}
    if not text:
        return text, {}
    family, own = fcc.parse_spec_string(text)
    if family == "binary" or family in fcc.registered_spec_names():  # else its build fails
        fcc.check_spec_pairs(family, own, tables.row_keys(family))
    return text, {**pairs, **own}


def _flag(name: str) -> str:
    return "--in" if name == "infile" else "--" + name.replace("_", "-")


def _need(params: dict[str, str], name: str, cast=str):
    """The value of `name` as `cast` makes it; a missing one names its flag."""
    if name not in params:
        raise ValueError(f"missing {_flag(name)}")
    return cast(params[name])


def _spec(params: dict[str, str]) -> fcc.FunctionSpec:
    """The spec --function names, its missing keys taken from the flags."""
    return fcc.spec_from_string(_need(params, "function"), defaults=_spec_params(params))


def _spec_params(params: dict[str, str]) -> dict[str, str]:
    return {key: params[key] for key in _SPEC_KEYS if key in params}


def _matrix(params: dict[str, str]) -> DistanceMatrix:
    source = params["matrix"]
    if source == "file":
        with open(_need(params, "file"), "r", encoding="utf-8") as fh:
            return DistanceMatrix.from_json(fh.read())
    t = _need(params, "t", int)
    if source == "dwt":
        return functions.wt_requirement_matrix(_need(params, "k", int), t)
    # function, the last source `_reads` admits
    return fcc.function_distance_matrix(_spec(params), t)


def _written(text: str, out: str | None) -> str:
    """The stdout text of a file a command makes: `text`, or nothing when
    --out names where it goes (written here, in either mode). It is
    rewritten in place, as truncating it to zero makes ext4 flush it on
    close, and cut only where it was a regular file (not /dev/null) longer
    than the new text, by the one `fstat` made at opening."""
    if out is None:
        return text
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    was = os.fstat(fd)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(was.st_mode) and was.st_size > fh.tell():
            fh.truncate()
    return ""


# --- subcommands -------------------------------------------------------------

# what each subcommand returns: (exit code, JSON payload, stdout text). It
# prints no result itself; `main` prints the payload under --json, else the
# text. Diagnostics and --trace lines go to stderr as they happen.
_Result = tuple[int, dict, str]

# method -> (name of the `bounds` function, the values it takes), where
# "matrix" is the requirement matrix; looked up when called, so the function
# can be replaced at run time
_BOUNDS = {
    "plotkin": ("plotkin_irregular", ("matrix",)),
    "plotkin-regular": ("plotkin_regular", ("size", "dist")),
    "gv": ("gv_threshold_and_order", ("matrix",)),
    "hadamard": ("hadamard_upper", ("size", "dist")),
    "gv-closed": ("gv_regular_closed_form", ("size", "dist")),
    "sandwich": ("sandwich", ("matrix",)),
    "wt-lower": ("wt_lower_bound", ("t",)),
    "minmax-lower": ("minmax_lower_bound", ("w", "t")),
    "minmax-sp": ("minmax_sphere_packing_bound", ("w", "t")),
    "minmax-gv": ("minmax_gv_upper", ("w", "t")),
    "ecc-data": ("ecc_on_data_redundancy", ("k", "t")),
    "ecc-values": ("ecc_on_function_values_redundancy", ("image_size", "t")),
}


def _bound_output(res) -> tuple[dict, str]:
    """Payload and text of a BoundResult, a (lower, upper) pair of them, a
    plain length, or None for a bound that does not apply."""
    if res is None:
        return {"value": None}, "not-applicable"
    if isinstance(res, int):
        return {"value": res}, str(res)
    if isinstance(res, tuple):
        lo, hi = res
        return {"lower": lo.to_json_dict(), "upper": hi.to_json_dict()}, f"lower {lo}  upper {hi}"
    return res.to_json_dict(), str(res)


def cmd_bounds(args, params: dict[str, str]) -> _Result:
    name, needs = _BOUNDS[params["method"]]
    values = [_matrix(params)] if "matrix" in needs else [_need(params, n, int) for n in needs]
    res = getattr(bounds, name)(*values)
    # gv's result is (length, row order), and the length bounds N
    payload, text = _bound_output(res[0] if params["method"] == "gv" else res)
    return 0, payload, text + "\n"


def _built(code: Code, out: str | None, header: str) -> _Result:
    """A built code's result: its words, and its file unless --out takes it."""
    payload = {"length": code.length, "code": [str(w) for w in code]}
    return 0, payload, _written(code.to_text(header), out)


def _not_built(message: str, length: int | None = None) -> _Result:
    """A build that found no code: exit 1, its message on stderr."""
    print(message, file=sys.stderr)
    return 1, {"length": length, "code": None}, ""


CODE_BUDGET_BITS = 1 << 20  # the most bits, words times their length, that build-code lists


def _listable(size: str, bits: int) -> None:
    """Refuse, before any word is listed, a code of `bits` bits (words
    times their length), `size` in words, beyond CODE_BUDGET_BITS."""
    if bits > CODE_BUDGET_BITS:
        raise ValueError(f"the code holds {size}, over build-code's budget of "
                         f"{CODE_BUDGET_BITS} bits (words times their length)")


# kind -> the flags `build-code --kind` takes besides --out and --json, where
# "matrix" is the requirement matrix
_KINDS = {
    "greedy": ("matrix", "length"),
    "exact": ("matrix", "max_length", "max_nodes", "time_limit", "row_symmetry", "trace"),
    "hadamard": ("dist",),
    "reed-muller": ("rm_order", "log_length"),
    "even-weight": ("count", "length"),
    "replicate": ("infile", "factor"),
}


def cmd_build_code(args, params: dict[str, str]) -> _Result:
    kind, out = params["kind"], params.get("out")
    if kind == "greedy":
        dmat = _matrix(params)
        r, order = bounds.gv_threshold_and_order(dmat)
        if "length" in params:
            r = int(params["length"])
        else:
            print(f"using gv threshold length r={r}", file=sys.stderr)
        code = construct.greedy_irregular_code(dmat, r, order)
        if code is None:
            return _not_built(f"greedy build failed at length {r}", r)
        return _built(code, out, f"greedy code, r={r}")
    if kind == "exact":
        dmat = _matrix(params)
        budget = construct.SearchBudget(
            max_length=_need(params, "max_length", int),
            max_nodes=_need(params, "max_nodes", int),
            time_limit=_need(params, "time_limit", float),
        )
        started = time.perf_counter()
        result = construct.exact_min_length(
            dmat, budget, use_row_symmetry=args.row_symmetry, trace=_trace if args.trace else None
        )
        searched = time.perf_counter() - started  # for the search's own rate
        status = "proven" if result.proven else "budget exhausted (lower bound)"
        text = f"N = {result.value} ({status}, {result.nodes} nodes)\n"
        payload = {"value": result.value, "proven": result.proven, "nodes": result.nodes}
        if result.code is not None:
            payload["code"] = [str(w) for w in result.code]
            text += _written(result.code.to_text("exact witness"), out)
        payload["stats"] = {
            "nodes": result.nodes,
            "nodes_per_s": round(result.nodes / searched, 1) if searched else 0.0,
            "refute_nodes": result.refute_nodes,
            "confirm_nodes": result.nodes - result.refute_nodes,
        }
        return (0 if result.proven else 2), payload, text
    if kind == "hadamard":
        dist = _need(params, "dist", int)
        if dist < 1:
            raise ValueError(f"need --dist >= 1, got {dist}")
        _listable(f"{4 * dist} words of {2 * dist} bits", 8 * dist * dist)
        code = construct.hadamard_code(dist)
        if code is None:
            return _not_built(f"no Sylvester order for distance {dist}")
        return _built(code, out, f"hadamard-derived code, distance {dist}")
    if kind == "reed-muller":
        order, m = _need(params, "rm_order", int), _need(params, "log_length", int)
        if 0 <= order <= m:  # else reed_muller_code names the bad pair
            dim = sum(math.comb(m, i) for i in range(order + 1))
            # 2^dim words of 2^m bits, counted no further than 2^64: the budget is far below
            _listable(f"2^{dim} words of 2^{m} bits", 1 << min(dim + m, 64))
        return _built(construct.reed_muller_code(order, m), out, f"RM({order},{m})")
    if kind == "even-weight":
        count, length = _need(params, "count", int), _need(params, "length", int)
        _listable(f"{count} words of {length} bits", count * length)
        return _built(construct.even_weight_subcode(count, length), out, "even-weight subcode")
    # replicate, the last of --kind's choices
    with open(_need(params, "infile"), "r", encoding="utf-8") as fh:
        code = Code.from_text(fh.read())
    factor = _need(params, "factor", int)
    _listable(f"{code.size} words of {code.length * factor} bits", code.size * code.length * factor)
    return _built(construct.replicate_bits(code, factor), out, f"replicated x{factor}")


def _resolve_encoder(params: dict[str, str]) -> tuple[str | None, fcc.FccEncoder]:
    """Encoder from --encoder file, or built from --function by the
    --construction named (`auto`, or an entry of `tables.CONSTRUCTIONS`), and
    the construction that built it (None for a file; `auto` names the one
    `tables.best_construction` picks, the only one it builds)."""
    if "encoder" in params:
        spec = _spec(params) if "function" in params else None
        encoder = fcc.encoder_from_text(params["encoder_text"], spec)
        # a given t outranks the t stored in the file, so a code built for
        # one budget can be checked against a stronger adversary
        if "t" in params and int(params["t"]) != encoder.t:
            encoder = fcc.FccEncoder(encoder.spec, int(params["t"]), encoder.r, encoder.words,
                                     encoder.message_key)
        return None, encoder
    name = _CONSTRUCTION_ALIASES.get(params["construction"], params["construction"])
    t = _need(params, "t", int)
    if name == "auto":
        name, _, build = tables.best_construction(_spec(params), t)
        return name, build()
    if name not in tables.CONSTRUCTIONS:
        raise ValueError(f"unknown construction {params['construction']!r}")
    expected = tables.CONSTRUCTIONS[name][0]
    family = fcc.parse_spec_string(_need(params, "function"))[0]
    if expected not in (None, family):
        raise ValueError(f"construction {name!r} protects {expected!r}, not {family!r}")
    return name, tables.build_construction(name, _spec(params), t)


def cmd_fcc_build(args, params: dict[str, str]) -> _Result:
    out = params.get("out")
    if args.json and out is None:
        raise ValueError("--json needs --out: without it stdout carries the encoder file")
    construction, encoder = _resolve_encoder(params)
    text = _written(fcc.encoder_to_text(encoder), out)
    if out is not None:
        print(
            f"encoder: k={encoder.spec.k} t={encoder.t} r={encoder.r} "
            f"mode={encoder.mode} -> {out}",
            file=sys.stderr,
        )
    return 0, {"k": encoder.spec.k, "t": encoder.t, "r": encoder.r, "mode": encoder.mode,
               "out": out, "construction": construction}, text


def cmd_fcc_verify(args, params: dict[str, str]) -> _Result:
    encoder = _resolve_encoder(params)[1]
    sample = int(params["sample"]) if "sample" in params else None
    started = time.perf_counter()
    result = fcc.verify_fcc(encoder, sample=sample, seed=_need(params, "seed", int))
    if args.trace:
        _trace(f"route={result.route} pairs_checked={result.pairs_checked} "
               f"elapsed_s={time.perf_counter() - started:.6f}")
    payload = {"ok": result.ok, "pairs_checked": result.pairs_checked, "mode": result.mode,
               "route": result.route}
    if result.witness:
        payload["witness"] = [str(w) for w in result.witness]
    if result.ok:  # a sample proves nothing, so its OK names the route and count
        return 0, payload, f"OK (sampled: {result.pairs_checked} pairs checked)\n" if sample else "OK\n"
    if result.witness is None:  # proven on the classes above k = 14, where no kernel runs
        return 1, payload, "VIOLATION (proven on the classes; no witness searched within budget)\n"
    u1, u2 = result.witness
    return 1, payload, f"VIOLATION u1={u1} u2={u2}\n"


def cmd_fcc_encode(args, params: dict[str, str]) -> _Result:
    codeword = _resolve_encoder(params)[1].encode(BitWord.from_string(params["u"]))
    return 0, {"codeword": str(codeword)}, f"{codeword}\n"


def cmd_fcc_decode(args, params: dict[str, str]) -> _Result:
    encoder = _resolve_encoder(params)[1]
    result = fcc.decode(encoder, BitWord.from_string(params["y"]))
    label = encoder.spec.value_label(result.value)
    suffix = "  (out of model)" if result.out_of_model else ""
    payload = {"value": label, "out_of_model": result.out_of_model, "distance": result.distance}
    return 0, payload, f"{label}{suffix}\n"


def cmd_simulate(args, params: dict[str, str]) -> _Result:
    encoder = _resolve_encoder(params)[1]
    t = int(params["channel_t"]) if "channel_t" in params else encoder.t
    seed, trials = _need(params, "seed", int), _need(params, "trials", int)
    channel = ChannelModel(t=t, mode=params["channel"], seed=seed, trials=trials)
    started = time.perf_counter()
    report = simulate(encoder, channel, trace=_trace if args.trace else None)
    if args.trace:
        _trace(f"trials={report.trials} failures={report.failures} "
               f"decodes={report.decodes} elapsed_s={time.perf_counter() - started:.6f}")
    text = f"trials={report.trials} failures={report.failures} mode={report.mode}\n"
    if report.witness:  # name its values as fcc-decode does
        u, pattern, got, expected = report.witness
        got, expected = encoder.spec.value_label(got), encoder.spec.value_label(expected)
        report = SimulationReport(report.trials, report.failures, (u, pattern, got, expected),
                                  report.mode, report.seed, report.decodes, report.route)
        text += f"first failure: u={u} pattern={pattern} decoded={got} expected={expected}\n"
    payload = report.to_json_dict()
    payload["stats"] = {"trials": report.trials, "decodes": report.decodes, "route": report.route}
    return (0 if report.failures == 0 else 1), payload, text


def cmd_table(args, params: dict[str, str]) -> _Result:
    row = tables.table_row(params["function"], _need(params, "t", int), _spec_params(params))
    return 0, row.to_json_dict(), f"{tables.render_header()}\n{row.render()}\n"


# --- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--config", help="key=value or JSON file with default parameters")


def _add_spec_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="message length")
    p.add_argument("--t", type=int, help="substitution budget")
    p.add_argument("--T", type=int, help="weight block size (delta_T)")
    p.add_argument("--w", type=int, help="number of blocks (minmax)")
    p.add_argument("--l", type=int, help="block length (minmax)")
    p.add_argument("--eps", help="quantizer step (ml)")
    p.add_argument("--a", help="interval start override (ml)")
    p.add_argument("--b", help="interval end override (ml)")
    p.add_argument("--path", help="code file (indicator)")


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--matrix",
        choices=["dwt", "function", "file"],
        help="requirement matrix source",
    )
    p.add_argument("--file", help="matrix JSON file (with --matrix file)")
    p.add_argument("--function", help="registry string (with --matrix function)")


def _add_encoder_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--encoder", help="encoder file written by fcc-build")
    p.add_argument("--function", help="registry string, e.g. wt or delta_T:T=3")
    alias = {name: a for a, name in _CONSTRUCTION_ALIASES.items()}
    p.add_argument(
        "--construction",
        help=f"auto (the least r of {', '.join(tables.AUTO_ORDER)} and the greedy build, "
        "where each applies) | "
        + " | ".join(f"{name}/{alias[name]}" if name in alias else name
                     for name in tables.CONSTRUCTIONS),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcodes",
        description="function-correcting codes: bounds, constructions, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate a bound")
    p.add_argument("--method", required=True, choices=list(_BOUNDS))
    _add_matrix_source(p)
    _add_spec_params(p)
    p.add_argument("--size", type=int, help="number of words M")
    p.add_argument("--dist", type=int, help="common distance requirement D")
    p.add_argument("--image-size", type=int, help="function image size E")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build-code", help="construct a code")
    p.add_argument("--kind", required=True, choices=list(_KINDS))
    _add_matrix_source(p)
    _add_spec_params(p)
    p.add_argument("--length", type=int, help="code length (greedy/even-weight)")
    p.add_argument("--max-length", type=int)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--row-symmetry", action="store_true")
    p.add_argument("--trace", action="store_true", help="stream exact-search progress to stderr")
    p.add_argument("--dist", type=int, help="distance (hadamard)")
    p.add_argument("--rm-order", type=int, help="Reed-Muller order")
    p.add_argument("--log-length", type=int, help="Reed-Muller m (length 2^m)")
    p.add_argument("--count", type=int, help="number of words (even-weight)")
    p.add_argument("--in", dest="infile", help="input code file (replicate)")
    p.add_argument("--factor", type=int, help="replication factor")
    p.add_argument("--out", help="write the code here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("fcc-build", help="build and serialize an encoder")
    _add_encoder_source(p)
    _add_spec_params(p)
    p.add_argument("--out", help="write the encoder here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_fcc_build)

    p = sub.add_parser("fcc-verify", help="check the distance condition")
    _add_encoder_source(p)
    _add_spec_params(p)
    p.add_argument("--sample", type=int, help="sampled pairs instead of exhaustive")
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", action="store_true", help="print the route, pairs and time to stderr")
    _add_common(p)
    p.set_defaults(func=cmd_fcc_verify)

    p = sub.add_parser("fcc-encode", help="encode a message")
    _add_encoder_source(p)
    _add_spec_params(p)
    p.add_argument("--u", required=True, help="message bits")
    _add_common(p)
    p.set_defaults(func=cmd_fcc_encode)

    p = sub.add_parser("fcc-decode", help="decode a received word")
    _add_encoder_source(p)
    _add_spec_params(p)
    p.add_argument("--y", required=True, help="received bits (length k+r)")
    _add_common(p)
    p.set_defaults(func=cmd_fcc_decode)

    p = sub.add_parser("simulate", help="run the substitution channel")
    _add_encoder_source(p)
    _add_spec_params(p)
    p.add_argument("--channel", choices=["exhaustive", "random"])
    p.add_argument("--channel-t", type=int, help="channel error budget (default: encoder t)")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--trace", action="store_true", help="print the route and totals to stderr")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table", help="one redundancy comparison row")
    p.add_argument("--function", required=True, help="binary | wt | delta_T | minmax | registry string")
    _add_spec_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process (parsing leaves it
    unchanged)."""
    return build_parser()


@functools.cache
def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    (sub,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@functools.cache
def _flag_dests() -> frozenset[str]:
    """The dest of every value flag (not on/off, not --config) of every
    subcommand: the keys a config may set, so one config can serve several."""
    return frozenset(
        a.dest for p in _subparsers().values() for a in p._actions
        if a.nargs != 0 and a.dest != "config"
    )


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand, parsed once, by its own parser; only an argv that
    names no subcommand gets the full parser's usage and help. Under --json
    its payload goes to stdout as one JSON line, with `stats.elapsed_s`
    timing the call from the end of parsing; else its text does. A usage
    error prints one `error:` line to stderr and exits 2."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _subparsers():
        args = _subparsers()[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, payload, text = args.func(args, _params(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload["stats"] = {"elapsed_s": round(time.perf_counter() - started, 6),
                            **payload.get("stats", {})}
        print(json.dumps(payload))
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
