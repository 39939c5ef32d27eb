"""Command-line driver for bounds, code building, encoders, and experiments.

Exit codes: 0 = success / property verified, 1 = property violated (failed
verification, simulation failures, oracle mismatch, impossible build),
2 = usage or budget problems. Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
import time
from fractions import Fraction
from itertools import takewhile

from . import bounds, construct, fcc, functions, tables
from .bits import BitWord, Code, DistanceMatrix
from .simulate import ChannelModel, simulate

_CONSTRUCTION_ALIASES = {
    "1": "wt-cycle",
    "2": "delta-ramp",
    "3": "minmax-spc",
    "4": "minmax-rm",
}


def _fail(message: str, code: int = 2) -> int:
    print(message, file=sys.stderr)
    return code


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
    "matrix": "dwt", "order": "id", "max_length": "16", "max_nodes": "2000000",
    "time_limit": "30.0", "construction": "auto", "seed": "0", "channel": "exhaustive",
    "trials": "1000", "messages": "all",
}
# the parameters a registry string may take from the flags
_SPEC_KEYS = ("k", "T", "w", "l", "eps", "a", "b", "path")


def _params(args) -> dict[str, str]:
    """Every value of one call, keyed by flag dest: the defaults, then the
    --config file, then the key=value pairs inside --function, then explicit
    flags. A config key that is no flag of any subcommand, a flag that
    contradicts a --function pair, and a spec flag the family does not take
    are usage errors."""
    params = dict(_DEFAULTS)
    if args.config is not None:
        config = _load_config(args.config)
        unknown = sorted(set(config) - _flag_dests())
        if unknown:
            raise ValueError(f"config key {unknown[0]!r} names no flag of any subcommand")
        params.update(config)
    flags = {
        key: str(val)
        for key, val in vars(args).items()
        if val is not None and not isinstance(val, bool) and key not in ("command", "func")
    }
    text = flags.get("function", params.get("function"))
    if text:
        pairs = fcc.parse_spec_string(text)[1]
        for key, val in pairs.items():
            if flags.get(key, val) != val:
                raise ValueError(f"{_flag(key)} {flags[key]} contradicts {key}={val} in {text!r}")
        params.update(pairs)
    params.update(flags)
    family = _family(args.command, params)
    if family:  # an explicit spec flag is held to the family's keys like a pair
        fcc.check_spec_pairs(family, set(_SPEC_KEYS) & set(flags), tables.row_keys(family))
    return params


def _family(command: str, params: dict[str, str]) -> str | None:
    """The family of the spec a call builds: --function's, else the one the
    `# function:` header of the --encoder file names, else the one the named
    construction protects; None if it builds none."""
    matrix_only = command in ("bounds", "build-code") and params["matrix"] != "function"
    if command == "oracle" or matrix_only:
        return None
    text = params.get("function")
    if text is None and "encoder" in params:
        with open(params["encoder"], "r", encoding="utf-8") as fh:  # headers come first
            headers = [line[1:].partition(":") for line in takewhile(lambda s: s[:1] == "#", fh)]
        text = next((val for key, _, val in headers if key.strip() == "function"), None)
    elif text is None:
        name = _CONSTRUCTION_ALIASES.get(params["construction"], params["construction"])
        return _CONSTRUCTIONS[name][0] if name in _CONSTRUCTIONS else None
    return fcc.parse_spec_string(text)[0] if text else None


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
    if source == "function":
        return fcc.function_distance_matrix(_spec(params), t)
    raise ValueError(f"unknown matrix source {source!r}")


def _row_order(params: dict[str, str], dmat: DistanceMatrix) -> list[int] | None:
    if params["order"] not in ("id", "heuristic"):
        raise ValueError(f"unknown order {params['order']!r}")
    return bounds.heuristic_row_order(dmat) if params["order"] == "heuristic" else None


def _emit_code(code: Code, out: str | None, header: str | None = None) -> None:
    text = code.to_text(header)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------

# method -> (name of the `bounds` function, the values it takes), where
# "matrix" is the requirement matrix and "order" its row order; looked up
# when called, so the function can be replaced at run time
_BOUNDS = {
    "plotkin": ("plotkin_irregular", ("matrix",)),
    "plotkin-regular": ("plotkin_regular", ("size", "dist")),
    "gv": ("gv_irregular_threshold", ("matrix", "order")),
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


def _print_bound(res, as_json: bool) -> None:
    """A BoundResult, a (lower, upper) pair of them, a plain length, or
    None for a bound that does not apply."""
    if res is None:
        print("not-applicable")
    elif isinstance(res, int):
        print(json.dumps({"value": res}) if as_json else res)
    elif isinstance(res, tuple):
        lo, hi = res
        if as_json:
            print(json.dumps({"lower": lo.to_json_dict(), "upper": hi.to_json_dict()}))
        else:
            print(f"lower {lo}  upper {hi}")
    else:
        print(json.dumps(res.to_json_dict()) if as_json else res)


def cmd_bounds(args, params: dict[str, str]) -> int:
    name, needs = _BOUNDS[params["method"]]
    if "matrix" in needs:
        dmat = _matrix(params)
        values = [dmat, _row_order(params, dmat)] if "order" in needs else [dmat]
    else:
        values = [_need(params, n, int) for n in needs]
    _print_bound(getattr(bounds, name)(*values), args.json)
    return 0


def cmd_build_code(args, params: dict[str, str]) -> int:
    kind, out = params["kind"], params.get("out")
    if kind == "greedy":
        dmat = _matrix(params)
        order = _row_order(params, dmat)
        if "length" in params:
            r = int(params["length"])
        else:
            r = bounds.gv_irregular_threshold(dmat, order)
            print(f"using gv threshold length r={r}", file=sys.stderr)
        code = construct.greedy_irregular_code(dmat, r, order)
        if code is None:
            return _fail(f"greedy build failed at length {r}", 1)
        _emit_code(code, out, f"greedy code, r={r}")
        return 0
    if kind == "exact":
        dmat = _matrix(params)
        budget = construct.SearchBudget(
            max_length=_need(params, "max_length", int),
            max_nodes=_need(params, "max_nodes", int),
            time_limit=_need(params, "time_limit", float),
        )
        tries: list[int] = []  # nodes spent when each length was tried

        def on_line(line: str) -> None:
            if line.startswith("try r="):
                tries.append(int(line.rsplit("nodes=", 1)[1]))
            if args.trace:
                _trace(line)

        started = time.perf_counter()
        result = construct.exact_min_length(
            dmat, budget, use_row_symmetry=args.row_symmetry, trace=on_line
        )
        elapsed = time.perf_counter() - started
        refute = tries[-1] if tries else 0
        if args.json:
            payload = {
                "value": result.value,
                "proven": result.proven,
                "nodes": result.nodes,
            }
            if result.code is not None:
                payload["code"] = [str(w) for w in result.code]
            payload["stats"] = {
                "elapsed_s": round(elapsed, 6),
                "nodes": result.nodes,
                "nodes_per_s": round(result.nodes / elapsed, 1) if elapsed else 0.0,
                "refute_nodes": refute,
                "confirm_nodes": result.nodes - refute,
            }
            print(json.dumps(payload))
        else:
            status = "proven" if result.proven else "budget exhausted (lower bound)"
            print(f"N = {result.value} ({status}, {result.nodes} nodes)")
            if result.code is not None:
                _emit_code(result.code, out, "exact witness")
        return 0 if result.proven else 2
    if kind == "hadamard":
        dist = _need(params, "dist", int)
        code = construct.hadamard_code(dist)
        if code is None:
            return _fail(f"no Sylvester order for distance {dist}", 1)
        _emit_code(code, out, f"hadamard-derived code, distance {dist}")
        return 0
    if kind == "reed-muller":
        order, m = _need(params, "rm_order", int), _need(params, "log_length", int)
        _emit_code(construct.reed_muller_code(order, m), out, f"RM({order},{m})")
        return 0
    if kind == "even-weight":
        count, length = _need(params, "count", int), _need(params, "length", int)
        _emit_code(construct.even_weight_subcode(count, length), out, "even-weight subcode")
        return 0
    if kind == "replicate":
        with open(_need(params, "infile"), "r", encoding="utf-8") as fh:
            code = Code.from_text(fh.read())
        factor = _need(params, "factor", int)
        _emit_code(construct.replicate_bits(code, factor), out, f"replicated x{factor}")
        return 0
    raise ValueError(f"unknown kind {kind!r}")


# construction -> (the family it protects, name of the `functions` builder,
# the values it takes)
_CONSTRUCTIONS = {
    "wt-cycle": ("wt", "wt_cyclic_encoder", ("k", "t")),
    "delta-ramp": ("delta_T", "delta_ramp_encoder", ("k", "T", "t")),
    "minmax-spc": ("minmax", "minmax_parity_encoder", ("w", "l", "t")),
    "minmax-rm": ("minmax", "minmax_rm_encoder", ("w", "t", "l")),
}


def _resolve_encoder(params: dict[str, str]) -> fcc.FccEncoder:
    """Encoder from --encoder file, or built from --function/--construction."""
    if "encoder" in params:
        with open(params["encoder"], "r", encoding="utf-8") as fh:
            spec = _spec(params) if "function" in params else None
            encoder = fcc.encoder_from_text(fh.read(), spec)
        # a given t outranks the t stored in the file, so a code built for
        # one budget can be checked against a stronger adversary
        if "t" in params and int(params["t"]) != encoder.t:
            encoder = dataclasses.replace(encoder, t=int(params["t"]))
        return encoder
    name = _CONSTRUCTION_ALIASES.get(params["construction"], params["construction"])
    if name in _CONSTRUCTIONS:
        expected, builder, needs = _CONSTRUCTIONS[name]
        family = fcc.parse_spec_string(params.get("function", expected))[0]
        if family != expected:
            raise ValueError(f"construction {name!r} protects {expected!r}, not {family!r}")
        values = [_need(params, n, int) for n in needs]
        if expected == "minmax" and "k" in params:
            w_l = _need(params, "w", int) * _need(params, "l", int)
            if int(params["k"]) != w_l:
                raise ValueError(f"k={params['k']} inconsistent with w*l={w_l}")
        return getattr(functions, builder)(*values)
    t = _need(params, "t", int)
    if name == "locally-binary":
        return functions.locally_binary_encoder(_spec(params), t)
    if name == "auto":
        return fcc.build_function_value_encoder(_spec(params), t)
    raise ValueError(f"unknown construction {params['construction']!r}")


def cmd_fcc_build(args, params: dict[str, str]) -> int:
    encoder = _resolve_encoder(params)
    text = fcc.encoder_to_text(encoder)
    if "out" in params:
        with open(params["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"encoder: k={encoder.spec.k} t={encoder.t} r={encoder.r} "
            f"mode={encoder.mode} -> {params['out']}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_fcc_verify(args, params: dict[str, str]) -> int:
    encoder = _resolve_encoder(params)
    sample = int(params["sample"]) if "sample" in params else None
    if sample is None and encoder.spec.k > fcc.EXHAUSTIVE_MAX_K:
        raise ValueError(
            f"k={encoder.spec.k} too large for exhaustive verification; pass --sample N"
        )
    started = time.perf_counter()
    result = fcc.verify_fcc(encoder, sample=sample, seed=_need(params, "seed", int))
    elapsed = time.perf_counter() - started
    if args.trace:
        _trace(f"route={result.route} pairs_checked={result.pairs_checked} elapsed_s={elapsed:.6f}")
    if args.json:
        payload = {"ok": result.ok, "pairs_checked": result.pairs_checked, "mode": result.mode,
                   "route": result.route}
        if result.witness:
            payload["witness"] = [str(w) for w in result.witness]
        payload["stats"] = {"elapsed_s": round(elapsed, 6), "pairs_checked": result.pairs_checked,
                            "route": result.route}
        print(json.dumps(payload))
    elif result.ok:
        print("OK")
    else:
        u1, u2 = result.witness
        print(f"VIOLATION u1={u1} u2={u2}")
    return 0 if result.ok else 1


def cmd_fcc_encode(args, params: dict[str, str]) -> int:
    encoder = _resolve_encoder(params)
    print(encoder.encode(BitWord.from_string(params["u"])))
    return 0


def cmd_fcc_decode(args, params: dict[str, str]) -> int:
    encoder = _resolve_encoder(params)
    result = fcc.decode(encoder, BitWord.from_string(params["y"]))
    label = encoder.spec.value_label(result.value)
    if args.json:
        print(
            json.dumps(
                {
                    "value": label,
                    "out_of_model": result.out_of_model,
                    "distance": result.distance,
                }
            )
        )
    else:
        suffix = "  (out of model)" if result.out_of_model else ""
        print(f"{label}{suffix}")
    return 0


def cmd_simulate(args, params: dict[str, str]) -> int:
    encoder = _resolve_encoder(params)
    t = int(params["channel_t"]) if "channel_t" in params else encoder.t
    seed, trials = _need(params, "seed", int), _need(params, "trials", int)
    channel = ChannelModel(t=t, mode=params["channel"], seed=seed, trials=trials)
    messages, wanted = None, params["messages"]
    if wanted != "all":
        head, _, count = wanted.partition(":")
        if head != "sample" or not count.isdigit() or int(count) < 1:
            raise ValueError(f"--messages must be 'all' or 'sample:N', N >= 1, got {wanted!r}")
        rng = random.Random(seed)
        k = encoder.spec.k
        messages = [BitWord(rng.randrange(1 << k), k) for _ in range(int(count))]
    started = time.perf_counter()
    report = simulate(encoder, channel, messages, trace=_trace if args.trace else None)
    elapsed = time.perf_counter() - started
    if report.witness:  # name its values as fcc-decode does
        u, pattern, got, expected = report.witness
        label = encoder.spec.value_label
        report = dataclasses.replace(report, witness=(u, pattern, label(got), label(expected)))
    if args.trace:
        _trace(f"trials={report.trials} failures={report.failures} "
               f"decodes={report.decodes} elapsed_s={elapsed:.6f}")
    if args.json:
        payload = report.to_json_dict()
        payload["stats"] = {
            "elapsed_s": round(elapsed, 6), "trials": report.trials,
            "decodes": report.decodes, "route": report.route,
        }
        print(json.dumps(payload))
    else:
        print(f"trials={report.trials} failures={report.failures} mode={report.mode}")
        if report.witness:
            u, pattern, got, expected = report.witness
            print(f"first failure: u={u} pattern={pattern} decoded={got} expected={expected}")
    return 0 if report.failures == 0 else 1


def cmd_table(args, params: dict[str, str]) -> int:
    t = _need(params, "t", int)
    row = tables.table_row(params["function"], t, _spec_params(params))
    if args.json:
        print(json.dumps(row.to_json_dict()))
    else:
        print(tables.render_header())
        print(row.render())
    return 0


def cmd_oracle(args, params: dict[str, str]) -> int:
    if params["kind"] == "minmax":
        w, l = _need(params, "w", int), _need(params, "l", int)
        oracle = functions.minmax_distance_oracle(w, l)
        ok = oracle.claims_hold(int(params.get("t", 1)))
        dists = oracle.distances
        if args.json:
            print(
                json.dumps(
                    {
                        "w": w,
                        "l": l,
                        "distances": [list(r) for r in dists.entries],
                        "neighbor_counts": list(oracle.neighbor_counts),
                        "claims_hold": ok,
                    }
                )
            )
        else:
            print(f"min-max value distances (w={w}, l={l}):")
            for row_entries in dists.entries:
                print("  " + " ".join(str(x) for x in row_entries))
            print(f"distance-1 neighbors per value: {list(oracle.neighbor_counts)}")
            print(f"claims {'hold' if ok else 'VIOLATED'}")
        return 0 if ok else 1
    if params["kind"] == "ml":
        t, k = _need(params, "t", int), _need(params, "k", int)
        eps = _need(params, "eps", Fraction)
        kind = functions.ml_kind_from_pairs(_need(params, "ml_kind"), params.get("a"),
                                            params.get("b"))
        q = functions.Quantizer(k, eps)
        lemma = functions.ml_distance_matrix(kind, q, t)
        spec = functions.ml_spec(kind, q)
        generic = fcc.function_distance_matrix(spec, t)
        match = lemma.entries == generic.entries
        if args.json:
            print(json.dumps({"dim": lemma.dim, "match": match}))
        else:
            print(f"{'MATCH' if match else 'MISMATCH'} dim={lemma.dim}")
        return 0 if match else 1
    raise ValueError(f"unknown oracle kind {params['kind']!r}")


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
    p.add_argument(
        "--construction",
        help="auto | wt-cycle/1 | delta-ramp/2 | minmax-spc/3 | minmax-rm/4 | locally-binary",
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
    p.add_argument("--order", choices=["id", "heuristic"])
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build-code", help="construct a code")
    p.add_argument(
        "--kind",
        required=True,
        choices=["greedy", "exact", "hadamard", "reed-muller", "even-weight", "replicate"],
    )
    _add_matrix_source(p)
    _add_spec_params(p)
    p.add_argument("--length", type=int, help="code length (greedy/even-weight)")
    p.add_argument("--order", choices=["id", "heuristic"])
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
    p.add_argument("--messages", help="all | sample:N")
    p.add_argument("--trace", action="store_true", help="print the route and totals to stderr")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table", help="one redundancy comparison row")
    p.add_argument("--function", required=True, help="binary | wt | delta_T | minmax | registry string")
    _add_spec_params(p)
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("oracle", help="structural ground-truth checks")
    p.add_argument("--kind", required=True, choices=["minmax", "ml"])
    _add_spec_params(p)
    p.add_argument("--ml-kind", help="sigmoid | tanh | relu | sigmoid_derivative | tanh_derivative")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built once per process (parsing leaves it
    unchanged)."""
    return build_parser()


@functools.cache
def _flag_dests() -> frozenset[str]:
    """The dest of every flag of every subcommand: the keys a config may set,
    so one config file can serve several subcommands."""
    (sub,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        a.dest for p in sub.choices.values() for a in p._actions if a.dest != "help"
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _params(args))
    except (ValueError, OSError) as exc:
        return _fail(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
