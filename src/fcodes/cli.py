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

from . import bounds, construct, fcc, functions, tables
from .bits import BitWord, Code, DistanceMatrix
from .simulate import ChannelModel, simulate

_CONSTRUCTION_ALIASES = {
    "1": "wt-cycle",
    "2": "delta-ramp",
    "3": "minmax-spc",
    "4": "minmax-rm",
    "value-table": "auto",
}


def _fail(message: str, code: int = 2) -> int:
    print(message, file=sys.stderr)
    return code


def _trace(line: str) -> None:
    """One --trace progress line, on stderr as it happens."""
    print(line, file=sys.stderr, flush=True)


def _load_config(path: str | None) -> dict[str, str]:
    """Read key=value lines (or a JSON object) of default parameters."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        return {str(key): str(val) for key, val in data.items()}
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


def _spec_defaults(args, config: dict[str, str]) -> dict[str, str]:
    """Merge CLI flags over config-file values into registry parameters."""
    merged = dict(config)
    for key in ("k", "T", "w", "l", "eps", "a", "b", "path"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = str(val)
    return merged


def _get_param(args, config: dict[str, str], name: str, cast, required=True):
    val = getattr(args, name, None)
    if val is None and name in config:
        val = cast(config[name])
    if val is None and required:
        raise ValueError(f"missing --{name}")
    return val


def _required(args, what: str, *names: str) -> tuple:
    """Values of the flags (argparse dests) that `what` cannot run without."""
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--in" if n == "infile" else "--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"{what} needs {flags}")
    return tuple(getattr(args, n) for n in names)


def _function_string_params(text: str | None) -> dict[str, str]:
    """key=value parameters carried inside a registry string like wt:k=6."""
    if not text or ":" not in text:
        return {}
    out: dict[str, str] = {}
    for token in text.partition(":")[2].split(","):
        if "=" in token:
            key, _, val = token.partition("=")
            out[key.strip()] = val.strip()
    return out


def _matrix_from_args(args, config: dict[str, str]) -> DistanceMatrix:
    source = args.matrix
    if source == "file":
        if not args.file:
            raise ValueError("--matrix file needs --file")
        with open(args.file, "r", encoding="utf-8") as fh:
            return DistanceMatrix.from_json(fh.read())
    t = _get_param(args, config, "t", int)
    if source == "dwt":
        k = _get_param(args, config, "k", int)
        return functions.wt_requirement_matrix(k, t)
    if source == "function":
        if not args.function:
            raise ValueError("--matrix function needs --function")
        spec = fcc.spec_from_string(args.function, defaults=_spec_defaults(args, config))
        return fcc.function_distance_matrix(spec, t)
    raise ValueError(f"unknown matrix source {source!r}")


def _emit_code(code: Code, out: str | None, header: str | None = None) -> None:
    text = code.to_text(header)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------


def cmd_bounds(args) -> int:
    config = _load_config(args.config)
    method = args.method

    def show(res: bounds.BoundResult | None) -> int:
        if res is None:
            print("not-applicable")
            return 0
        if args.json:
            print(json.dumps(res.to_json_dict()))
        else:
            print(str(res))
        return 0

    if method == "plotkin":
        return show(bounds.plotkin_irregular(_matrix_from_args(args, config)))
    if method == "plotkin-regular":
        return show(
            bounds.plotkin_regular(*_required(args, "--method plotkin-regular", "size", "dist"))
        )
    if method == "gv":
        dmat = _matrix_from_args(args, config)
        order = bounds.heuristic_row_order(dmat) if args.order == "heuristic" else None
        r = bounds.gv_irregular_threshold(dmat, order)
        print(json.dumps({"value": r}) if args.json else r)
        return 0
    if method == "hadamard":
        return show(bounds.hadamard_upper(*_required(args, "--method hadamard", "size", "dist")))
    if method == "gv-closed":
        return show(
            bounds.gv_regular_closed_form(*_required(args, "--method gv-closed", "size", "dist"))
        )
    if method == "sandwich":
        lo, hi = bounds.sandwich(_matrix_from_args(args, config))
        if args.json:
            print(json.dumps({"lower": lo.to_json_dict(), "upper": hi.to_json_dict()}))
        else:
            print(f"lower {lo}  upper {hi}")
        return 0
    t = _get_param(args, config, "t", int)
    if method == "wt-lower":
        return show(bounds.wt_lower_bound(t))
    if method == "minmax-lower":
        return show(bounds.minmax_lower_bound(_get_param(args, config, "w", int), t))
    if method == "minmax-sp":
        return show(bounds.minmax_sphere_packing_bound(_get_param(args, config, "w", int), t))
    if method == "minmax-gv":
        r = bounds.minmax_gv_upper(_get_param(args, config, "w", int), t)
        print(json.dumps({"value": r}) if args.json else r)
        return 0
    if method == "ecc-data":
        r = bounds.ecc_on_data_redundancy(_get_param(args, config, "k", int), t)
        print(json.dumps({"value": r}) if args.json else r)
        return 0
    if method == "ecc-values":
        (size,) = _required(args, "--method ecc-values", "image_size")
        r = bounds.ecc_on_function_values_redundancy(size, t)
        print(json.dumps({"value": r}) if args.json else r)
        return 0
    raise ValueError(f"unknown method {method!r}")


def cmd_build_code(args) -> int:
    config = _load_config(args.config)
    kind = args.kind
    if kind == "greedy":
        dmat = _matrix_from_args(args, config)
        order = bounds.heuristic_row_order(dmat) if args.order == "heuristic" else None
        r = args.length
        if r is None:
            r = bounds.gv_irregular_threshold(dmat, order)
            print(f"using gv threshold length r={r}", file=sys.stderr)
        code = construct.greedy_irregular_code(dmat, r, order)
        if code is None:
            return _fail(f"greedy build failed at length {r}", 1)
        _emit_code(code, args.out, f"greedy code, r={r}")
        return 0
    if kind == "exact":
        dmat = _matrix_from_args(args, config)
        budget = construct.SearchBudget(
            max_length=args.max_length,
            max_nodes=args.max_nodes,
            time_limit=args.time_limit,
        )
        started = time.perf_counter()
        result = construct.exact_min_length(
            dmat, budget, use_row_symmetry=args.row_symmetry, trace=_trace if args.trace else None
        )
        elapsed = time.perf_counter() - started
        if args.json:
            payload = {
                "value": result.value,
                "proven": result.proven,
                "nodes": result.nodes,
            }
            if result.code is not None:
                payload["code"] = [str(w) for w in result.code]
            payload["stats"] = {"elapsed_s": round(elapsed, 6), "nodes": result.nodes}
            print(json.dumps(payload))
        else:
            status = "proven" if result.proven else "budget exhausted (lower bound)"
            print(f"N = {result.value} ({status}, {result.nodes} nodes)")
            if result.code is not None:
                _emit_code(result.code, args.out, "exact witness")
        return 0 if result.proven else 2
    if kind == "hadamard":
        (dist,) = _required(args, "--kind hadamard", "dist")
        code = construct.hadamard_code(dist)
        if code is None:
            return _fail(f"no Sylvester order for distance {dist}", 1)
        _emit_code(code, args.out, f"hadamard-derived code, distance {dist}")
        return 0
    if kind == "reed-muller":
        order, m = _required(args, "--kind reed-muller", "rm_order", "log_length")
        _emit_code(construct.reed_muller_code(order, m), args.out, f"RM({order},{m})")
        return 0
    if kind == "even-weight":
        code = construct.even_weight_subcode(
            *_required(args, "--kind even-weight", "count", "length")
        )
        _emit_code(code, args.out, "even-weight subcode")
        return 0
    if kind == "replicate":
        path, factor = _required(args, "--kind replicate", "infile", "factor")
        with open(path, "r", encoding="utf-8") as fh:
            code = Code.from_text(fh.read())
        _emit_code(construct.replicate_bits(code, factor), args.out, f"replicated x{factor}")
        return 0
    raise ValueError(f"unknown kind {kind!r}")


def _resolve_encoder(args, config: dict[str, str]) -> fcc.FccEncoder:
    """Encoder from --encoder file, or built from --function/--construction."""
    if getattr(args, "encoder", None):
        with open(args.encoder, "r", encoding="utf-8") as fh:
            spec = None
            if getattr(args, "function", None):
                spec = fcc.spec_from_string(
                    args.function, defaults=_spec_defaults(args, config)
                )
            encoder = fcc.encoder_from_text(fh.read(), spec)
        # an explicit --t outranks the t stored in the file, so a code built
        # for one budget can be checked against a stronger adversary
        if getattr(args, "t", None) is not None and args.t != encoder.t:
            encoder = dataclasses.replace(encoder, t=args.t)
        return encoder
    # parameters named inside --function (e.g. delta_T:k=8,T=3) outrank the
    # config file; explicit flags outrank both
    config = {**config, **_function_string_params(getattr(args, "function", None))}
    t = _get_param(args, config, "t", int)
    name = _CONSTRUCTION_ALIASES.get(args.construction, args.construction)
    family = (args.function or "").partition(":")[0]

    def need_function(expected: str):
        if args.function and family != expected:
            raise ValueError(
                f"construction {name!r} protects {expected!r}, not {family!r}"
            )

    if name == "wt-cycle":
        need_function("wt")
        return functions.wt_cyclic_encoder(_get_param(args, config, "k", int), t)
    if name == "delta-ramp":
        need_function("delta_T")
        return functions.delta_ramp_encoder(
            _get_param(args, config, "k", int), _get_param(args, config, "T", int), t
        )
    if name in ("minmax-spc", "minmax-rm"):
        need_function("minmax")
        w = _get_param(args, config, "w", int)
        l = _get_param(args, config, "l", int)
        k = _get_param(args, config, "k", int, required=False)
        if k is not None and k != w * l:
            raise ValueError(f"k={k} inconsistent with w*l={w * l}")
        if name == "minmax-spc":
            return functions.minmax_parity_encoder(w, l, t)
        return functions.minmax_rm_encoder(w, t, l)
    if not args.function:
        raise ValueError("need --function (or --encoder)")
    spec = fcc.spec_from_string(args.function, defaults=_spec_defaults(args, config))
    if name == "locally-binary":
        return functions.locally_binary_encoder(spec, t)
    if name == "auto":
        return fcc.build_function_value_encoder(spec, t)
    raise ValueError(f"unknown construction {args.construction!r}")


def cmd_fcc_build(args) -> int:
    config = _load_config(args.config)
    encoder = _resolve_encoder(args, config)
    text = fcc.encoder_to_text(encoder)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"encoder: k={encoder.spec.k} t={encoder.t} r={encoder.r} "
            f"mode={encoder.mode} -> {args.out}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_fcc_verify(args) -> int:
    config = _load_config(args.config)
    encoder = _resolve_encoder(args, config)
    if args.sample is None and encoder.spec.k > fcc.EXHAUSTIVE_MAX_K:
        raise ValueError(
            f"k={encoder.spec.k} too large for exhaustive verification; pass --sample N"
        )
    started = time.perf_counter()
    result = fcc.verify_fcc(encoder, sample=args.sample, seed=args.seed)
    elapsed = time.perf_counter() - started
    if args.trace:
        _trace(f"route={result.route} pairs_checked={result.pairs_checked} elapsed_s={elapsed:.6f}")
    if args.json:
        payload = {"ok": result.ok, "pairs_checked": result.pairs_checked, "mode": result.mode}
        if result.witness:
            payload["witness"] = [str(w) for w in result.witness]
        payload["stats"] = {"elapsed_s": round(elapsed, 6), "pairs_checked": result.pairs_checked}
        print(json.dumps(payload))
    elif result.ok:
        print("OK")
    else:
        u1, u2 = result.witness
        print(f"VIOLATION u1={u1} u2={u2}")
    return 0 if result.ok else 1


def cmd_fcc_encode(args) -> int:
    config = _load_config(args.config)
    encoder = _resolve_encoder(args, config)
    u = BitWord.from_string(args.u)
    print(encoder.encode(u))
    return 0


def cmd_fcc_decode(args) -> int:
    config = _load_config(args.config)
    encoder = _resolve_encoder(args, config)
    y = BitWord.from_string(args.y)
    result = fcc.decode(encoder, y)
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


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    encoder = _resolve_encoder(args, config)
    t = args.channel_t if args.channel_t is not None else encoder.t
    channel = ChannelModel(t=t, mode=args.channel, seed=args.seed, trials=args.trials)
    messages = None
    if args.messages != "all":
        head, _, count = args.messages.partition(":")
        if head != "sample" or not count.isdigit() or int(count) < 1:
            raise ValueError(f"--messages must be 'all' or 'sample:N', N >= 1, got {args.messages!r}")
        rng = random.Random(args.seed)
        k = encoder.spec.k
        messages = [BitWord(rng.randrange(1 << k), k) for _ in range(int(count))]
    started = time.perf_counter()
    report = simulate(encoder, channel, messages, trace=_trace if args.trace else None)
    elapsed = time.perf_counter() - started
    if args.trace:
        _trace(f"trials={report.trials} failures={report.failures} "
               f"decodes={report.decodes} elapsed_s={elapsed:.6f}")
    if args.json:
        payload = report.to_json_dict()
        payload["stats"] = {
            "elapsed_s": round(elapsed, 6), "trials": report.trials, "decodes": report.decodes
        }
        print(json.dumps(payload))
    else:
        print(f"trials={report.trials} failures={report.failures} mode={report.mode}")
        if report.witness:
            u, pattern, got, expected = report.witness
            print(f"first failure: u={u} pattern={pattern} decoded={got} expected={expected}")
    return 0 if report.failures == 0 else 1


def cmd_table(args) -> int:
    config = _load_config(args.config)
    params = _spec_defaults(args, config)
    t = _get_param(args, config, "t", int)
    row = tables.table_row(args.function, t, params)
    if args.json:
        print(json.dumps(row.to_json_dict()))
    else:
        print(tables.render_header())
        print(row.render())
    return 0


def cmd_oracle(args) -> int:
    config = _load_config(args.config)
    if args.kind == "minmax":
        w = _get_param(args, config, "w", int)
        l = _get_param(args, config, "l", int)
        t = _get_param(args, config, "t", int, required=False) or 1
        oracle = functions.minmax_distance_oracle(w, l)
        dists = oracle.distances
        e = dists.dim
        swaps_ok = True
        for i in range(e):
            for j in range(e):
                if i == j:
                    continue
                vi, vj = oracle.spec.image[i], oracle.spec.image[j]
                swapped = (
                    vi.argmin_index == vj.argmax_index
                    and vi.argmax_index == vj.argmin_index
                )
                if swapped != (dists.at(i, j) == 2):
                    swaps_ok = False
        max_ok = dists.max_entry == 2
        counts_ok = all(c == 4 * (w - 2) for c in oracle.neighbor_counts)
        req = fcc.function_distance_matrix(oracle.spec, t)
        total_2t = sum(
            1 for i in range(e) for j in range(e) if i != j and req.at(i, j) == 2 * t
        )
        total_ok = total_2t == 4 * w * (w - 1) * (w - 2)
        ok = swaps_ok and max_ok and counts_ok and total_ok
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
    if args.kind == "ml":
        t = _get_param(args, config, "t", int)
        k = _get_param(args, config, "k", int)
        eps = Fraction(_get_param(args, config, "eps", str))
        lo = Fraction(args.a) if args.a else None
        hi = Fraction(args.b) if args.b else None
        kind = functions.ml_kind(args.ml_kind, lo, hi)
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
    raise ValueError(f"unknown oracle kind {args.kind!r}")


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
        default="dwt",
        help="requirement matrix source",
    )
    p.add_argument("--file", help="matrix JSON file (with --matrix file)")
    p.add_argument("--function", help="registry string (with --matrix function)")


def _add_encoder_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--encoder", help="encoder file written by fcc-build")
    p.add_argument("--function", help="registry string, e.g. wt or delta_T:T=3")
    p.add_argument(
        "--construction",
        default="auto",
        help="auto | wt-cycle/1 | delta-ramp/2 | minmax-spc/3 | minmax-rm/4 | locally-binary",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcodes",
        description="function-correcting codes: bounds, constructions, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate a bound")
    p.add_argument(
        "--method",
        required=True,
        choices=[
            "plotkin",
            "plotkin-regular",
            "gv",
            "hadamard",
            "gv-closed",
            "sandwich",
            "wt-lower",
            "minmax-lower",
            "minmax-sp",
            "minmax-gv",
            "ecc-data",
            "ecc-values",
        ],
    )
    _add_matrix_source(p)
    _add_spec_params(p)
    p.add_argument("--size", type=int, help="number of words M")
    p.add_argument("--dist", type=int, help="common distance requirement D")
    p.add_argument("--image-size", type=int, help="function image size E")
    p.add_argument("--order", choices=["id", "heuristic"], default="id")
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
    p.add_argument("--order", choices=["id", "heuristic"], default="id")
    p.add_argument("--max-length", type=int, default=16)
    p.add_argument("--max-nodes", type=int, default=2_000_000)
    p.add_argument("--time-limit", type=float, default=30.0)
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--channel", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--channel-t", type=int, help="channel error budget (default: encoder t)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--messages", default="all", help="all | sample:N")
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
