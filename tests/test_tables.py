"""Redundancy table rows across the function families."""

from __future__ import annotations

import importlib.util
import json
import random
import runpy
import sys
from pathlib import Path

import pytest

from fcodes import bounds, cli, construct, fcc, functions, tables
from fcodes.bits import BitWord


def test_binary_rows():
    for t in (1, 2, 3):
        row = tables.table_row("binary", t)
        assert row.lower_bound.value == 2 * t and row.lower_bound.exact
        assert row.fcc_redundancy.value == 2 * t and row.fcc_redundancy.exact
        assert row.ecc_on_function_values.value == 2 * t + 1
        # no k given: the data-route estimate stays symbolic
        assert row.ecc_on_data.text == "t log k*"


@pytest.mark.parametrize("name", ["binary", "parity:k=8", "or:k=8", "delta_T:k=8,T=5", "minmax:w=2"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_a_two_valued_row_sends_its_value_by_repetition(name, t):
    # one bit against t errors takes exactly a 2t+1 repetition
    entry = tables.table_row(name, t).ecc_on_function_values
    assert entry == tables.TableEntry(str(2 * t + 1), 2 * t + 1, True)


@pytest.mark.parametrize("name", ["wt", "binary"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_a_one_bit_message_is_corrected_by_repetition(name, t):
    # correcting one data bit against t errors takes exactly a 2t+1
    # repetition: 2t parity bits, as many as the function route's lower bound
    row = tables.table_row(name, t, {"k": "1"})
    assert row.ecc_on_data == tables.TableEntry(str(2 * t), 2 * t, True)
    assert row.lower_bound.value == 2 * t


def test_binary_row_with_k():
    row = tables.table_row("binary", 1, {"k": "1024"})
    assert row.ecc_on_data.value == 11 and not row.ecc_on_data.exact


def test_wt_rows():
    assert tables.table_row("wt", 1).lower_bound.value == 3
    row = tables.table_row("wt", 2, {"k": "16"})
    assert row.lower_bound.value == 6 and row.fcc_redundancy.value == 6
    # function-value route sees k+1 weights
    assert row.ecc_on_function_values.value is not None


def test_delta_row_wide_blocks():
    row = tables.table_row("delta_T", 1, {"T": "5", "k": "9"})
    assert row.lower_bound.value == 2
    assert row.fcc_redundancy.value == 2 and row.fcc_redundancy.exact


def test_delta_row_narrow_blocks_falls_back():
    # 2t+1 > T: the ramp construction does not apply; with k given the
    # generic builder supplies the achieved redundancy, which is built, so
    # it is exact
    row = tables.table_row("delta_T", 2, {"T": "3", "k": "6"})
    assert row.fcc_redundancy.exact
    assert row.fcc_redundancy.value >= 4


def test_delta_row_requires_T():
    with pytest.raises(ValueError):
        tables.table_row("delta_T", 1)


def test_minmax_row():
    row = tables.table_row("minmax", 1, {"w": "3"})
    assert row.lower_bound.value == 2  # max(2t, ceil(3/2))
    assert row.fcc_redundancy.value == 4 and row.fcc_redundancy.exact


def test_minmax_row_w2_uses_2t_floor():
    row = tables.table_row("minmax", 1, {"w": "2"})
    assert row.lower_bound.value == 2
    assert row.fcc_redundancy.value == 2


def test_redundancy_table_script_gives_k_to_the_free_k_rows_only(capsys, monkeypatch):
    # README's first experiment: binary, wt and delta_T rows take k = 1024,
    # the min-max rows keep their w-only form (their k is w*l)
    script = Path(__file__).resolve().parents[1] / "scripts" / "redundancy_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--k", "1024"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_.value.code == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 10
    for row in rows:
        assert ("ecc-data=t log k*" in row) == row.startswith("minmax")


def test_generic_registry_row():
    row = tables.table_row("parity:k=3", 1)
    assert row.lower_bound.value == 2
    assert row.fcc_redundancy.value == 2  # theorem-2 build achieves 2t here


def test_generic_constant_row_is_all_zero():
    row = tables.table_row("constant:k=4", 2)
    assert row.lower_bound.value == 0
    assert row.fcc_redundancy.value == 0


def test_render_alignment():
    header = tables.render_header()
    assert header.startswith("#")
    line = tables.table_row("binary", 2).render()
    assert "lower=4" in line and "fcc=4" in line


def _random_spec(rng: random.Random) -> fcc.FunctionSpec:
    if rng.random() < 0.5:
        k = rng.randint(1, 4)
        values = rng.randint(2, min(4, 1 << k))
        table = [rng.randrange(values) for _ in range(1 << k)]
        table[:values] = rng.sample(range(values), values)  # every value attained
        return fcc.FunctionSpec(k, table.__getitem__, range(values))
    # indicator of a few random words (0 elsewhere): with the words far apart,
    # the value-level distances cannot all be realised at once
    k = rng.randint(3, 4)
    words = rng.sample(range(1 << k), rng.randint(2, 3))
    table = [0] * (1 << k)
    for v, u in enumerate(words, start=1):
        table[u] = v
    return fcc.FunctionSpec(k, table.__getitem__, range(len(words) + 1))


def test_generic_lower_bound_never_exceeds_exact_optimum():
    rng = random.Random(2021)
    budget = construct.SearchBudget(max_nodes=20_000)
    proven = 0
    for _ in range(200):
        spec = _random_spec(rng)
        t = rng.randint(1, 2)
        row = tables.spec_row(spec, t)
        exact = fcc.exact_optimal_redundancy(spec, t, budget)
        if exact.proven:
            proven += 1
            assert row.lower_bound.value <= exact.value, (spec.k, t, spec.index_table)
        assert row.lower_bound.value <= row.fcc_redundancy.value
    assert proven >= 150


# --- one rule for the achieved r: `table`'s fcc is `auto`'s r -------------------

_RULE_ROWS = [
    *[(["--function", "minmax", "--w", str(w), "--l", str(l)], t)
      for w in (3, 4, 5) for l in (2, 3) for t in (1, 2, 3)],
    *[(["--function", "wt", "--k", str(k)], t) for k in (8, 12, 16) for t in (1, 2, 3)],
    *[(["--function", f"delta_T:k={k},T={T}"], t)
      for k, T, t in ((8, 5, 3), (6, 2, 2), (10, 5, 2), (9, 4, 1), (40, 3, 2))],
    *[(["--function", f], t) for f, t in (("ml:sigmoid,k=6,eps=1", 1), ("ml:sigmoid,k=6,eps=1", 2),
                                          ("ml:relu,k=6,eps=1", 1), ("ml:tanh,k=7,eps=3/10", 2))],
]


def _cli_json(capsys, *argv: str) -> dict:
    assert cli.main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _candidate_rs(spec: fcc.FunctionSpec, t: int) -> dict[str, int]:
    """The r of every construction `auto` may take for `spec`, each built,
    in the order ties go."""
    family = spec.name.partition(":")[0]
    rs = {}
    if family == "wt" and spec.k > t:
        rs["wt-cycle"] = functions.wt_cyclic_encoder(spec, t).r
    if family == "minmax":
        rs["minmax-spc"] = functions.minmax_parity_encoder(spec, t).r
        rs["minmax-rm"] = functions.minmax_rm_encoder(spec, t).r
    rs["greedy"] = fcc.build_function_value_encoder(spec, t).r
    return rs


@pytest.mark.parametrize("function_args, t", _RULE_ROWS,
                         ids=[" ".join(a[1:]) + f" t={t}" for a, t in _RULE_ROWS])
def test_table_fcc_is_the_auto_r_which_is_the_least_candidate_r(capsys, tmp_path, function_args, t):
    path = tmp_path / "auto.txt"
    row = _cli_json(capsys, "table", *function_args, "--t", str(t))
    built = _cli_json(capsys, "fcc-build", *function_args, "--t", str(t), "--out", str(path))
    encoder = fcc.encoder_from_text(path.read_text(encoding="utf-8"))
    rs = _candidate_rs(encoder.spec, t)
    assert row["fcc_redundancy"] == {"text": str(built["r"]), "value": built["r"], "exact": True}
    # the least r, a tie going to the earlier candidate
    assert built["construction"] == min(rs, key=rs.get)
    assert built["r"] == encoder.r == rs[built["construction"]]
    assert row["lower_bound"]["value"] <= built["r"]
    if encoder.spec.k <= 14:
        assert fcc.verify_fcc(encoder).ok


@pytest.mark.parametrize("argv, fcc_text", [
    (["--function", "wt", "--k", "12", "--t", "3"], "fcc=11"),
    (["--function", "minmax", "--w", "4", "--l", "2", "--t", "2"], "fcc=8"),
    (["--function", "delta_T", "--k", "8", "--T", "5", "--t", "3"], "fcc=6"),
])
def test_table_prints_the_built_r_unstarred(capsys, argv, fcc_text):
    assert cli.main(["table", *argv]) == 0
    assert capsys.readouterr().out.split()[-1] == fcc_text


def test_rows_without_k_keep_their_closed_forms():
    assert tables.table_row("wt", 3).fcc_redundancy == tables.TableEntry("14", 14, True)
    assert tables.table_row("minmax", 2, {"w": "4"}).fcc_redundancy.value == 8
    assert tables.table_row("delta_T", 3, {"T": "5"}).fcc_redundancy.text == "needs 2t+1 <= T*"


def _design_jobs() -> list:
    """Every `design` job of seeds 0-3, from perfbench/workloads.py, loaded
    read-only."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    return [job for seed in range(4) for job in workloads.design_jobs(seed, Path("unused"))]


def _design_studies() -> list[tuple[list[str], int]]:
    """(function arguments, t) of every `design` job of seeds 0-3."""
    return [(job.function_args, job.t) for job in _design_jobs()]


def _rule_specs() -> list[tuple[fcc.FunctionSpec, int]]:
    """The spec and t of every _RULE_ROWS row and every `design` study, once
    each; ["--function", f, "--w", "3", ...] is f with defaults {"w": "3"}."""
    studies = {(tuple(args), t) for args, t in _RULE_ROWS + _design_studies()}
    return [(fcc.spec_from_string(args[1], defaults=dict(zip((a[2:] for a in args[2::2]),
                                                               args[3::2]))), t)
            for args, t in sorted(studies)]


def _plotkin_row_lower(spec: fcc.FunctionSpec, t: int) -> int:
    """spec_row's lower bound by its old route: Plotkin over the requirement
    matrix of one representative per value, floored at 2t."""
    if spec.expressiveness < 2:
        return 0
    if spec.weight_index is None:
        firsts = [(m & -m).bit_length() - 1 for m in spec.preimage_masks]
    else:
        firsts = [(1 << spec.weight_index.index(i)) - 1 for i in range(spec.expressiveness)]
    dmat = fcc.distance_requirement_matrix(spec, t, [BitWord(u, spec.k) for u in firsts])
    return max(2 * t, bounds.plotkin_irregular(dmat).integer_value)


def _random_table_spec(rng: random.Random) -> fcc.FunctionSpec:
    """k 1-6 and 2-8 values, each attained."""
    k = rng.randint(1, 6)
    values = rng.randint(2, min(8, 1 << k))
    table = [rng.randrange(values) for _ in range(1 << k)]
    for v, u in enumerate(rng.sample(range(1 << k), values)):
        table[u] = v
    return fcc.FunctionSpec(k, table.__getitem__, range(values))


def test_spec_row_lower_is_plotkin_over_the_representatives(monkeypatch):
    rng = random.Random(38)
    specs = {spec.name: spec for spec, _ in _rule_specs()}
    specs = list(specs.values()) + [fcc.spec_from_string(f"{f}:k={k}")
                                    for f in ("parity", "or") for k in (1, 2, 5, 9)]
    specs += [_random_table_spec(rng) for _ in range(200)]
    cases = [(spec, t) for spec in specs for t in (1, 2, 3)]
    expected = [_plotkin_row_lower(spec, t) for spec, t in cases]
    assert any(lower > 2 * t for lower, (_, t) in zip(expected, cases))

    def refuse(*args, **kwargs):
        raise AssertionError("spec_row built a requirement matrix")

    monkeypatch.setattr(fcc, "distance_requirement_matrix", refuse)
    assert [tables.spec_row(spec, t).lower_bound.value for spec, t in cases] == expected


def test_a_family_row_with_k_prints_the_larger_of_its_lower_bounds():
    # the family's closed form, or Plotkin over one representative per value
    rows = [("wt", {"k": str(k)}) for k in range(2, 11)]
    rows += [("delta_T", {"k": str(k), "T": str(T)}) for k in range(4, 10) for T in (1, 2, 3)]
    rows += [("minmax", {"w": str(w), "l": "2"}) for w in (2, 3, 4)]
    rose = 0
    for family, params in rows:
        spec = fcc.spec_from_string(family, defaults=params)
        for t in (1, 2, 3):
            closed = tables.family_lower_bound(family, t, int(params.get("w", 2)))
            lower = max(closed, _plotkin_row_lower(spec, t))
            assert tables.table_row(family, t, params).lower_bound.value == lower, (params, t)
            rose += lower > closed
    assert rose >= 5
    assert tables.table_row("delta_T", 3, {"k": "4", "T": "1"}).lower_bound.value == 9
    assert tables.table_row("minmax", 2, {"w": "3", "l": "2"}).lower_bound.value == 6


def test_a_family_row_tabulates_no_fn_for_its_lower_bound(monkeypatch):
    # k = 25 is past any table, and min-max at l > 8 has no bulk table, so
    # the closed form stands there; the second row reads no index table
    assert tables.table_row("minmax", 1, {"w": "5", "l": "5"}).lower_bound.value == 2

    def refuse(self):
        raise AssertionError("table_row tabulated the spec")

    monkeypatch.setattr(fcc.FunctionSpec, "index_table", property(refuse))
    assert tables.table_row("minmax", 1, {"w": "2", "l": "10"}).lower_bound.value == 2


def test_every_candidate_builds_the_r_it_was_ranked_by():
    specs = _rule_specs()
    assert len(specs) > 60
    built = set()
    for spec, t in specs:
        family, pairs = fcc.parse_spec_string(spec.name)
        rs = dict(tables.family_redundancies(family, pairs, t))
        for name, r in rs.items():
            assert tables.build_construction(name, spec, t).r == r, (spec.name, t, name)
            built.add(name)
        rs = {name: rs[name] for name in tables.AUTO_ORDER if name in rs}
        dmat = fcc.function_distance_matrix(spec, t)
        rs["greedy"] = bounds.gv_threshold_and_order(dmat)[0]
        assert fcc.build_function_value_encoder(spec, t).r == rs["greedy"]
        name, r, build = tables.best_construction(spec, t)
        # the least r, a tie going to the earlier; none is below the family's bound
        lower = tables.family_lower_bound(family, t, int(pairs.get("w", 2)))
        assert name == min(rs, key=rs.get) and r == rs[name] >= lower
        assert build().r == r
    # every entry with an r, delta-ramp included, was built at least once
    assert built == {name for name, entry in tables.CONSTRUCTIONS.items() if entry[1]}


@pytest.mark.parametrize("w", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_a_minmax_row_without_k_is_the_least_r_its_constructions_build(w, t):
    # minmax-rm's parities do not depend on l, so a row without k may take them
    spec = functions.minmax_spec(w, 2)
    least = min(functions.minmax_parity_encoder(spec, t).r, functions.minmax_rm_encoder(spec, t).r)
    assert tables.table_row("minmax", t, {"w": str(w)}).fcc_redundancy == tables._exact(least)


def _direct_build(name: str, p: dict[str, str], t: int) -> fcc.FccEncoder:
    """The encoder construction `name` gives, from its `functions` builder
    called on the values the CLI would read."""
    if name == "wt-cycle":
        return functions.wt_cyclic_encoder(functions.wt_spec(int(p["k"])), t)
    if name == "delta-ramp":
        return functions.delta_ramp_encoder(functions.delta_spec(int(p["k"]), int(p["T"])), t)
    if name == "minmax-spc":
        return functions.minmax_parity_encoder(functions.minmax_spec(int(p["w"]), int(p["l"])), t)
    if name == "minmax-rm":
        return functions.minmax_rm_encoder(functions.minmax_spec(int(p["w"]), int(p["l"])), t)
    assert name == "locally-binary"
    return functions.locally_binary_encoder(fcc.spec_from_string(p["function"], defaults=p), t)


def test_named_constructions_write_what_their_builders_write(capsys, tmp_path):
    assert cli._CONSTRUCTION_ALIASES == {"1": "wt-cycle", "2": "delta-ramp", "3": "minmax-spc",
                                         "4": "minmax-rm"}
    aliases = {name: alias for alias, name in cli._CONSTRUCTION_ALIASES.items()}
    path, built = tmp_path / "enc.txt", set()
    for job in {(tuple(job.function_args), job.t, tuple(job.constructions)): job
                for job in _design_jobs()}.values():
        family, pairs = fcc.parse_spec_string(job.function_args[1])
        p = {**dict(zip((a[2:] for a in job.function_args[2::2]), job.function_args[3::2])),
             **pairs, "function": job.function_args[1]}
        for name, (protects, _, _) in tables.CONSTRUCTIONS.items():
            if protects != family and name not in job.constructions:
                continue
            try:
                expected = fcc.encoder_to_text(_direct_build(name, p, job.t))
            except ValueError as exc:  # a construction that does not apply
                expected = f"error: {exc}\n"
            for called in (name, aliases.get(name, name)):
                code = cli.main(["fcc-build", *job.function_args, "--t", str(job.t),
                                 "--construction", called, "--out", str(path)])
                err = capsys.readouterr().err
                if expected.startswith("error: "):
                    assert (code, err) == (2, expected), (job.id, called)
                else:
                    assert code == 0 and path.read_text(encoding="utf-8") == expected, (job.id, called)
                    built.add(called)
    assert built == {*tables.CONSTRUCTIONS, *aliases.values()}


def test_constructions_look_their_builders_up_when_they_run(monkeypatch):
    # a tracer wraps the builders by module attribute, so the table must call
    # whatever `functions` holds when it runs
    calls = []
    for builder in ("wt_cyclic_encoder", "delta_ramp_encoder", "minmax_parity_encoder",
                    "minmax_rm_encoder", "locally_binary_encoder"):
        real = getattr(functions, builder)
        monkeypatch.setattr(functions, builder,
                            lambda *a, real=real, builder=builder: calls.append(builder) or real(*a))
    cases = [("wt-cycle", "wt:k=6"), ("delta-ramp", "delta_T:k=8,T=5"),
             ("minmax-spc", "minmax:w=3,l=2"), ("minmax-rm", "minmax:w=3,l=2"),
             ("locally-binary", "delta_T:k=8,T=5")]
    for name, text in cases:
        spec = fcc.spec_from_string(text)
        assert tables.build_construction(name, spec, 1).spec is spec
    assert calls == ["wt_cyclic_encoder", "delta_ramp_encoder", "minmax_parity_encoder",
                     "minmax_rm_encoder", "locally_binary_encoder"]


def test_a_spec_name_is_parsed_only_where_a_construction_reads_it():
    # "f:a,b" holds two bare tokens, so it does not parse; no construction
    # `auto` ranks protects a family "f", so its pairs are never read
    spec = fcc.FunctionSpec(3, lambda u: {0: 1, 7: 2}.get(u, 0), (0, 1, 2), name="f:a,b")
    with pytest.raises(ValueError, match="more than one bare parameter"):
        fcc.parse_spec_string(spec.name)
    assert tables.best_construction(spec, 1)[:2] == ("greedy", 2)


def test_table_rows_build_no_encoder(monkeypatch):
    rows = [("wt", t, {"k": k}) for k in ("8", "13") for t in (1, 2, 3)]
    rows += [("minmax", t, {"w": w, "l": l}) for w, l in (("3", "2"), ("4", "2"), ("5", "3"))
             for t in (1, 2, 3)]
    rows += [("delta_T", t, {"k": "10", "T": T}) for T in ("2", "5") for t in (1, 2)]
    rows += [("ml:sigmoid,k=6,eps=1", t, {}) for t in (1, 2)] + [("wt", 1, {"k": "1"})]
    expected = [tables.table_row(*row).fcc_redundancy for row in rows]

    def refuse(*args, **kwargs):
        raise AssertionError("a table row built an encoder")

    for owner, name in ((construct, "greedy_irregular_code"), (functions, "wt_cyclic_encoder"),
                        (functions, "minmax_parity_encoder"), (functions, "minmax_rm_encoder"),
                        (construct, "even_weight_subcode"), (construct, "reed_muller_code")):
        monkeypatch.setattr(owner, name, refuse)
    assert [tables.table_row(*row).fcc_redundancy for row in rows] == expected
    assert tables.spec_row(fcc.spec_from_string("parity:k=8"), 2).fcc_redundancy.value == 4


def test_auto_keeps_the_family_construction_where_greedy_cannot_tabulate():
    # k = 25 is past the value tables the greedy route needs; min-max's
    # parities do not read them
    name, r, build = tables.best_construction(functions.minmax_spec(5, 5), 1)
    assert (name, r, build().r) == ("minmax-spc", 6, 6)
    with pytest.raises(ValueError, match="too large to tabulate"):
        tables.best_construction(fcc.spec_from_string("ml:sigmoid,k=25,eps=1/1000"), 1)


# the construction census: (function, its parameters, t) rows; a row without
# k has no spec, so only the r formulas answer there
_CENSUS_CORPUS = [
    ("wt", {}, 1), ("wt", {}, 3), ("delta_T", {"T": "5"}, 1), ("delta_T", {"T": "7"}, 3),
    ("minmax", {"w": "4"}, 1), ("minmax", {"w": "4"}, 2),
    ("wt", {"k": "8"}, 1), ("wt", {"k": "8"}, 2), ("delta_T", {"k": "8", "T": "5"}, 2),
    ("minmax", {"w": "3", "l": "2"}, 1), ("minmax", {"w": "3", "l": "2"}, 2),
    ("minmax", {"w": "8", "l": "8"}, 1),  # k = 64: past the tables greedy reads
    ("cyclic", {}, 1),  # (wt(u) div 5) mod 3 at k = 15: 2-locally binary
]


def _census_spec(function: str, params: dict[str, str]) -> fcc.FunctionSpec:
    if function == "cyclic":
        return fcc.FunctionSpec(15, lambda u: (u.bit_count() // 5) % 3, range(3), name="cyclic")
    return fcc.spec_from_string(function, defaults=params)


def _census_answers(function: str, params: dict[str, str], t: int) -> dict[str, int]:
    """The r of each construction that answers on a row, and of `greedy`,
    the GV-length build `auto` falls back to: built through
    `build_construction` where the row has a spec (a ValueError is no
    answer), else read off the r formulas."""
    if function != "cyclic" and not {"k", "l"} & set(params):  # no k: no spec
        return dict(tables.family_redundancies(function, params, t))
    spec, answers = _census_spec(function, params), {}
    for name in tables.CONSTRUCTIONS:
        try:
            answers[name] = tables.build_construction(name, spec, t).r
        except ValueError:
            continue
    try:
        answers["greedy"] = fcc.build_function_value_encoder(spec, t).r
    except ValueError:  # too large to tabulate
        pass
    return answers


def test_census_every_construction_is_strictly_least_or_alone_on_some_row():
    wins: dict[str, list[str]] = {}
    for function, params, t in _CENSUS_CORPUS:
        answers = _census_answers(function, params, t)
        for name, r in answers.items():
            if all(r < other for rival, other in answers.items() if rival != name):
                wins.setdefault(name, []).append(f"{function} {params} t={t}")
    assert [name for name in tables.CONSTRUCTIONS if name not in wins] == []
    # the witness rows each entry is kept for
    assert {"wt {} t=1", "wt {} t=3"} <= set(wins["wt-cycle"])
    assert wins["delta-ramp"] == ["delta_T {'T': '5'} t=1", "delta_T {'T': '7'} t=3"]
    assert wins["minmax-spc"] == ["minmax {'w': '4'} t=1", "minmax {'w': '8', 'l': '8'} t=1"]
    assert wins["minmax-rm"] == ["minmax {'w': '4'} t=2"]
    assert wins["locally-binary"] == ["cyclic {} t=1"]


def test_the_census_witness_rows_answer_with_these_r():
    assert _census_answers("minmax", {"w": "4"}, 1) == {"minmax-spc": 5, "minmax-rm": 8}
    assert _census_answers("minmax", {"w": "4"}, 2) == {"minmax-spc": 10, "minmax-rm": 8}
    assert _census_answers("minmax", {"w": "8", "l": "8"}, 1) == {"minmax-spc": 7, "minmax-rm": 8}
    assert _census_answers("cyclic", {}, 1) == {"locally-binary": 2, "greedy": 4}
    assert tables.best_construction(_census_spec("cyclic", {}), 1)[:2] == ("greedy", 4)
