"""Redundancy table rows across the function families."""

from __future__ import annotations

import random
import runpy
import sys
from pathlib import Path

import pytest

from fcodes import construct, fcc, tables


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
    # generic builder supplies an achieved (approximate) redundancy
    row = tables.table_row("delta_T", 2, {"T": "3", "k": "6"})
    assert not row.fcc_redundancy.exact
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
