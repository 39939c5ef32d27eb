"""The package's immutable records: equality, hash, repr and refused
assignment as the frozen dataclasses they replace had them, and a start-up
that imports neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import copy
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fcodes
from fcodes.bits import BitWord, Code, DistanceMatrix
from fcodes.bounds import BoundResult
from fcodes.construct import ExactLengthResult, SearchBudget
from fcodes.fcc import DecodeResult, FccEncoder, FunctionSpec, VerifyResult
from fcodes.functions import MlFunctionKind, Quantizer
from fcodes.simulate import ChannelModel, SimulationReport
from fcodes.tables import TableEntry, TableRow

SPEC = FunctionSpec(1, lambda u: u, (0, 1), name="id1")
ENTRY = TableEntry("4", 4, True)

# class: (a fresh record, the hashed field values, its repr, a record that
# differs in one compared field, and a twin that differs only in fields left
# out of the hash, with whether it compares equal)
CASES = {
    "BitWord": (lambda: BitWord(5, 4), (5, 4), "BitWord('0101')", BitWord(5, 5), None),
    "DistanceMatrix": (
        lambda: DistanceMatrix(((0, 2), (2, 0))), (((0, 2), (2, 0)),),
        "DistanceMatrix(entries=((0, 2), (2, 0)))", DistanceMatrix(((0, 3), (3, 0))), None),
    "Code": (
        lambda: Code((BitWord(1, 2), BitWord(2, 2)), 2), ((BitWord(1, 2), BitWord(2, 2)), 2),
        "Code(words=(BitWord('01'), BitWord('10')), length=2)", Code((BitWord(1, 2),), 2),
        None),
    "BoundResult": (
        lambda: BoundResult(Fraction(7, 2), 4, "lower", "plotkin"),
        (Fraction(7, 2), 4, "lower", "plotkin"),
        "BoundResult(value=Fraction(7, 2), integer_value=4, kind='lower', source='plotkin')",
        BoundResult(Fraction(7, 2), 4, "upper", "plotkin"), None),
    "SearchBudget": (
        SearchBudget, (16, 2_000_000, 30.0),
        "SearchBudget(max_length=16, max_nodes=2000000, time_limit=30.0)",
        SearchBudget(max_nodes=5), None),
    "ExactLengthResult": (
        lambda: ExactLengthResult(3, False, 10, None, 4), (3, False, 10, None, 4),
        "ExactLengthResult(value=3, proven=False, nodes=10, code=None, refute_nodes=4)",
        ExactLengthResult(3, False, 10, None), None),
    "FccEncoder": (
        lambda: FccEncoder(SPEC, 1, 2, (0, 3), [0, 1]), (SPEC, 1, 2, (0, 3)),
        f"FccEncoder(spec={SPEC!r}, t=1, r=2, words=(0, 3), message_key=b'\\x00\\x01')",
        FccEncoder(SPEC, 2, 2, (0, 3), [0, 1]),
        (FccEncoder(SPEC, 1, 2, (0, 3), [1, 0]), False)),
    "VerifyResult": (
        lambda: VerifyResult(True, None, 6, "class"), (True, None, 6, "class"),
        "VerifyResult(ok=True, witness=None, pairs_checked=6, route='class')",
        VerifyResult(True, None, 6, "sampled"), None),
    "DecodeResult": (
        lambda: DecodeResult(3, False, 1), (3, False, 1),
        "DecodeResult(value=3, out_of_model=False, distance=1)", DecodeResult(3, True, 1), None),
    "Quantizer": (
        lambda: Quantizer(3, Fraction(1, 4)), (3, Fraction(1, 4)),
        "Quantizer(k=3, epsilon=Fraction(1, 4))", Quantizer(4, Fraction(1, 4)), None),
    "MlFunctionKind": (
        lambda: MlFunctionKind("relu", "bijective-positive", None, None),
        ("relu", "bijective-positive", None, None),
        "MlFunctionKind(name='relu', style='bijective-positive', lo=None, hi=None)",
        MlFunctionKind("relu", "bijective-positive", Fraction(0), None), None),
    "ChannelModel": (
        lambda: ChannelModel(2), (2, "exhaustive", 0, 1000),
        "ChannelModel(t=2, mode='exhaustive', seed=0, trials=1000)", ChannelModel(2, seed=1),
        None),
    "SimulationReport": (
        lambda: SimulationReport(8, 0, None, "exhaustive", None, 3, "tables"),
        (8, 0, None, "exhaustive", None),
        "SimulationReport(trials=8, failures=0, witness=None, mode='exhaustive', seed=None, "
        "decodes=3, route='tables')",
        SimulationReport(8, 1, None, "exhaustive", None, 3, "tables"),
        (SimulationReport(8, 0, None, "exhaustive", None, 0, "certified"), True)),
    "TableEntry": (
        lambda: TableEntry("4", 4, True), ("4", 4, True),
        "TableEntry(text='4', value=4, exact=True)", TableEntry("4*", 4, False), None),
    "TableRow": (
        lambda: TableRow("wt", 2, ENTRY, ENTRY, ENTRY, ENTRY), ("wt", 2) + (ENTRY,) * 4,
        "TableRow(function='wt', t=2, lower_bound={e}, ecc_on_data={e}, "
        "ecc_on_function_values={e}, fcc_redundancy={e})".format(e=repr(ENTRY)),
        TableRow("wt", 3, ENTRY, ENTRY, ENTRY, ENTRY), None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_equality_hash_repr_and_immutability(name):
    build, hashed, text, other, twin = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b) == hash(hashed)
    assert repr(a) == text
    assert a != other and a != hashed  # a tuple of the same values is another class
    if twin is not None:
        record, equal = twin
        assert (a == record) is equal and hash(a) == hash(record)
    for field in inspect.signature(type(a)).parameters:  # the fields, in order
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and copy.copy(a) == a


def test_records_keep_their_validation_messages():
    with pytest.raises(ValueError, match=r"budget caps must be positive: SearchBudget\("
                                         r"max_length=0, max_nodes=2000000, time_limit=30.0\)"):
        SearchBudget(max_length=0)
    with pytest.raises(ValueError, match="value 16 does not fit in 4 bits"):
        BitWord(16, 4)
    with pytest.raises(ValueError, match=r"asymmetry at \(0, 1\): 2 vs 3"):
        DistanceMatrix(((0, 2), (3, 0)))


def test_the_cli_starts_without_dataclasses_or_inspect():
    # a fresh interpreter, so that nothing the tests import counts
    src = str(Path(fcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, fcodes, fcodes.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]", out
