"""The benchmark's traced round wraps fcodes names; each must still exist.

perfbench/spans.py replaces every (owner, attribute) pair in its `_TARGETS`
and every cached property in `_CACHED` with a timing wrapper, and one missing
name fails the whole benchmark run. The file is read, never imported, so no
bytecode cache is written beside it.
"""

from __future__ import annotations

import inspect
import types
from functools import cached_property
from pathlib import Path

from fcodes import construct, fcc

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_target_is_callable():
    missing = [
        f"{owner.__name__}.{attr}"
        for places in _spans()._TARGETS.values()
        for owner, attr in places
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_every_cached_layer_is_a_cached_property_of_function_spec():
    for prop in _spans()._CACHED.values():
        assert isinstance(fcc.FunctionSpec.__dict__.get(prop), cached_property), prop


def test_exact_min_length_takes_the_keywords_the_tracer_passes():
    params = inspect.signature(construct.exact_min_length).parameters
    for name in ("use_row_symmetry", "trace"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
