"""Redundancy comparison rows: protecting f(u) vs classical error correction.

One row per function family, four columns: the best lower bound on
function-correcting redundancy, the cost of protecting all the data, the
cost of protecting a separately transmitted function value, and the
redundancy our constructions actually achieve. That last entry is one rule,
`best_construction`, whose winner `fcc-build --construction auto` builds: the
least r over the constructions that apply, wherever k is known, ranked
before any is built. Entries that are estimates rather than exact values
carry a '*' (and exact=False).
"""

from __future__ import annotations

import functools
from typing import Callable

from . import bounds, fcc, functions
from .bits import Record

class TableEntry(Record):
    __slots__ = _fields = ("text", "value", "exact")

    def __init__(self, text: str, value: int | None, exact: bool) -> None:
        self._init(text, value, exact)


class TableRow(Record):
    __slots__ = _fields = ("function", "t", "lower_bound", "ecc_on_data",
                           "ecc_on_function_values", "fcc_redundancy")

    def __init__(self, function: str, t: int, lower_bound: TableEntry, ecc_on_data: TableEntry,
                 ecc_on_function_values: TableEntry, fcc_redundancy: TableEntry) -> None:
        self._init(function, t, lower_bound, ecc_on_data, ecc_on_function_values, fcc_redundancy)

    def to_json_dict(self) -> dict:
        out: dict = {"function": self.function, "t": self.t}
        for name in self._fields[2:]:
            entry = getattr(self, name)
            out[name] = {"text": entry.text, "value": entry.value, "exact": entry.exact}
        return out

    def render(self) -> str:
        return (
            f"{self.function:<12} t={self.t}  "
            f"lower={self.lower_bound.text:<8} "
            f"ecc-data={self.ecc_on_data.text:<10} "
            f"ecc-values={self.ecc_on_function_values.text:<12} "
            f"fcc={self.fcc_redundancy.text}"
        )


def _exact(v: int) -> TableEntry:
    return TableEntry(str(v), v, True)


def _approx(v: int) -> TableEntry:
    return TableEntry(f"{v}*", v, False)


def _symbolic(s: str) -> TableEntry:
    return TableEntry(f"{s}*", None, False)


def _ecc_data_entry(k: int | None, t: int) -> TableEntry:
    """Correcting the data: a one-bit message takes exactly a 2t+1
    repetition, 2t parity bits; longer ones take the estimate."""
    if k is None:
        return _symbolic("t log k")
    if k == 1:
        return _exact(2 * t)
    return _approx(bounds.ecc_on_data_redundancy(k, t))


def _ecc_values_entry(e: int | None, t: int, symbolic: str = "log E + t log log E") -> TableEntry:
    """Sending one of e values on its own: a two-valued one is one bit, which
    takes exactly a 2t+1 repetition; more values take the estimate."""
    if e is None:
        return _symbolic(symbolic)
    if e == 2:
        return _exact(2 * t + 1)
    return _approx(bounds.ecc_on_function_values_redundancy(e, t))


def row_keys(family: str) -> frozenset[str]:
    """The parameters a row of `family` takes: binary's k, else the
    registry family's (see fcc.spec_keys)."""
    return frozenset({"k"}) if family == "binary" else fcc.spec_keys(family)


def family_lower_bound(family: str, t: int, w: int = 2) -> int:
    """The closed-form lower bound of a family's row, and `auto`'s early
    stop: wt's (`bounds.wt_lower_bound`), min-max's on w >= 3 blocks,
    floored at 2t, else 2t."""
    if family == "wt":
        return bounds.wt_lower_bound(t).integer_value
    if family == "minmax" and w >= 3:
        return max(2 * t, bounds.minmax_lower_bound(w, t).integer_value)
    return 2 * t


# name -> (the family it protects, None for any function; its r from the
# family's key=value pairs and t, None where it does not apply or is known
# only once built; the name of its `functions` builder of (spec, t), looked
# up when it builds (`build_construction`), so that a wrapper put there runs).
CONSTRUCTIONS = {
    "wt-cycle": ("wt", lambda p, t: None if "k" in p and int(p["k"]) <= t
                 else functions.wt_cycle_redundancy(t), "wt_cyclic_encoder"),
    "delta-ramp": ("delta_T", lambda p, t: 2 * t if 2 * t + 1 <= int(p["T"]) else None,
                   "delta_ramp_encoder"),
    "minmax-spc": ("minmax", lambda p, t: functions.minmax_parity_redundancy(_minmax_e(p), t),
                   "minmax_parity_encoder"),
    "minmax-rm": ("minmax", lambda p, t: 1 << functions.minmax_rm_shape(_minmax_e(p), t)[0],
                  "minmax_rm_encoder"),
    "locally-binary": (None, None, "locally_binary_encoder"),
}
# the constructions `auto` ranks, in the order that breaks ties. Delta-ramp and
# locally-binary are left out: wherever delta-ramp applies the GV length is
# already its 2t, and the locally-binary test grows a ball per value over all
# 2^k messages.
AUTO_ORDER = ("wt-cycle", "minmax-spc", "minmax-rm")


def _minmax_e(pairs: dict[str, str]) -> int:
    """The image size w(w-1) of a min-max row's w."""
    return int(pairs["w"]) * (int(pairs["w"]) - 1)


def build_construction(name: str, spec: fcc.FunctionSpec, t: int) -> fcc.FccEncoder:
    """The encoder the entry `name` of `CONSTRUCTIONS` builds for spec and t."""
    return getattr(functions, CONSTRUCTIONS[name][2])(spec, t)


def family_redundancies(family: str, pairs: dict[str, str], t: int,
                        names=tuple(CONSTRUCTIONS)) -> list[tuple[str, int]]:
    """The name and r of each construction among `names` that protects
    `family` and applies at its `pairs` and t, in the order of `names`."""
    rs = [(name, CONSTRUCTIONS[name][1](pairs, t))
          for name in names if CONSTRUCTIONS[name][0] == family]
    return [(name, r) for name, r in rs if r is not None]


def best_construction(spec: fcc.FunctionSpec,
                      t: int) -> tuple[str, int, Callable[[], fcc.FccEncoder]]:
    """The construction `auto` builds, ranked by r before any is built: its
    name, its r and its build, which reuses `spec`. The least r over the
    constructions of `AUTO_ORDER` that apply to the family the spec's name
    gives, then the greedy build at the GV length
    (`fcc.build_function_value_encoder`), a tie going to the earlier. The
    search stops once an r meets `family_lower_bound`, and the GV length is
    sought only below the best r so far (`bounds.gv_threshold_and_order`'s
    `below`); where the greedy route refuses to tabulate a large k, the best
    family construction stands.
    """
    # only a family `auto` ranks needs its pairs; another spec's name may not
    # parse (a spec built in Python may take any name)
    family, pairs = spec.name.partition(":")[0], {}
    if any(CONSTRUCTIONS[name][0] == family for name in AUTO_ORDER):
        pairs = fcc.parse_spec_string(spec.name)[1]
    lower, best = family_lower_bound(family, t, int(pairs.get("w", 2))), None
    for name, r in family_redundancies(family, pairs, t, AUTO_ORDER):
        if best is None or r < best[1]:
            best = name, r, functools.partial(build_construction, name, spec, t)
        if best[1] <= lower:
            return best
    try:
        dmat = fcc.function_distance_matrix(spec, t)
        gv = bounds.gv_threshold_and_order(dmat, None if best is None else best[1])
    except ValueError:
        if best is None:
            raise
        return best
    if gv is None:
        return best
    return "greedy", gv[0], lambda: fcc.build_function_value_encoder(spec, t, dmat, gv)


def table_row(name: str, t: int, params: dict[str, str] | None = None) -> TableRow:
    """Assemble one comparison row for a function family or registry string.

    Known families get their sharp special-case entries, whether their
    parameters come inline ("delta_T:k=8,T=3") or in `params`; any other
    registered name falls back to the generic bounds computed from its spec
    (which then needs enough parameters to build, e.g. k). Where k is known,
    the achieved entry is `best_construction`'s r, and the lower bound the
    larger of `family_lower_bound` and `_plotkin_lower` where the spec is
    read without tabulating `fn`; without k a family row prints the least r
    over its family's `CONSTRUCTIONS` and the closed form.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    family, pairs = fcc.parse_spec_string(name)
    fcc.check_spec_pairs(family, pairs, row_keys(family))
    p = {**(params or {}), **pairs}
    k = int(p["k"]) if "k" in p else None
    if k is not None and (family == "wt" and k < 2 or family == "delta_T" and k < int(p.get("T", 0))):
        # the closed forms need two weights, or two blocks: wt on one bit is
        # binary, delta_T below T is constant, so the spec's own row is exact
        return spec_row(fcc.spec_from_string(name, defaults=p), t)

    if family == "binary":
        # any two-valued function: repetition parities are exactly optimal
        return TableRow(
            "binary",
            t,
            lower_bound=_exact(2 * t),
            ecc_on_data=_ecc_data_entry(k, t),
            ecc_on_function_values=_ecc_values_entry(2, t),
            fcc_redundancy=_exact(2 * t),
        )

    symbolic, w = "log E + t log log E", 2
    if family == "wt":
        label, e, symbolic = "wt", (k + 1 if k is not None else None), "log k + t log log k"
    elif family == "delta_T":
        T = int(p.get("T", 0))
        if T < 1:  # delta_spec's condition, and the row cannot do without T
            raise ValueError(f"delta_T row needs T >= 1, got T={p.get('T')}")
        label, e = f"delta_T(T={T})", (k // T + 1) if k is not None else None
    elif family == "minmax":
        w, l = int(p.get("w", 0)), int(p.get("l", 2))
        if w < 2 or l < 2:  # minmax_spec's conditions; the row cannot do without w
            raise ValueError(f"minmax row needs w >= 2 and l >= 2, got w={p.get('w')}, l={p.get('l')}")
        e = w * (w - 1)
        if "l" in p:
            functions.check_minmax_k(k, w, l)
            k = w * l
        if k is not None and (k % w or k < 2 * w):  # a k without l
            raise ValueError(f"k={k} is not w*l for w={w} and any block length l >= 2")
        if k is not None:  # the block length of the spec built below
            p["l"] = str(k // w)
        label = f"minmax(w={w})"
    else:
        # generic fallback: anything registered, with real matrices behind it
        return spec_row(fcc.spec_from_string(name, defaults=p), t)
    lower = family_lower_bound(family, t, w)
    if k is not None:  # what `auto` builds; Plotkin's bound where `fn` need not be tabulated
        spec = fcc.spec_from_string(name, defaults=p)
        fcc_entry = _exact(best_construction(spec, t)[1])
        if spec.weight_index is not None or spec.bulk_table is not None and k <= fcc.TABLE_MAX_K:
            lower = max(lower, _plotkin_lower(spec, t))
    else:  # the least r of the family's constructions; only delta-ramp may not apply
        rs = [r for _, r in family_redundancies(family, p, t)]
        fcc_entry = _exact(min(rs)) if rs else _symbolic("needs 2t+1 <= T")
    return TableRow(label, t, _exact(lower), _ecc_data_entry(k, t),
                    _ecc_values_entry(e, t, symbolic), fcc_entry)


def _plotkin_lower(spec: fcc.FunctionSpec, t: int) -> int:
    """Plotkin over the requirements of one representative per value (its
    smallest preimage: 2^a - 1 on a weight map, a the least weight of the
    value), floored at 2t, for a spec of at least two values.

    The representatives carry distinct values, so each pair needs
    max(2t+1 - d(u_i, u_j), 0) parity distance; their total, summed from
    popcounts without building the requirement matrix, gives the ceiling of
    `bounds.total_plotkin_ratio`, 4 times the total over E^2 - (E mod 2).
    Every encoder must meet the requirements of any message subset (paper
    Thm. 2), so the bound holds whichever representatives are taken.
    """
    e = spec.expressiveness
    if spec.weight_index is None:
        reps = [(m & -m).bit_length() - 1 for m in spec.preimage_masks]
    else:
        reps = [(1 << spec.weight_index.index(i)) - 1 for i in range(e)]
    need, total = 2 * t + 1, 0
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            d = (u ^ v).bit_count()
            if d < need:
                total += need - d
    num, den = bounds.total_plotkin_ratio(total, e)
    return max(2 * t, -(-num // den))


def spec_row(spec: fcc.FunctionSpec, t: int) -> TableRow:
    """The generic comparison row of any spec: the lower bound is
    `_plotkin_lower`'s, and the achieved entry is the r of
    `best_construction`, whose winner `auto` builds."""
    e = spec.expressiveness
    if e < 2:
        return TableRow(spec.name, t, _exact(0), _ecc_data_entry(spec.k, t), _exact(0), _exact(0))
    return TableRow(
        spec.name,
        t,
        lower_bound=_exact(_plotkin_lower(spec, t)),
        ecc_on_data=_ecc_data_entry(spec.k, t),
        ecc_on_function_values=_ecc_values_entry(e, t),
        fcc_redundancy=_exact(best_construction(spec, t)[1]),
    )


def render_header() -> str:
    return (
        "# lower = best lower bound on fcc redundancy; ecc-data / ecc-values "
        "= classical-route estimates; fcc = redundancy achieved here; * = estimate"
    )
