"""Redundancy comparison rows: protecting f(u) vs classical error correction.

One row per function family, four columns: the best lower bound on
function-correcting redundancy, the cost of protecting all the data, the
cost of protecting a separately transmitted function value, and the
redundancy our constructions actually achieve. Entries that are estimates
rather than exact values carry a '*' (and exact=False).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import bounds, fcc, functions
from .bits import BitWord


@dataclass(frozen=True)
class TableEntry:
    text: str
    value: int | None
    exact: bool


@dataclass(frozen=True)
class TableRow:
    function: str
    t: int
    lower_bound: TableEntry
    ecc_on_data: TableEntry
    ecc_on_function_values: TableEntry
    fcc_redundancy: TableEntry

    def to_json_dict(self) -> dict:
        return asdict(self)

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
    if k is None:
        return _symbolic("t log k")
    return _approx(bounds.ecc_on_data_redundancy(k, t))


def _ecc_values_entry(e: int | None, t: int, symbolic: str) -> TableEntry:
    if e is None:
        return _symbolic(symbolic)
    return _approx(bounds.ecc_on_function_values_redundancy(e, t))


def row_keys(family: str) -> frozenset[str]:
    """The parameters a row of `family` takes: binary's k, else the
    registry family's (see fcc.spec_keys)."""
    return frozenset({"k"}) if family == "binary" else fcc.spec_keys(family)


def table_row(name: str, t: int, params: dict[str, str] | None = None) -> TableRow:
    """Assemble one comparison row for a function family or registry string.

    Known families get their sharp special-case entries, whether their
    parameters come inline ("delta_T:k=8,T=3") or in `params`; any other
    registered name falls back to the generic bounds computed from its spec
    (which then needs enough parameters to build, e.g. k).
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
        # any two-valued function: repetition parities are exactly optimal,
        # and sending the value itself takes a 2t+1 repetition code
        return TableRow(
            "binary",
            t,
            lower_bound=_exact(2 * t),
            ecc_on_data=_ecc_data_entry(k, t),
            ecc_on_function_values=_exact(2 * t + 1),
            fcc_redundancy=_exact(2 * t),
        )

    if family == "wt":
        achieved = functions._wt_parity_base(t).length
        return TableRow(
            "wt",
            t,
            lower_bound=_exact(bounds.wt_lower_bound(t).integer_value),
            ecc_on_data=_ecc_data_entry(k, t),
            ecc_on_function_values=_ecc_values_entry(
                k + 1 if k is not None else None, t, "log k + t log log k"
            ),
            fcc_redundancy=_exact(achieved),
        )

    if family == "delta_T":
        T = int(p.get("T", 0))
        if T < 1:  # delta_spec's condition, and the row cannot do without T
            raise ValueError(f"delta_T row needs T >= 1, got T={p.get('T')}")
        e = (k // T + 1) if k is not None else None
        if 2 * t + 1 <= T:
            fcc_entry = _exact(2 * t)
        elif k is not None:
            spec = functions.delta_spec(k, T)
            fcc_entry = _approx(fcc.build_function_value_encoder(spec, t).r)
        else:
            fcc_entry = _symbolic("needs 2t+1 <= T")
        return TableRow(
            f"delta_T(T={T})",
            t,
            lower_bound=_exact(2 * t),
            ecc_on_data=_ecc_data_entry(k, t),
            ecc_on_function_values=_ecc_values_entry(e, t, "log E + t log log E"),
            fcc_redundancy=fcc_entry,
        )

    if family == "minmax":
        w, l = int(p.get("w", 0)), int(p.get("l", 2))
        if w < 2 or l < 2:  # minmax_spec's conditions; the row cannot do without w
            raise ValueError(f"minmax row needs w >= 2 and l >= 2, got w={p.get('w')}, l={p.get('l')}")
        e = w * (w - 1)
        if "l" in p:
            functions.check_minmax_k(k, w, l)
            k = w * l
        if k is not None and (k % w or k < 2 * w):  # a k without l
            raise ValueError(f"k={k} is not w*l for w={w} and any block length l >= 2")
        lower = 2 * t
        if w >= 3:
            lower = max(lower, bounds.minmax_lower_bound(w, t).integer_value)
        achieved = t * ((max(e - 1, 1)).bit_length() + 1)  # t(ceil(log2 e)+1)
        return TableRow(
            f"minmax(w={w})",
            t,
            lower_bound=_exact(lower),
            ecc_on_data=_ecc_data_entry(k, t),
            ecc_on_function_values=_ecc_values_entry(e, t, "log E + t log log E"),
            fcc_redundancy=_exact(achieved),
        )

    # generic fallback: anything registered, with real matrices behind it
    return spec_row(fcc.spec_from_string(name, defaults=p), t)


def spec_row(spec: fcc.FunctionSpec, t: int) -> TableRow:
    """The generic comparison row of any spec, from its matrices.

    The lower bound is Plotkin over the message-level requirement matrix of
    one representative per value (its smallest preimage), floored at 2t.
    Every encoder must meet the requirements of any message subset (paper
    Thm. 2), so the bound holds whichever representatives are taken. The
    achieved entry is the per-value greedy build.
    """
    e = spec.expressiveness
    if e < 2:
        return TableRow(spec.name, t, _exact(0), _ecc_data_entry(spec.k, t), _exact(0), _exact(0))
    reps = [BitWord((m & -m).bit_length() - 1, spec.k) for m in spec.preimage_masks]
    dmat = fcc.distance_requirement_matrix(spec, t, reps)
    return TableRow(
        spec.name,
        t,
        lower_bound=_exact(max(2 * t, bounds.plotkin_irregular(dmat).integer_value)),
        ecc_on_data=_ecc_data_entry(spec.k, t),
        ecc_on_function_values=_ecc_values_entry(e, t, "log E + t log log E"),
        fcc_redundancy=_exact(fcc.build_function_value_encoder(spec, t).r),
    )


def render_header() -> str:
    return (
        "# lower = best lower bound on fcc redundancy; ecc-data / ecc-values "
        "= classical-route estimates; fcc = redundancy achieved here; * = estimate"
    )
