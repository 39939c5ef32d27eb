"""Quantized activation functions and their value-distance shortcut.

`ml_distance_matrix` computes pairwise value distances from the band
structure (saturation classes and bijective levels) directly;
`fcc.function_distance_matrix` knows nothing about bands and searches the
hypercube. Entrywise equality of the two is the point of these tests.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from fcodes import fcc, functions
from fcodes.functions import Quantizer


def q5() -> Quantizer:
    return Quantizer(5, Fraction(1))


# --- quantizer ----------------------------------------------------------------


def test_quantizer_centers_are_exact_midpoints():
    q = q5()
    assert q.center(0) == Fraction(-31, 2)  # -15.5
    assert q.center(31) == Fraction(31, 2)
    assert q.center(16) == Fraction(1, 2)
    # consecutive centers are one step apart
    for u in range(31):
        assert q.center(u + 1) - q.center(u) == 1


def test_quantizer_range_bounds():
    # low/high are the extreme representable centers, symmetric about zero
    q = q5()
    assert q.low == Fraction(-31, 2) and q.high == Fraction(31, 2)
    assert q.low == -q.high


def test_quantizer_fractional_step():
    q = Quantizer(3, Fraction(1, 4))
    assert q.center(0) == Fraction(-7, 8)
    assert q.high - q.low == 7 * Fraction(1, 4)


def test_quantizer_guards():
    with pytest.raises(ValueError):
        Quantizer(1, Fraction(1))
    with pytest.raises(ValueError):
        Quantizer(4, Fraction(0))


# --- kinds and images -----------------------------------------------------------


IMAGE_SIZES = {
    "sigmoid": 22,
    "tanh": 14,
    "relu": 17,
    "sigmoid_derivative": 11,
    "tanh_derivative": 7,
}


@pytest.mark.parametrize("name,size", sorted(IMAGE_SIZES.items()))
def test_image_sizes_k5_eps1(name, size):
    spec = functions.ml_spec(functions.ml_kind(name), q5())
    assert spec.expressiveness == size


def test_sigmoid_band_split():
    # saturation below -10, bijective through (-10, 10), saturation above:
    # 6 + 20 + 6 centers for k=5, eps=1, but the two saturated bands merge
    # into one value each -> 1 + 20 + 1 = 22
    kind = functions.ml_kind("sigmoid")
    spec = functions.ml_spec(kind, q5())
    values = [spec.fn(u) for u in range(32)]
    assert values[0] == values[5] == (-1, 0)
    assert values[26] == values[31] == (1, 0)
    assert len({v for v in values if v[0] == 0}) == 20


def test_relu_is_one_sided():
    spec = functions.ml_spec(functions.ml_kind("relu"), q5())
    low = spec.fn(0)
    assert low == (-1, 0)
    # every negative center collapses, every positive one stays distinct
    assert spec.fn(15) == (-1, 0)  # center -0.5
    assert spec.fn(16) == (0, Fraction(1, 2))
    assert spec.expressiveness == 1 + 16


def test_symmetric_kind_pairs_mirror_centers():
    kind = functions.ml_kind("tanh_derivative")  # cutoff 6
    spec = functions.ml_spec(kind, q5())
    q = q5()
    for u in range(32):
        mirror = 31 - u  # center(-x) = -center(x)
        assert q.center(mirror) == -q.center(u)
        assert spec.fn(u) == spec.fn(mirror)


def test_symmetric_saturation_is_smallest_value():
    spec = functions.ml_spec(functions.ml_kind("sigmoid_derivative"), q5())
    sat = spec.image[0]
    assert sat == (-1, 0)
    assert all(sat <= v for v in spec.image)


def test_eps_must_divide_interval():
    # sigmoid interval is 20 wide; a step of 3 cannot tile it
    kind = functions.ml_kind("sigmoid")
    with pytest.raises(ValueError):
        functions.ml_spec(kind, Quantizer(4, Fraction(3)))


def test_saturation_classes_must_be_nonempty():
    # quantizer range (-7.5, 7.5) never reaches the default +-10 cutoffs
    kind = functions.ml_kind("sigmoid")
    with pytest.raises(ValueError):
        functions.ml_spec(kind, Quantizer(4, Fraction(1)))


def test_interval_overrides():
    kind = functions.ml_kind("sigmoid", Fraction(-4), Fraction(4))
    q = Quantizer(4, Fraction(1))
    spec = functions.ml_spec(kind, q)
    # centers -7.5..7.5: eight land inside [-4, 4], plus two saturations
    assert spec.expressiveness == 10
    assert "a=-4,b=4" in spec.name


def test_value_labels():
    spec = functions.ml_spec(functions.ml_kind("sigmoid"), q5())
    labels = {spec.value_label(v) for v in spec.image}
    assert "saturated-low" in labels
    assert "saturated-high" in labels
    assert any(lab.startswith("g(") for lab in labels)


# --- dual-route distance matrices --------------------------------------------------


@pytest.mark.parametrize("name", sorted(IMAGE_SIZES))
@pytest.mark.parametrize("t", [1, 2])
def test_lemma_matrix_matches_generic_search(name, t):
    kind = functions.ml_kind(name)
    q = q5()
    lemma = functions.ml_distance_matrix(kind, q, t)
    spec = functions.ml_spec(kind, q)
    generic = fcc.function_distance_matrix(spec, t)
    assert lemma.entries == generic.entries


def test_lemma_matrix_matches_generic_small_quantizer():
    kind = functions.ml_kind("tanh")
    q = Quantizer(4, Fraction(2))
    lemma = functions.ml_distance_matrix(kind, q, 1)
    generic = fcc.function_distance_matrix(functions.ml_spec(kind, q), 1)
    assert lemma.entries == generic.entries


def test_theorem2_encoder_on_sigmoid():
    spec = functions.ml_spec(functions.ml_kind("sigmoid"), q5())
    enc = fcc.build_function_value_encoder(spec, 1)
    assert fcc.verify_fcc(enc).ok


def test_ml_registry_string():
    spec = fcc.spec_from_string("ml:sigmoid,k=5,eps=1")
    direct = functions.ml_spec(functions.ml_kind("sigmoid"), q5())
    assert spec.name == direct.name
    assert spec.image == direct.image
    for u in (0, 7, 19, 31):
        assert spec.fn(u) == direct.fn(u)


def test_ml_registry_interval_override():
    spec = fcc.spec_from_string("ml:sigmoid,k=4,eps=1,a=-4,b=4")
    assert spec.expressiveness == 10


def test_ml_unknown_kind():
    with pytest.raises(ValueError):
        functions.ml_kind("swish")


@pytest.mark.parametrize("text", [
    "ml:sigmoid,k=4,eps=1,a=4,b=-4",  # reversed interval: two values
    "ml:sigmoid,k=4,eps=1,a=2,b=2",
    "ml:tanh_derivative,k=4,eps=1,a=-2",  # one-sided cutoff below 0: one value
])
def test_ml_empty_interval_is_rejected(text):
    with pytest.raises(ValueError, match="is empty"):
        fcc.spec_from_string(text)


def _ml_image_from_levels(kind, q):
    """The image as the saturation bands around the quantization centers in
    the injective stretch, in the activation's output order: the levels-based
    construction that tabulating the classifier replaced."""

    def between(lo, hi):
        return [c for c in map(q.center, range(1 << q.k)) if lo <= c <= hi]

    if kind.style == functions.BIJECTIVE:
        return [(-1, 0)] + [(0, c) for c in between(kind.lo, kind.hi)] + [(1, 0)]
    if kind.style == functions.BIJECTIVE_POSITIVE:
        return [(-1, 0)] + [(0, c) for c in between(0, q.high)]
    return [(-1, 0)] + [(0, -c) for c in reversed(between(0, kind.hi))]


@pytest.mark.parametrize("name", sorted(IMAGE_SIZES))
def test_ml_image_matches_the_levels_construction(name):
    compared = set()
    for k in range(2, 9):
        for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
            q = Quantizer(k, eps)
            for interval in ((None, None), (Fraction(-1), Fraction(1))):
                kind = functions.ml_kind(name, *interval)
                try:
                    image = functions._ml_image(kind, q)
                except ValueError:  # an empty saturation class or a step that cannot tile
                    continue
                assert image == _ml_image_from_levels(kind, q), (k, eps, interval)
                compared.add(k)
    assert compared == set(range(2, 9))
