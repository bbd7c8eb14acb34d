"""The coefficient contract: a stored coefficient is an int when its value is
integral and a Fraction otherwise, floats are rejected, and the int form
prints, hashes and serializes exactly like the Fraction form it replaced."""

import json
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operadkit.linalg as linalg
from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    enumerate_basis,
    exact,
    integer,
)
from operadkit.differentials import (
    DerivationDifferential,
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    verify_d_squared,
)
from operadkit.forests import ForestElement, ForestMonomial, polarization_iso_m2, symmetrize_forest
from operadkit.reps import MultilinearMap
from operadkit.serialize import complex_from_json, element_to_json
from operadkit.tails import build_model_btow, build_model_homotopy

from test_core import element_from_json

B = "B"


def is_normal(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_normal(elem):
    bad = [c for c in elem.terms.values() if not is_normal(c)]
    assert not bad, f"coefficients outside the normal form: {bad[:5]}"


def rescaled_ainf(max_arity: int, seed: int) -> DerivationDifferential:
    """build_ainf with mu_k replaced by c_k * mu_k for seeded rationals c_k != 0.

    D(c_k mu_k) = c_k D(mu_k), and a monomial on mu_i, mu_j, ... is
    1 / (c_i c_j ...) times the same monomial on the rescaled generators.
    The model is isomorphic to the base, but its solved tails carry
    denominators.
    """
    rng = random.Random(seed)
    base = build_ainf(max_arity)
    scale = {
        g.name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        for g in base.base.generators
    }
    images = {}
    for g in base.base.generators:
        img = base.of(g.name)
        terms = {
            m: c * scale[g.name] / prod(scale[v] for v in m.vertex_names()) for m, c in img.terms.items()
        }
        images[g.name] = OperadElement(base.base, terms, img.signature, img.degree)
    model = DerivationDifferential(base.base, images)
    assert verify_d_squared(model).ok
    return model


# ---------------------------------------------------------------------------
# exact


def test_exact_normal_form():
    assert exact(3) == 3 and type(exact(3)) is int
    assert exact(Fraction(4, 2)) == 2 and type(exact(Fraction(4, 2))) is int
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert exact(True) == 1 and type(exact(True)) is int
    assert exact("-6/3") == -2 and type(exact("-6/3")) is int
    assert exact("-1/2") == Fraction(-1, 2)
    assert exact("0.25") == Fraction(1, 4)


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), complex(1, 0)])
def test_exact_rejects_inexact_numbers(value):
    with pytest.raises(TypeError, match="inexact coefficient"):
        exact(value)


def test_elements_reject_float_coefficients():
    gens = GeneratorSet((B,), [GeneratorSpec("mu_2", Signature(B, (B, B)), 0)])
    mu2 = TreeMonomial.generator(gens, "mu_2")
    with pytest.raises(TypeError, match="0.5"):
        OperadElement.monomial(mu2, 0.5)
    with pytest.raises(TypeError, match="0.5"):
        OperadElement.monomial(mu2).scale(0.5)
    with pytest.raises(TypeError, match="0.5"):
        ForestElement.word(gens, [mu2], 0.5)


def test_json_loaders_reject_float_coefficients():
    gens = GeneratorSet((B,), [GeneratorSpec("mu_2", Signature(B, (B, B)), 0)])
    obj = element_to_json(OperadElement.from_generator(gens, "mu_2", Fraction(1, 3)))
    assert element_from_json(obj, gens).coeff(TreeMonomial.generator(gens, "mu_2")) == Fraction(1, 3)
    obj["terms"][0]["coeff"] = 2
    assert element_from_json(obj, gens).terms == {TreeMonomial.generator(gens, "mu_2"): 2}
    obj["terms"][0]["coeff"] = 0.1
    with pytest.raises(TypeError, match="0.1"):
        element_from_json(obj, gens)

    assert complex_from_json({"dims": {"0": 1, "1": 1}, "d": {"1": [["1/2"]]}}).d[1].entries == [[Fraction(1, 2)]]
    assert complex_from_json({"dims": {"0": 1, "1": 1}, "d": {"1": [[2]]}}).d[1].entries == [[Fraction(2)]]
    with pytest.raises(TypeError, match="0.5"):
        complex_from_json({"dims": {"0": 1, "1": 1}, "d": {"1": [[0.5]]}})


def _one_dim():
    return linalg.ChainComplex({0: 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: linalg.RationalMatrix([[0.5]]),
        lambda: linalg.RationalMatrix.from_columns([[0.5]], 1),
        lambda: linalg.RationalMatrix.identity(1).scale(0.5),
        lambda: linalg.solve_linear(linalg.RationalMatrix.identity(1), [0.5]),
        lambda: linalg.ChainComplex({0: 1, 1: 1}, {1: [[0.5]]}),
        lambda: MultilinearMap((_one_dim(),), _one_dim(), 0, {(0,): [[0.5]]}),
        lambda: MultilinearMap((_one_dim(),), _one_dim(), 0, {(0,): [[1]]}).scale(0.5),
    ],
    ids=["matrix", "from_columns", "scale", "solve_rhs", "complex", "map", "map_scale"],
)
def test_matrix_entry_points_reject_floats(build):
    with pytest.raises(TypeError, match="inexact matrix entry 0.5"):
        build()


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: linalg.ChainComplex({0: 1.7, 1: 1}), "1.7"),
        (lambda: linalg.ChainComplex({0: 1, 1.5: 1}), "1.5"),
        (lambda: linalg.ChainComplex({0: True}), "True"),
        (lambda: linalg.ChainComplex({0: Fraction(3, 2)}), "Fraction"),
        (lambda: linalg.ChainComplex({0: 1, 1: 1}, {1.0: [[1]]}), "1.0"),
        (lambda: MultilinearMap((_one_dim(),), _one_dim(), 0.5, {(0,): [[1]]}), "0.5"),
        (lambda: MultilinearMap((_one_dim(),), _one_dim(), 0, {(0.9,): [[1]]}), "0.9"),
        (lambda: GeneratorSpec("m", Signature(B, (B, B)), 0.5), "0.5"),
        (lambda: GeneratorSpec("m", Signature(B, (B, B)), False), "False"),
    ],
    ids=[
        "complex-dim",
        "complex-degree",
        "complex-bool-dim",
        "complex-fraction-dim",
        "complex-d-key",
        "map-degree",
        "map-key",
        "spec-degree",
        "spec-bool-degree",
    ],
)
def test_integer_fields_reject_floats_and_bools(build, shown):
    # int() would truncate these to a valid-looking object
    with pytest.raises(TypeError, match=f"expected an integer, got {shown}"):
        build()


def test_integer_fields_keep_integers():
    assert integer(3) == 3 and integer("-2") == -2
    assert linalg.ChainComplex({"0": 1, 1: "2", 2: 0}).dims == {0: 1, 1: 2}
    m = MultilinearMap((_one_dim(),), _one_dim(), "0", {("0",): [[1]]})
    assert m.degree == 0 and list(m.blocks) == [(0,)]
    assert GeneratorSpec("m", Signature(B, (B, B)), -1).degree == -1


def test_matrix_entry_points_keep_exact_input():
    m = linalg.RationalMatrix([[1, Fraction(1, 2), "-1/3", True]])
    assert m.entries == [[1, Fraction(1, 2), Fraction(-1, 3), 1]]
    assert {type(x) for x in m.entries[0]} == {Fraction}
    assert linalg.solve_linear(linalg.RationalMatrix.identity(1), [2]) == [Fraction(2)]
    assert type(m.scale(2).entries[0][0]) is Fraction


# ---------------------------------------------------------------------------
# The normal form against the all-Fraction form


def _raw(cls, gens, terms, *meta):
    """An element whose term map is stored as given: the all-Fraction form
    that the constructors kept before the normal form."""
    elem = cls.zero(gens, *meta)
    elem.terms = terms
    return elem


_GENS = GeneratorSet(
    (B,), [GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2) for k in range(2, 5)]
)
_POOL = enumerate_basis(_GENS, Signature(B, (B,) * 4), 2)
_FOREST_POOL = [ForestMonomial(_GENS, (m, t)) for m in _POOL[:4] for t in _POOL[-3:]]

_coeffs = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-4, 4).map(Fraction),
)


def _mixed_terms(pool):
    return st.dictionaries(st.sampled_from(pool), _coeffs, max_size=6)


def _reference(*parts):
    """The sum of c * terms over (c, terms) parts, in plain Fractions."""
    out = {}
    for c, terms in parts:
        for m, v in terms.items():
            out[m] = out.get(m, Fraction(0)) + Fraction(c) * Fraction(v)
    return {m: v for m, v in out.items() if v}


@settings(max_examples=150, deadline=None)
@given(_mixed_terms(_POOL), _mixed_terms(_POOL), _coeffs, _mixed_terms(_FOREST_POOL), _mixed_terms(_FOREST_POOL))
def test_arithmetic_stays_in_normal_form(ta, tb, s, fa, fb):
    sig, deg = _POOL[0].signature, _POOL[0].degree
    a, b = OperadElement(_GENS, ta, sig, deg), OperadElement(_GENS, tb, sig, deg)
    cases = [
        (a + b, [(1, ta), (1, tb)]),
        (a - b, [(1, ta), (-1, tb)]),
        (-a, [(-1, ta)]),
        (a.scale(s), [(s, ta)]),
        (s * b, [(s, tb)]),
    ]
    for result, parts in cases:
        assert_normal(result)
        ref = _raw(OperadElement, _GENS, _reference(*parts), sig, deg)
        assert result.terms == ref.terms and result == ref
        assert hash(result) == hash(ref)
        assert result.text() == ref.text() and result.text(compact=True) == ref.text(compact=True)
        assert json.dumps(element_to_json(result)) == json.dumps(element_to_json(ref))

    fmeta = (_FOREST_POOL[0].outputs, _FOREST_POOL[0].inputs, _FOREST_POOL[0].degree)
    x, y = ForestElement(_GENS, fa, *fmeta), ForestElement(_GENS, fb, *fmeta)
    for result, parts in ((x + y, [(1, fa), (1, fb)]), (x - y, [(1, fa), (-1, fb)]), (x.scale(s), [(s, fa)])):
        assert_normal(result)
        ref = _raw(ForestElement, _GENS, _reference(*parts), *fmeta)
        assert result == ref and hash(result) == hash(ref) and result.text() == ref.text()


# ---------------------------------------------------------------------------
# The normal form on the package's own outputs


def test_model_images_are_in_normal_form():
    for model in (build_ainf_morphism(7), build_homotopy_model(5), build_iso_resolution(6)):
        for img in model.images.values():
            assert_normal(img)
            assert_normal(model(img))


def test_rescaled_tails_are_in_normal_form():
    model = build_model_btow(rescaled_ainf(5, seed=3), 5)
    coeffs = [c for tail in model.tails.values() for c in tail.terms.values()]
    assert any(type(c) is Fraction for c in coeffs)  # the rescaling shows
    for tail in model.tails.values():
        assert_normal(tail)
    for img in model.images.values():
        assert_normal(img)


def test_symmetrized_polarization_is_in_normal_form():
    fams = polarization_iso_m2(build_iso_resolution(5), 4)
    halves = 0
    for table in fams.values():
        for elem in table.values():
            sym = symmetrize_forest(elem)
            assert_normal(elem)
            assert_normal(sym)
            halves += sum(c == Fraction(1, 2) for c in sym.terms.values())
    assert halves


def test_no_float_reaches_or_leaves_the_eliminator(monkeypatch):
    # Tail systems hold Fraction entries, and the pivot rows are Fractions.
    echelon = linalg._echelon
    seen_in, seen_out = set(), set()

    def spy(rows):
        rows = list(rows)
        seen_in.update(type(x) for row in rows for x in row.values())
        pivots = echelon(rows)
        seen_out.update(type(x) for row in pivots.values() for x in row.values())
        return pivots

    monkeypatch.setattr(linalg, "_echelon", spy)
    model = build_model_homotopy(build_model_btow(rescaled_ainf(4, seed=3), 4), 4)
    assert verify_d_squared(model).ok
    assert seen_in == seen_out == {Fraction}
