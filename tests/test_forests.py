import random
from fractions import Fraction

import pytest

import operadkit.forests as forests
from operadkit.core import TreeMonomial, collect_terms
from operadkit.differentials import build_iso_resolution
from operadkit.forests import (
    ForestElement,
    ForestMonomial,
    build_dull_operad,
    compose_forests,
    conjugate_forest,
    forest_differential,
    polarization_iso_m2,
    polarization_ns,
    polarization_sym,
    symmetrize_forest,
    tensor_forests,
    verify_polarization,
)

B, W = "B", "W"


@pytest.fixture(scope="module")
def dull():
    return build_dull_operad()


def word(gens, *names_per_slot):
    trees = []
    for names in names_per_slot:
        if names == ():
            raise ValueError
        if isinstance(names, str):
            names = (names,)
        shape = gens.spec(names[-1]).signature.inputs[0]
        for n in reversed(names):
            shape = (n, shape)
        trees.append(TreeMonomial(gens, shape))
    return ForestElement.word(gens, trees)


def test_polarization_ns_small(dull):
    gens = dull.base
    assert polarization_ns(gens, 1) == word(gens, "h")
    assert polarization_ns(gens, 2) == word(gens, "h", "q") + word(gens, "p", "h")
    assert polarization_ns(gens, 3) == (
        word(gens, "h", "q", "q") + word(gens, "p", "h", "q") + word(gens, "p", "p", "h")
    )
    with pytest.raises(ValueError):
        polarization_ns(gens, 0)


def test_polarization_sym_m2(dull):
    gens = dull.base
    got = polarization_sym(gens, 2)
    want = (
        word(gens, "h", "q") + word(gens, "p", "h") + word(gens, "q", "h") + word(gens, "h", "p")
    ).scale(Fraction(1, 2))
    assert got == want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_polarization_differential(dull, m):
    gens = dull.base
    p, q = (TreeMonomial.generator(gens, name) for name in "pq")
    want = ForestElement.word(gens, [p] * m) - ForestElement.word(gens, [q] * m)
    assert forest_differential(dull, polarization_ns(gens, m)) == want
    assert forest_differential(dull, polarization_sym(gens, m)) == want


def test_conjugation_is_an_involution_and_chain_map(dull):
    gens = dull.base
    rng = random.Random(0)
    letters = ("p", "q", "h")
    by_degree = {}
    for a in letters:
        for b in letters:
            deg = ("h" == a) + ("h" == b)
            by_degree.setdefault(deg, []).append(word(gens, a, b))
    for _ in range(50):
        words = by_degree[rng.choice((0, 1, 2))]
        elem = ForestElement.zero(gens)
        for w in rng.sample(words, min(3, len(words))):
            elem = elem + w.scale(rng.randint(-3, 3))
        back = conjugate_forest(conjugate_forest(elem, (1, 0)), (1, 0))
        assert back == elem
        # d commutes with conjugation
        lhs = forest_differential(dull, conjugate_forest(elem, (1, 0)))
        rhs = conjugate_forest(forest_differential(dull, elem), (1, 0))
        assert lhs == rhs


def test_conjugation_koszul_sign(dull):
    gens = dull.base
    hq = word(gens, "h", "q")
    assert conjugate_forest(hq, (1, 0)) == word(gens, "q", "h")
    hh = word(gens, "h", "h")
    assert conjugate_forest(hh, (1, 0)) == hh.scale(-1)


def test_forest_composition_interchange_sign():
    # composing odd-degree words across slots costs the interchange sign:
    # (a_1 (x) a_2) o (b_1 (x) b_2) = (-1)^{|b_1||a_2|} a_1 b_1 (x) a_2 b_2
    iso = build_iso_resolution(3)
    g = iso.base
    a = word(g, "f_1", "f_1")  # degrees (1, 1), both B -> B
    b = word(g, "f_1", "f_3")  # degrees (1, 3)
    lhs = compose_forests(a, b)
    want = word(g, ("f_1", "f_1"), ("f_1", "f_3")).scale(-1)  # |b_1| * |a_2| = 1
    assert lhs == want
    # even blocks compose without a sign
    c = word(g, "f_0", "f_0")
    d = word(g, "g_0", "g_0")
    assert compose_forests(d, c) == word(g, ("g_0", "f_0"), ("g_0", "f_0"))


def test_tensor_forests(dull):
    gens = dull.base
    assert tensor_forests(word(gens, "p"), word(gens, "q")) == word(gens, "p", "q")


def test_forest_accumulator(dull):
    gens = dull.base
    pq = ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in ("p", "q")])
    qp = ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in ("q", "p")])
    ph = ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in ("p", "h")])
    # repeated words merge, and a word that cancels is dropped
    elem = ForestElement(gens, collect_terms([(pq, 1), (qp, 2), (pq, Fraction(1, 2)), (qp, -2)]))
    assert elem.terms == {pq: Fraction(3, 2)}
    # a sum that cancels completely keeps the component it was given
    zero = ForestElement(gens, collect_terms([(pq, 1), (pq, -1)]), pq.outputs, pq.inputs, pq.degree)
    assert zero.is_zero()
    assert (zero.outputs, zero.inputs, zero.degree) == (pq.outputs, pq.inputs, 0)
    # words of different degrees do not mix
    with pytest.raises(ValueError, match="inhomogeneous"):
        ForestElement(gens, collect_terms([(pq, 1), (ph, 1)]))


def test_iso_polarization_components():
    iso = build_iso_resolution(8)
    fams = polarization_iso_m2(iso, 7)
    g = iso.base
    assert fams["f"][0] == word(g, "f_0", "f_0")
    assert fams["g"][0] == word(g, "g_0", "g_0")
    # degree-1 part of <h.>: f_1 (x) 1 + g_0 f_0 (x) f_1
    unit = TreeMonomial.identity(g, B)
    want = ForestElement.word(g, [TreeMonomial.generator(g, "f_1"), unit]) + word(
        g, ("g_0", "f_0"), "f_1"
    )
    assert fams["h"][1] == want
    assert 0 not in fams["h"]


def test_iso_polarization_identities_pass():
    iso = build_iso_resolution(6)
    fams = polarization_iso_m2(iso, 5)
    report = verify_polarization(fams, 5, iso)
    assert report.ok, str(report)


def test_verify_polarization_zeroed_h_fails_at_degree_zero():
    iso = build_iso_resolution(2)
    fams = polarization_iso_m2(iso, 1)
    fams["h"] = {}
    report = verify_polarization(fams, 1, iso)
    failing = {e.name: e for e in report.entries if not e.ok}
    assert "d<h.> equation, degree 0" in failing
    detail = failing["d<h.> equation, degree 0"].detail
    # residual is g_0 f_0 (x) g_0 f_0 - 1 (x) 1 (up to term order)
    assert "g_0(f_0)" in detail and "@1:B" in detail


def test_verify_polarization_truncation_guard():
    iso = build_iso_resolution(2)
    with pytest.raises(ValueError):
        polarization_iso_m2(iso, 5)


def test_degenerate_identity_wiring(dull):
    # under the wiring p = q, h = 0, the staircase vanishes and its
    # differential p^m - q^m collapses to zero, so the degenerate case is
    # consistent (the d-images vanish accordingly)
    gens = dull.base
    for m in (1, 2, 3):
        ns = polarization_ns(gens, m)
        collapsed = _wire_p_equals_q(ns)
        d_collapsed = _wire_p_equals_q(forest_differential(dull, ns))
        assert collapsed.is_zero()
        assert d_collapsed.is_zero()


def _wire_p_equals_q(elem):
    # replace q by p and h by 0, term by term
    gens = elem.gens
    out = ForestElement.zero(gens)
    for mono, coeff in elem.terms.items():
        trees = []
        dead = False
        for t in mono.components:
            names = t.vertex_names()
            if "h" in names:
                dead = True
                break
            shape = _rename_shape(t.shape)
            trees.append(TreeMonomial(gens, shape))
        if not dead:
            out = out + ForestElement.word(gens, trees, coeff)
    return out


def _rename_shape(shape):
    if isinstance(shape, str):
        return shape
    name = "p" if shape[0] == "q" else shape[0]
    return (name,) + tuple(_rename_shape(c) for c in shape[1:])


def test_forest_differential_derives_each_distinct_tree_once(monkeypatch):
    iso = build_iso_resolution(6)
    elem = polarization_iso_m2(iso, 6)["h"][5]
    occurrences = [t for mono in elem.terms for t in mono.components]
    derived = []
    extend = forests.extend_derivation

    def spy(diff, tree_elem):
        derived.append(next(iter(tree_elem.terms)))
        return extend(diff, tree_elem)

    monkeypatch.setattr(forests, "extend_derivation", spy)
    forest_differential(iso, elem)
    assert sorted(derived, key=lambda t: t.sort_key) == sorted(set(occurrences), key=lambda t: t.sort_key)
    assert len(occurrences) > len(derived)
