import random
from fractions import Fraction

import pytest

import operadkit.forests as forests
from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    collect_terms,
    compose_full,
)
from operadkit.differentials import DerivationDifferential, build_iso_resolution, iso_generator_specs
from operadkit.forests import (
    ForestElement,
    ForestMonomial,
    compose_forests,
    conjugate_forest,
    forest_differential,
    polarization_iso_m2,
    polarization_ns,
    symmetrize_forest,
    verify_polarization,
)

B, W = "B", "W"


def build_dull_operad():
    """Two parallel maps with a homotopy: p, q (degree 0) and h (degree 1), d(h) = p - q."""
    gens = GeneratorSet(
        ("B", "W"),
        [
            GeneratorSpec("p", Signature("W", ("B",)), 0),
            GeneratorSpec("q", Signature("W", ("B",)), 0),
            GeneratorSpec("h", Signature("W", ("B",)), 1),
        ],
    )
    p = OperadElement.from_generator(gens, "p")
    q = OperadElement.from_generator(gens, "q")
    return DerivationDifferential(gens, {"h": p - q})


def tensor_forests(a, b):
    """Juxtaposition a (x) b; bilinear, no sign (plain basis concatenation)."""
    terms = collect_terms(
        (ForestMonomial(a.gens, ma.components + mb.components), ca * cb)
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
    )
    return ForestElement(a.gens, terms, a.signature + b.signature, a.degree + b.degree)


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


def polarization_sym(gens, m):
    """Symmetrization of the staircase word over simultaneous slot permutations."""
    return symmetrize_forest(polarization_ns(gens, m))


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
        elem = ForestElement.zero(gens, words[0].signature, words[0].degree)
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


def test_a_one_vertex_outer_tree_composes_by_plain_grafting():
    # The tailed builders graft polarizations into one generator this way.
    # No vertex follows a leaf of a one-vertex tree, and a width-1 outer
    # forest has nothing to interchange with, so an odd outer generator over
    # odd components composes with no sign, term by term as compose_full.
    specs = [
        GeneratorSpec("x", Signature(W, (W, W, W)), 1),
        GeneratorSpec("p", Signature(W, (B,)), 0),
        GeneratorSpec("h", Signature(W, (B,)), 1),
        GeneratorSpec("m", Signature(B, (B, B)), 1),
    ]
    gens = GeneratorSet((B, W), specs)
    x = TreeMonomial.generator(gens, "x")
    p, h, pm, hm = (TreeMonomial(gens, s) for s in (("p", B), ("h", B), ("p", ("m", B, B)), ("h", ("m", B, B))))
    forest = (
        ForestElement.word(gens, [h, pm, h]).scale(2)
        + ForestElement.word(gens, [p, hm, h]).scale(-3)
        + ForestElement.word(gens, [h, hm, p]).scale(Fraction(1, 2))
    )
    assert [[t.degree for t in mono.components] for mono in forest.terms] == [[1, 1, 1], [0, 2, 1], [1, 2, 0]]
    got = compose_forests(ForestElement.word(gens, [x]), forest)
    want = [
        (tree, c * v)
        for mono, c in forest.terms.items()
        for tree, v in compose_full(x, [OperadElement.monomial(t) for t in mono.components]).terms.items()
    ]
    assert [(mono.components, c) for mono, c in got.terms.items()] == [((tree,), c) for tree, c in want]
    # a colour mismatch composes to zero, a width mismatch raises
    y = ForestElement.word(gens, [TreeMonomial.generator(gens, "m")])
    assert compose_forests(y, word(gens, "p", "p")).is_zero()
    with pytest.raises(ValueError, match="width mismatch"):
        compose_forests(ForestElement.word(gens, [x]), word(gens, "p", "p"))


def test_tensor_forests(dull):
    gens = dull.base
    assert tensor_forests(word(gens, "p"), word(gens, "q")) == word(gens, "p", "q")


def test_forest_accumulator(dull):
    gens = dull.base
    pq = ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in ("p", "q")])
    qp = ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in ("q", "p")])
    ph = ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in ("p", "h")])
    # repeated words merge, and a word that cancels is dropped
    elem = ForestElement(gens, collect_terms([(pq, 1), (qp, 2), (pq, Fraction(1, 2)), (qp, -2)]), pq.signature, 0)
    assert elem.terms == {pq: Fraction(3, 2)}
    # a sum that cancels completely keeps the component it was given
    zero = ForestElement(gens, collect_terms([(pq, 1), (pq, -1)]), pq.signature, pq.degree)
    assert zero.is_zero()
    assert (zero.signature, zero.degree) == (pq.signature, 0)
    assert pq.signature == ((W, (B,)), (W, (B,)))
    # words of different degrees do not mix
    with pytest.raises(ValueError, match="inhomogeneous"):
        ForestElement(gens, collect_terms([(pq, 1), (ph, 1)]), pq.signature, pq.degree)


def test_a_forest_is_homogeneous_in_each_component():
    # a (x) b and c (x) e have the same output and input colours in all, but
    # not component by component, so they do not lie in one component
    specs = [
        GeneratorSpec("a", Signature(W, (B, W)), 0),
        GeneratorSpec("b", Signature(W, (W,)), 0),
        GeneratorSpec("c", Signature(W, (B,)), 0),
        GeneratorSpec("e", Signature(W, (W, W)), 0),
    ]
    gens = GeneratorSet((B, W), specs)
    ab, ce = (ForestMonomial(gens, [TreeMonomial.generator(gens, n) for n in pair]) for pair in ("ab", "ce"))
    with pytest.raises(ValueError, match="inhomogeneous"):
        ForestElement(gens, {ab: 1, ce: 1}, ab.signature, ab.degree)
    with pytest.raises(ValueError, match="different components"):
        ForestElement.monomial(ab) + ForestElement.monomial(ce)
    assert ab.signature == ((W, (B, W)), (W, (W,)))


def test_forests_and_trees_do_not_mix(dull):
    # A forest element shares the arithmetic of a tree element, but the two
    # are different kinds of combination: they never compare equal or add.
    gens = dull.base
    assert ForestElement.zero(gens, ((W, (B,)),), 0) != OperadElement.zero(gens, Signature(W, (B,)), 0)
    p = TreeMonomial.generator(gens, "p")
    forest, tree = ForestElement.word(gens, [p]), OperadElement.monomial(p)
    assert forest != tree and tree != forest
    for left, right in ((forest, tree), (tree, forest)):
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    assert isinstance(forest + forest, ForestElement) and isinstance(forest.scale(2), ForestElement)


def test_iso_polarization_components():
    iso = build_iso_resolution(8)
    fams = polarization_iso_m2(iso.base, 7)
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
    fams = polarization_iso_m2(iso.base, 5)
    report = verify_polarization(fams, 5, iso)
    assert report.ok, str(report)


def _spy_on_forests(monkeypatch):
    """The component lists of every forest monomial built from now on."""
    built = []
    init = ForestMonomial.__init__

    def spy(self, gens, components):
        built.append(components)
        init(self, gens, components)

    monkeypatch.setattr(ForestMonomial, "__init__", spy)
    return built


def test_a_passing_polarization_check_builds_no_forest(monkeypatch):
    iso = build_iso_resolution(6)
    fams = polarization_iso_m2(iso.base, 5)
    built = _spy_on_forests(monkeypatch)
    assert verify_polarization(fams, 5, iso).ok
    assert built == []
    # the spy is live
    ForestElement.word(iso.base, [TreeMonomial.identity(iso.base, B)] * 2)
    assert len(built) == 1


def test_a_failing_polarization_check_builds_only_its_residual_terms(monkeypatch):
    # the symmetrized family fails its equations from degree 2 on (README)
    iso = build_iso_resolution(5)
    fams = polarization_iso_m2(iso.base, 5)
    fams = {k: {d: symmetrize_forest(v) for d, v in table.items()} for k, table in fams.items()}
    built = _spy_on_forests(monkeypatch)
    report = verify_polarization(fams, 5, iso)
    failing = [e for e in report.entries if not e.ok]
    assert failing
    # each residual term reads "coeff * forest", and a forest's text holds no " * "
    assert len(built) == sum(e.detail.count(" * ") for e in failing)


def test_verify_polarization_zeroed_h_fails_at_degree_zero():
    iso = build_iso_resolution(2)
    fams = polarization_iso_m2(iso.base, 1)
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
        polarization_iso_m2(iso.base, 5)


def test_the_truncation_check_looks_up_each_letter():
    # g_9_B is no iso letter: the truncation is still at index 2
    extra = GeneratorSpec("g_9_B", Signature(B, (B,)), 1)
    gens = GeneratorSet((B, W), [*iso_generator_specs(2), extra])
    want = "iso resolution truncated at index 2, below requested degree 5"
    with pytest.raises(ValueError, match=f"^{want}$"):
        polarization_iso_m2(gens, 5)


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
    out = ForestElement.zero(gens, elem.signature, elem.degree)
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
            out = out + ForestElement.word(gens, trees).scale(coeff)
    return out


def _rename_shape(shape):
    if isinstance(shape, str):
        return shape
    name = "p" if shape[0] == "q" else shape[0]
    return (name,) + tuple(_rename_shape(c) for c in shape[1:])


def test_forest_differential_derives_each_distinct_tree_once(monkeypatch):
    iso = build_iso_resolution(6)
    elem = polarization_iso_m2(iso.base, 6)["h"][5]
    occurrences = [t for mono in elem.terms for t in mono.components]
    derived = []
    leibniz = forests.leibniz_shapes

    def spy(diff, pairs):
        ((tree, _),) = pairs
        derived.append(tree)
        return leibniz(diff, pairs)

    monkeypatch.setattr(forests, "leibniz_shapes", spy)
    forest_differential(iso, elem)
    assert sorted(derived, key=lambda t: t.sort_key) == sorted(set(occurrences), key=lambda t: t.sort_key)
    assert len(occurrences) > len(derived)
