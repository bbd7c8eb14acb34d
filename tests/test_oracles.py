"""The Leibniz rule, forest grafting and multilinear composition against
plain reference versions.

`reference_extend_derivation` walks the vertex paths of each monomial,
recomputes every splice table and builds one validated monomial per term;
`reference_compose_forests` grafts each forest component through
`compose_full` on one-monomial elements; `reference_forest_differential`
differentiates every component occurrence anew.  The package versions
merge terms by shape, cache splice tables per differential, graft single
monomials directly and differentiate each distinct tree once.  Both sides
must give the same element: the same terms in the same insertion order,
with the same coefficients (type included), signature and degree.

`reference_compose_maps` walks the product of all stored inner blocks and
drops the combinations whose middle degrees meet no stored outer block;
`reference_multidegrees` filters the full product of source degrees.  The
package versions take only the inner blocks that land on a stored outer
block, and prune a prefix that no suffix can complete.  Both sides must
give equal maps, and the same multidegrees in the same order, since that
order is the column order of every transfer and homotopy system.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operadkit.reps as reps
from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    collect_terms,
    compose_full,
    leaf_suffix_degrees,
)
from operadkit.differentials import (
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    extend_derivation,
    rename_element,
)
from operadkit.forests import (
    ForestElement,
    ForestMonomial,
    compose_forests,
    forest_differential,
    polarization_iso_m2,
)
from operadkit.linalg import ChainComplex, kron_all
from operadkit.reps import MultilinearMap, compose_maps, identity_map
from operadkit.tails import build_model_btow
from test_core import enumerate_up_to

# ---------------------------------------------------------------------------
# References


def _plug(shape, pieces):
    if isinstance(shape, str):
        return next(pieces)
    return (shape[0],) + tuple(_plug(c, pieces) for c in shape[1:])


def _replace_at(shape, path, new):
    if not path:
        return new
    i = path[0] + 1
    return shape[:i] + (_replace_at(shape[i], path[1:], new),) + shape[i + 1 :]


def _shape_degree(gens, shape):
    if isinstance(shape, str):
        return 0
    return gens.spec(shape[0]).degree + sum(_shape_degree(gens, c) for c in shape[1:])


def _validated(gens, mono):
    checked = TreeMonomial(gens, mono.shape)
    if (checked.signature, checked.degree) != (mono.signature, mono.degree):
        raise ValueError(f"{mono.canonical()} changes component over the target generators")
    return checked


def reference_extend_derivation(diff, elem):
    base = diff.base
    pairs = []
    for mono, coeff in elem.terms.items():
        mono = _validated(base, mono)
        odd = 0
        for path, name, children in mono.vertices():
            child_degrees = [_shape_degree(base, c) for c in children]
            for u, u_coeff in diff.of(name).terms.items():
                suffixes = leaf_suffix_degrees(base, u.shape)
                reorder = sum(child_degrees[i] for i, s in enumerate(suffixes) if s % 2)
                tree = TreeMonomial(base, _replace_at(mono.shape, path, _plug(u.shape, iter(children))))
                c = coeff * u_coeff
                pairs.append((tree, -c if (odd + reorder) % 2 else c))
            odd += base.spec(name).degree
    deg = None if elem.degree is None else elem.degree - 1
    return OperadElement(base, collect_terms(pairs), signature=elem.signature, degree=deg)


def _reference_compose_monomials(outer, inner):
    blocks, pos = [], 0
    for t in outer.components:
        blocks.append(inner.components[pos : pos + t.arity])
        pos += t.arity
    if pos != inner.width:
        raise ValueError("width mismatch")
    sign, after = 0, 0
    for i in range(outer.width - 1, -1, -1):
        sign += sum(t.degree for t in blocks[i]) * after
        after += outer.components[i].degree
    coeff = -1 if sign % 2 else 1
    trees = []
    for t, block in zip(outer.components, blocks):
        if any(b.signature.output != c for c, b in zip(t.signature.inputs, block)):
            return None
        suffixes = leaf_suffix_degrees(t.gens, t.shape)
        if sum(b.degree * s for b, s in zip(block, suffixes)) % 2:
            coeff = -coeff
        ((tree, c),) = compose_full(t, [OperadElement.monomial(b) for b in block]).terms.items()
        coeff *= c
        trees.append(tree)
    return ForestMonomial(outer.gens, trees), coeff


def reference_compose_forests(outer, inner):
    pairs = []
    for mo, co in outer.terms.items():
        for mi, ci in inner.terms.items():
            res = _reference_compose_monomials(mo, mi)
            if res is not None:
                pairs.append((res[0], co * ci * res[1]))
    return ForestElement(outer.gens, collect_terms(pairs))


def reference_forest_differential(diff, elem):
    pairs = []
    for mono, coeff in elem.terms.items():
        prefix = 0
        for i, t in enumerate(mono.components):
            sign = -1 if prefix % 2 else 1
            for tree, c in reference_extend_derivation(diff, OperadElement.monomial(t)).terms.items():
                comps = list(mono.components)
                comps[i] = tree
                pairs.append((ForestMonomial(mono.gens, comps), coeff * c * sign))
            prefix += t.degree
    deg = None if elem.degree is None else elem.degree - 1
    return ForestElement(elem.gens, collect_terms(pairs), elem.outputs, elem.inputs, deg)


def reference_multidegrees(m):
    for key in product(*(c.degrees() for c in m.sources)):
        rows, cols = m.block_shape(key)
        if rows and cols:
            yield key


def reference_compose_maps(outer, inners):
    inners = list(inners)
    sources = tuple(c for t in inners for c in t.sources)
    degree = outer.degree + sum(t.degree for t in inners)
    deg_after = [sum(t.degree for t in inners[i + 1 :]) for i in range(len(inners))]
    blocks = {}
    for parts in product(*(t.blocks.items() for t in inners)):
        key, mids, sign = (), [], 0
        for (chunk, _), t, after in zip(parts, inners, deg_after):
            key += chunk
            mids.append(sum(chunk) + t.degree)
            sign += sum(chunk) * after
        fblock = outer.blocks.get(tuple(mids))
        if fblock is None:
            continue
        mat = fblock.mul(kron_all([block for _, block in parts]))
        if not mat.is_zero():
            blocks[key] = mat.scale(-1 if sign % 2 else 1)
    return MultilinearMap(sources, outer.target, degree, blocks)


def tree_snapshot(elem):
    return (
        elem.signature,
        elem.degree,
        [(m.shape, m.signature, m.degree, m.nvertices, type(c), c) for m, c in elem.terms.items()],
    )


def forest_snapshot(elem):
    return (
        elem.outputs,
        elem.inputs,
        elem.degree,
        [
            ([(t.shape, t.signature, t.degree, t.nvertices) for t in m.components], type(c), c)
            for m, c in elem.terms.items()
        ],
    )


# ---------------------------------------------------------------------------
# Draws

# Arities 6 and 5 reach trees whose splices carry an orientation sign, such
# as mu_4(mu_3, 1, 1, 1) and nu_4(f_2, f_1, f_1, f_1).
BUILDERS = {
    "ainf6": lambda: build_ainf(6),
    "morphism5": lambda: build_ainf_morphism(5),
    "homotopy3": lambda: build_homotopy_model(3),
    "iso4": lambda: build_iso_resolution(4),
    "tailed4": lambda: build_model_btow(build_ainf(4), 4),
}
COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@lru_cache(maxsize=None)
def model(name):
    return BUILDERS[name]()


@lru_cache(maxsize=None)
def components(name):
    """(signature, degree, monomials) of each generator's own component and
    of its image's, with the image's monomials and trees of up to four
    vertices."""
    d = model(name)
    out = []
    for g in d.base.generators:
        for deg in (g.degree, g.degree - 1):
            monos = enumerate_up_to(d.base, g.signature, deg, 4)
            if deg < g.degree:
                monos = list(dict.fromkeys(list(d.of(g.name).terms) + monos))
            if monos:
                out.append((g.signature, deg, tuple(monos)))
    return out


@lru_cache(maxsize=None)
def look_alike_base(name):
    """A second generator set equal to the model's: its monomials are
    foreign to the model and have to be validated again."""
    gens = model(name).base
    return GeneratorSet(gens.colors, [GeneratorSpec(g.name, g.signature, g.degree) for g in gens.generators])


@st.composite
def elements(draw):
    """(model, element): a random combination in one component (repeated
    monomials merge, and may cancel), a generator image (its derivative
    cancels to zero), or a zero element with or without a declared
    component; sometimes moved onto the look-alike generator set."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    d = model(name)
    kind = draw(st.sampled_from(["combination", "combination", "image", "zero"]))
    if kind == "image":
        elem = d.of(draw(st.sampled_from([g.name for g in d.base.generators])))
    elif kind == "zero":
        if draw(st.booleans()):
            return d, OperadElement.zero(d.base)
        sig, deg, _ = draw(st.sampled_from(components(name)))
        elem = OperadElement.zero(d.base, sig, deg)
    else:
        sig, deg, monos = draw(st.sampled_from(components(name)))
        picks = draw(st.lists(st.tuples(st.sampled_from(monos), COEFFS), min_size=1, max_size=6))
        elem = OperadElement(d.base, collect_terms(picks), signature=sig, degree=deg)
    if draw(st.booleans()):
        elem = rename_element(elem, look_alike_base(name), {})
    return d, elem


def _forest(draw, d, slots):
    """A forest element whose component i is drawn from slots[i]'s monomials."""
    terms = draw(st.integers(1, 3))
    pairs = [
        (ForestMonomial(d.base, [draw(st.sampled_from(monos)) for _, _, monos in slots]), draw(COEFFS))
        for _ in range(terms)
    ]
    return ForestElement(d.base, collect_terms(pairs))


@st.composite
def forest_pairs(draw):
    """(model, outer, inner) forest elements with matching widths; the
    colors of an inner slot match its outer leaf only sometimes."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    d = model(name)
    comps = components(name)
    outer_slots = draw(st.lists(st.sampled_from(comps), min_size=1, max_size=3))
    inner_slots = []
    for sig, _, _ in outer_slots:
        for color in sig.inputs:
            matching = [c for c in comps if c[0].output == color]
            pool = matching if matching and draw(st.integers(0, 4)) else comps
            inner_slots.append(draw(st.sampled_from(pool)))
    return d, _forest(draw, d, outer_slots), _forest(draw, d, inner_slots)


@st.composite
def graded_spaces(draw):
    """A complex over one to three degrees in -3..2, with gaps, and
    sometimes over none.  Composition never reads the differential, so it is
    zero."""
    if not draw(st.integers(0, 7)):
        return ChainComplex({})
    degrees = draw(st.lists(st.integers(-3, 2), min_size=1, max_size=3, unique=True))
    return ChainComplex({k: draw(st.integers(1, 2)) for k in degrees})


def _random_map(draw, sources, target):
    """A map with each block stored or missing, and entries drawn from -1,
    0, 1, 2 and 1/2 (a block that is all zeros is not stored either).  Its
    degree mostly puts some block on a degree of the target."""
    sums = {sum(key) for key in product(*(c.degrees() for c in sources))}
    landing = sorted({k - s for k in target.dims for s in sums})
    degree = draw(st.sampled_from(landing) if landing and draw(st.integers(0, 3)) else st.integers(-2, 2))
    rng = draw(st.randoms(use_true_random=False))
    template = MultilinearMap(sources, target, degree)
    blocks = {}
    for key in reference_multidegrees(template):
        if rng.random() < 0.8:
            rows, cols = template.block_shape(key)
            blocks[key] = [[rng.choice((0, 1, -1, 2, Fraction(1, 2))) for _ in range(cols)] for _ in range(rows)]
    return MultilinearMap(sources, target, degree, blocks)


@st.composite
def compositions(draw):
    """(outer, inners): an outer map of arity 0-4 over a pool of complexes,
    and one inner map per slot whose target is that slot's complex, of
    arity 0-2 and at most four sources in all; some inners are identities."""
    pool = draw(st.lists(graded_spaces(), min_size=1, max_size=3))
    arity = draw(st.sampled_from((2, 3, 1, 4, 0)))
    outer = _random_map(draw, [draw(st.sampled_from(pool)) for _ in range(arity)], draw(st.sampled_from(pool)))
    inners, budget = [], 4
    for c in outer.sources:
        n = draw(st.sampled_from([n for n in (1, 2, 0) if n <= budget]))
        if n == 1 and draw(st.booleans()):
            inners.append(identity_map(c))
        else:
            inners.append(_random_map(draw, [draw(st.sampled_from(pool)) for _ in range(n)], c))
        budget -= n
    return outer, inners


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=300, deadline=None)
@given(elements())
def test_extend_derivation_matches_reference(drawn):
    d, elem = drawn
    got = extend_derivation(d, elem)
    assert tree_snapshot(got) == tree_snapshot(reference_extend_derivation(d, elem))
    assert all(m.gens is d.base for m in got.terms)


@settings(max_examples=200, deadline=None)
@given(forest_pairs())
def test_compose_forests_matches_reference(drawn):
    _, outer, inner = drawn
    got = compose_forests(outer, inner)
    assert forest_snapshot(got) == forest_snapshot(reference_compose_forests(outer, inner))


@settings(max_examples=150, deadline=None)
@given(forest_pairs())
def test_forest_differential_matches_reference(drawn):
    d, outer, inner = drawn
    for elem in (outer, inner):
        got = forest_differential(d, elem)
        assert forest_snapshot(got) == forest_snapshot(reference_forest_differential(d, elem))


@pytest.mark.parametrize("max_degree", [3, 5])
def test_polarization_forests_match_reference(max_degree):
    # the words verify_polarization multiplies, where trees repeat across terms
    iso = build_iso_resolution(max_degree)
    fams = polarization_iso_m2(iso, max_degree)
    words = [f for table in fams.values() for f in table.values()]
    for outer in words:
        for inner in words:
            got = compose_forests(outer, inner)
            assert forest_snapshot(got) == forest_snapshot(reference_compose_forests(outer, inner))
        got = forest_differential(iso, outer)
        assert forest_snapshot(got) == forest_snapshot(reference_forest_differential(iso, outer))


def test_look_alike_forest_component_is_rejected():
    # f_1 with two inputs is a valid tree over the look-alike only
    d = build_ainf_morphism(2)
    gens = d.base
    specs = [
        GeneratorSpec(g.name, Signature("W", ("B", "B")) if g.name == "f_1" else g.signature, g.degree)
        for g in gens.generators
    ]
    foreign = TreeMonomial(GeneratorSet(gens.colors, specs), ("f_1", "B", "B"))
    outer = ForestElement.word(gens, [TreeMonomial.generator(gens, "nu_2")])
    inner = ForestElement.word(gens, [foreign, TreeMonomial.generator(gens, "f_1")])
    with pytest.raises(ValueError):
        compose_forests(outer, inner)
    with pytest.raises(ValueError):
        reference_compose_forests(outer, inner)


@settings(max_examples=300, deadline=None)
@given(compositions())
def test_compose_maps_matches_reference(drawn):
    outer, inners = drawn
    calls = []

    def counting(mats):
        calls.append(len(mats))
        return kron_all(mats)

    with mock.patch.object(reps, "kron_all", counting):
        got = compose_maps(outer, inners)
    ref = reference_compose_maps(outer, inners)
    assert got == ref and got.sources == ref.sources and got.target is ref.target
    # One Kronecker product per combination of inner blocks under a stored
    # outer block, and none for a combination that meets no stored block.
    assert len(calls) == sum(
        prod(sum(sum(chunk) + t.degree == mid for chunk in t.blocks) for t, mid in zip(inners, mids))
        for mids in outer.blocks
    )
    for m in (outer, *inners, got):
        assert list(m.multidegrees()) == list(reference_multidegrees(m))
