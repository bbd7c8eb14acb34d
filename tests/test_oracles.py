"""The Leibniz rule, the model builders, forest grafting and multilinear
composition against plain reference versions.

`reference_extend_derivation` walks the vertex paths of each monomial,
recomputes every splice table and builds one validated monomial per term;
`reference_compose_forests` grafts each forest component through
`compose_full` on one-monomial elements; `reference_forest_differential`
differentiates every component occurrence anew; the `reference_build_*`
model builders sum `graft` and `compose_full` products as elements.  The
package versions merge terms by shape, cache splice tables per
differential, graft bare shapes directly and differentiate each distinct
tree once.  Both sides must give the same element: the same terms in the
same insertion order, with the same coefficients (type included),
signature and degree.

`reference_compose_maps` walks the product of all stored inner blocks and
drops the combinations whose middle degrees meet no stored outer block;
`reference_multidegrees` filters the full product of source degrees.  The
package versions take only the inner blocks that land on a stored outer
block, and prune a prefix that no suffix can complete.  Both sides must
give equal maps, and the same multidegrees in the same order, since that
order is the column order of every transfer and homotopy system.

`reference_echelon` is the eliminator before it became fraction free: each
pivot is inverted as a Fraction and its row scaled to 1 there.  The
package's `_echelon` keeps every row as ints and stores each pivot row
primitive; both must have the same pivot columns and the same row space.

`reference_check_homotopy` checks each endpoint of a homotopy by renaming
p (or q) to f in a separate morphism model and checking that
representation on its own, then checks the whole representation.  The
package's `check_homotopy` reads both endpoint verdicts off its one axiom
pass; both must give the same verdicts and the same generator entries.

`reference_homology_coordinates` solves [d_{k+1} | iota_k] x = z for one
cycle z and reads its class's coordinates off the iota_k part, and
`reference_is_quasi_iso` compares homology dimensions, dim ker d_k less
rank d_{k+1}, and the rank that F_1(cycles of V) adds to the boundaries
of W; neither calls the package's homology code.  The package computes
the projection p of the homology retract (H, iota, p) once per degree and
tests that p_W o F_1 o iota_V is square and of full rank; p must give the
same coordinates on every cycle, and both tests the same verdict.

`reference_joint_extension_system` is the extension step's system as it
was written by hand for the morphism model: it names nu_{K+1}, f_{K+1} and
f_1 and writes the one principal term nu_{K+1}(f_1, ..., f_1) itself.  The
package's `extend_layer` reads every term holding an unknown off the model
and assembles through `_layer_system`; both must give the same matrix, row
dict for row dict, and the same right-hand side.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import operadkit.reps as reps
import operadkit.transfer as T
from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    _shape_walk,
    collect_terms,
    compose_full,
    graft,
    leaf_suffix_degrees,
)
from operadkit.differentials import (
    DerivationDifferential,
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    extend_derivation,
    rename_element,
    verify_d_squared,
)
from operadkit.differentials import compositions as integer_compositions
from operadkit.forests import (
    ForestElement,
    ForestMonomial,
    compose_forests,
    forest_differential,
    polarization_iso_m2,
    symmetrize_forest,
)
from operadkit.linalg import (
    ChainComplex,
    RationalMatrix,
    _echelon,
    kernel_basis,
    kron_all,
    rank,
    solve_linear,
)
from operadkit.reps import MultilinearMap, compose_maps, evaluate_element, hom_differential, identity_map, zero_map
from operadkit.tails import build_model_btow
from operadkit.transfer import extension_step, homology_complex, is_quasi_iso, scenario_symmetrization
from test_core import enumerate_up_to
from test_linalg import _conjugated_complex, mul_vec
from test_reps import random_map, random_representation, strict_dga_rep
from test_transfer import (
    class_killing_map,
    four_dim_dga,
    invertible_chain_map,
    koszul_dga,
    layer_systems,
    three_dim_dga,
)

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
        raise ValueError(f"{mono.compact()} changes component over the target generators")
    return checked


def reference_extend_derivation(diff, elem):
    base = diff.base
    pairs = []
    for mono, coeff in elem.terms.items():
        mono = _validated(base, mono)
        odd = 0
        for path, name, children in _shape_walk(mono.shape):
            child_degrees = [_shape_degree(base, c) for c in children]
            for u, u_coeff in diff.of(name).terms.items():
                suffixes = leaf_suffix_degrees(base, u.shape)
                reorder = sum(child_degrees[i] for i, s in enumerate(suffixes) if s % 2)
                tree = TreeMonomial(base, _replace_at(mono.shape, path, _plug(u.shape, iter(children))))
                c = coeff * u_coeff
                pairs.append((tree, -c if (odd + reorder) % 2 else c))
            odd += base.spec(name).degree
    return OperadElement(base, collect_terms(pairs), elem.signature, elem.degree - 1)


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
    sig, rest = [], list(inner.signature)
    for output, inputs in outer.signature:
        block, rest = rest[: len(inputs)], rest[len(inputs) :]
        sig.append((output, sum((ins for _, ins in block), ())))
    return ForestElement(outer.gens, collect_terms(pairs), tuple(sig), outer.degree + inner.degree)


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
    return ForestElement(elem.gens, collect_terms(pairs), elem.signature, elem.degree - 1)


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


# The model builders in element algebra: every product is an OperadElement
# from `graft` or `compose_full`, and each image the sum of those parts.


def _reference_image(gens, name, parts):
    spec = gens.spec(name)
    terms = collect_terms((m, c * v) for c, elem in parts for m, v in elem.terms.items())
    return OperadElement(gens, terms, spec.signature, spec.degree - 1)


def _reference_insertions(gens, outer, inner, m, first, sign):
    for i in range(first, m):
        j = m + 1 - i
        gi = TreeMonomial.generator(gens, f"{outer}_{i}")
        gj = TreeMonomial.generator(gens, f"{inner}_{j}")
        for s in range(0, m - j + 1):
            yield (-sign if (i + s * (j + 1)) % 2 else sign), graft(gi, s + 1, gj)


def _reference_quadratic(gens, family, m):
    return _reference_image(gens, f"{family}_{m}", _reference_insertions(gens, family, family, m, 2, 1))


def _reference_morphism_image(gens, m, fam):
    parts = []
    for k in range(2, m + 1):
        nu_k = TreeMonomial.generator(gens, f"nu_{k}")
        for r in integer_compositions(m, k):
            e = sum(r[i] * (r[j] + 1) for i in range(k) for j in range(i + 1, k))
            word = [OperadElement.from_generator(gens, f"{fam}_{ri}") for ri in r]
            parts.append((-1 if e % 2 == 0 else 1, compose_full(nu_k, word)))
    parts += _reference_insertions(gens, fam, "mu", m, 1, -1)
    return _reference_image(gens, f"{fam}_{m}", parts)


def _reference_homotopy_image(gens, m):
    parts = [(1, OperadElement.from_generator(gens, f"p_{m}")), (-1, OperadElement.from_generator(gens, f"q_{m}"))]
    for k in range(2, m + 1):
        nu_k = TreeMonomial.generator(gens, f"nu_{k}")
        for r in integer_compositions(m, k):
            base = sum(r[i] * (r[j] + 1) for i in range(k) for j in range(i + 1, k))
            for s in range(0, k):
                eps = base + sum(r[:s]) + k + s
                names = [f"p_{ri}" for ri in r[:s]] + [f"h_{r[s]}"] + [f"q_{ri}" for ri in r[s + 1 :]]
                word = [OperadElement.from_generator(gens, n) for n in names]
                parts.append((-1 if eps % 2 else 1, compose_full(nu_k, word)))
    parts += _reference_insertions(gens, "h", "mu", m, 1, 1)
    return _reference_image(gens, f"h_{m}", parts)


def _two_colour_specs(k, unary):
    """mu_i, nu_i for 2 <= i <= k, then for 1 <= i <= k the (family, degree
    shift) pairs in `unary`, all B^i -> W."""
    specs = []
    for i in range(2, k + 1):
        specs.append(GeneratorSpec(f"mu_{i}", Signature("B", ("B",) * i), i - 2))
        specs.append(GeneratorSpec(f"nu_{i}", Signature("W", ("W",) * i), i - 2))
    for i in range(1, k + 1):
        specs += [GeneratorSpec(f"{fam}_{i}", Signature("W", ("B",) * i), i - 1 + shift) for fam, shift in unary]
    return specs


def reference_build_ainf(k):
    gens = GeneratorSet(("B",), [GeneratorSpec(f"mu_{i}", Signature("B", ("B",) * i), i - 2) for i in range(2, k + 1)])
    return DerivationDifferential(gens, {f"mu_{m}": _reference_quadratic(gens, "mu", m) for m in range(2, k + 1)})


def reference_build_ainf_morphism(k):
    gens = GeneratorSet(("B", "W"), _two_colour_specs(k, [("f", 0)]))
    images = {f"{fam}_{m}": _reference_quadratic(gens, fam, m) for m in range(2, k + 1) for fam in ("mu", "nu")}
    images.update({f"f_{m}": _reference_morphism_image(gens, m, "f") for m in range(1, k + 1)})
    return DerivationDifferential(gens, images)


def reference_build_homotopy_model(k):
    gens = GeneratorSet(("B", "W"), _two_colour_specs(k, [("p", 0), ("q", 0), ("h", 1)]))
    images = {f"{fam}_{m}": _reference_quadratic(gens, fam, m) for m in range(2, k + 1) for fam in ("mu", "nu")}
    for m in range(1, k + 1):
        images[f"p_{m}"] = _reference_morphism_image(gens, m, "p")
        images[f"q_{m}"] = _reference_morphism_image(gens, m, "q")
        images[f"h_{m}"] = _reference_homotopy_image(gens, m)
    return DerivationDifferential(gens, images)


def reference_build_iso_resolution(k):
    specs = []
    for i in range(0, k + 1):
        specs.append(GeneratorSpec(f"f_{i}", Signature("W" if i % 2 == 0 else "B", ("B",)), i))
        specs.append(GeneratorSpec(f"g_{i}", Signature("B" if i % 2 == 0 else "W", ("W",)), i))
    gens = GeneratorSet(("B", "W"), specs)

    def comp(a, b):
        return graft(TreeMonomial.generator(gens, a), 1, TreeMonomial.generator(gens, b))

    images = {}
    for fam, other, home in (("f", "g", "B"), ("g", "f", "W")):
        if k >= 1:
            images[f"{fam}_1"] = comp(f"{other}_0", f"{fam}_0") - OperadElement.monomial(TreeMonomial.identity(gens, home))
        for n in range(2, k + 1):
            if n % 2 == 0:
                m = n // 2
                parts = []
                for i in range(0, m):
                    parts.append((1, comp(f"{fam}_{2 * i}", f"{fam}_{2 * (m - i) - 1}")))
                    parts.append((-1, comp(f"{other}_{2 * (m - i) - 1}", f"{fam}_{2 * i}")))
            else:
                m = (n - 1) // 2
                parts = [(1, comp(f"{other}_{2 * j}", f"{fam}_{2 * (m - j)}")) for j in range(0, m + 1)]
                parts += [(-1, comp(f"{fam}_{2 * j + 1}", f"{fam}_{2 * (m - j) - 1}")) for j in range(0, m)]
            images[f"{fam}_{n}"] = _reference_image(gens, f"{fam}_{n}", parts)
    return DerivationDifferential(gens, images)


def tree_snapshot(elem):
    return (
        elem.signature,
        elem.degree,
        [(m.shape, m.signature, m.degree, m.nvertices, type(c), c) for m, c in elem.terms.items()],
    )


def forest_snapshot(elem):
    return (
        elem.signature,
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
    cancels to zero), or the zero element of a component; sometimes moved
    onto the look-alike generator set."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    d = model(name)
    kind = draw(st.sampled_from(["combination", "combination", "image", "zero"]))
    if kind == "image":
        elem = d.of(draw(st.sampled_from([g.name for g in d.base.generators])))
    elif kind == "zero":
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
    sig = tuple((s.output, s.inputs) for s, _, _ in slots)
    return ForestElement(d.base, collect_terms(pairs), sig, sum(deg for _, deg, _ in slots))


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


@pytest.mark.parametrize(
    "build, reference, low",
    [
        (build_ainf, reference_build_ainf, 2),
        (build_ainf_morphism, reference_build_ainf_morphism, 1),
        (build_homotopy_model, reference_build_homotopy_model, 1),
        (build_iso_resolution, reference_build_iso_resolution, 0),
    ],
    ids=["ainf", "morphism", "homotopy", "iso"],
)
def test_shape_built_models_match_the_element_algebra_builders(build, reference, low):
    # the same generators, and generator by generator the same image: the
    # same terms in the same order, with the same coefficients (type included)
    for k in range(low, 7):
        got, want = build(k), reference(k)
        assert [(g.name, g.signature, g.degree) for g in got.base.generators] == [
            (g.name, g.signature, g.degree) for g in want.base.generators
        ]
        for g in want.base.generators:
            assert tree_snapshot(got.of(g.name)) == tree_snapshot(want.of(g.name)), (k, g.name)


@pytest.mark.parametrize("max_degree", [3, 5])
def test_polarization_forests_match_reference(max_degree):
    # the words verify_polarization multiplies, where trees repeat across
    # terms, and their symmetrized forms, whose coefficients are Fractions
    iso = build_iso_resolution(max_degree)
    fams = polarization_iso_m2(iso.base, max_degree)
    words = [f for table in fams.values() for f in table.values()]
    words += [symmetrize_forest(f) for f in words]
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


# ---------------------------------------------------------------------------
# The eliminator against its Fraction form


def reference_echelon(rows) -> dict:
    """{pivot column: row}, with every row scaled to 1 at its pivot by a
    Fraction inverse; rows taken sparsest first and consumed."""
    pivots = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = Fraction(1) / row[col]
                pivots[col] = {j: x * inv for j, x in row.items()}
                break
            f = row.pop(col)
            for j, y in prow.items():
                if j != col:
                    x = row.get(j, 0) - f * y
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
    return pivots


def _in_span(pivots: dict, row: dict) -> bool:
    """Whether `row` reduces to zero against pivot rows that are 1 at their pivots."""
    row = dict(row)
    while row:
        col = min(row)
        if col not in pivots:
            return False
        f = row.pop(col)
        for j, y in pivots[col].items():
            if j != col:
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return True


_entry = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def sparse_rows(draw):
    cols = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, cols - 1), _entry.filter(bool), max_size=cols)
    return draw(st.lists(row, max_size=7))


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_pivot_rows_are_primitive_and_span_the_reference_rows(rows):
    given_rows = [dict(r) for r in rows]
    pivots = _echelon(given_rows)
    assert given_rows == rows  # each row is copied as it is taken in
    ref = reference_echelon([dict(r) for r in rows])
    assert sorted(pivots) == sorted(ref)
    for col, row in pivots.items():
        assert min(row) == col and row[col] > 0
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        # Same pivot columns, so equal dimensions: containment is equality.
        assert _in_span(ref, row)


# ---------------------------------------------------------------------------
# The homotopy checker against its endpoint-restriction form


def _reference_lowest(entries, order):
    """The failing entry name least by (arity, family order), or None."""
    failing = [e.name for e in entries if not e.ok]
    if not failing:
        return None

    def key(name):
        family, _, k = name.partition("_")
        return int(k), order[family]

    return min(failing, key=key)


def reference_check_homotopy(rep):
    """(side verdicts, generator entries) of the homotopy check, by
    restriction: each endpoint family p or q is renamed f in a separate
    morphism model, whose representation is checked on its own; the entries
    of the full pass are sorted by (arity, family, name).  A side verdict is
    (ok, its lowest failure renamed back to p or q)."""
    max_arity = max(g.signature.arity for g in rep.model.base.generators)
    morphism = build_ainf_morphism(max_arity)
    sides = []
    for letter in ("p", "q"):
        images = {}
        for g in morphism.base.generators:
            family, _, k = g.name.partition("_")
            images[g.name] = rep.images[f"{letter}_{k}" if family == "f" else g.name]
        side = reps.check_representation(reps.Representation(morphism, rep.complexes, images))
        lowest = _reference_lowest(side.entries, {"mu": 0, "nu": 1, "f": 2})
        if lowest is not None and lowest.startswith("f_"):
            lowest = letter + lowest[1:]
        sides.append((side.ok, lowest or ""))
    order = {"mu": 0, "nu": 1, "p": 2, "q": 3, "h": 4}

    def sort_key(e):
        family, _, k = e.name.partition("_")
        return int(k), order[family], e.name

    entries = sorted(reps.check_representation(rep).entries, key=sort_key)
    return sides, [(e.name, e.ok, e.detail) for e in entries]


def _reflexive_homotopy(max_arity):
    """p = q = the identity of a strict dga, h = 0: every axiom holds."""
    model = build_homotopy_model(max_arity)
    u, mu, _ = strict_dga_rep(model)
    w = ChainComplex(dict(u.dims), dict(u.d), "W")
    images = {"mu_2": mu, "nu_2": MultilinearMap((w, w), w, 0, dict(mu.blocks))}
    images["p_1"] = images["q_1"] = MultilinearMap((u,), w, 0, identity_map(u).blocks)
    return reps.Representation(model, {"B": u, "W": w}, images)


def _with_one_image_replaced(rng, rep):
    g = rng.choice(rep.model.base.generators)
    sources = rep.sources_for(g.signature)
    images = dict(rep.images)
    images[g.name] = random_map(rng, sources, rep.complexes[g.signature.output], g.degree, -1, 1)
    return reps.Representation(rep.model, rep.complexes, images)


def homotopy_cases():
    """Seeded homotopy representations: reflexive ones, random ones, and
    copies of both with one image replaced by a random map."""
    rng = random.Random(20)
    for max_arity in (3, 4):
        valid = _reflexive_homotopy(max_arity)
        yield valid
        for _ in range(8):
            yield _with_one_image_replaced(rng, valid)
        rand = random_representation(rng, build_homotopy_model(max_arity), (1, 1, 1))
        yield rand
        yield _with_one_image_replaced(rng, rand)


def test_check_homotopy_matches_the_restriction_reference():
    verdicts = set()
    for rep in homotopy_cases():
        report = reps.check_homotopy(rep)
        sides, entries = reference_check_homotopy(rep)
        assert [(e.ok, e.detail) for e in report.entries[:2]] == sides
        assert [(e.name, e.ok, e.detail) for e in report.entries[2:]] == entries
        verdicts.add(tuple(ok for ok, _ in sides) + (report.ok,))
    # The cases reach a passing report, a failing one with both sides
    # passing, and failing sides.
    assert {(True, True, True), (True, True, False)} <= verdicts
    assert any(not (p and q) for p, q, _ in verdicts)


def _lowest_failure(report):
    """The first failing entry of least trailing index, names without one last."""
    best = None
    for e in report.entries:
        if e.ok:
            continue
        family, _, k = e.name.rpartition("_")
        key = (0, int(k)) if family and k.isdigit() else (1, 0)
        if best is None or key < best[0]:
            best = (key, e.name)
    return None if best is None else best[1]


def test_first_failure_names_the_lowest_failing_generator():
    # D^2(mu_3) = 0 for any sign of D(mu_3), since D(mu_2) = 0; a flipped
    # sign shows first in D^2(mu_4).
    d = build_ainf(4)
    mu2 = TreeMonomial.generator(d.base, "mu_2")
    images = dict(d.images)
    images["mu_3"] = graft(mu2, 1, mu2) + graft(mu2, 2, mu2)
    dsq = verify_d_squared(DerivationDifferential(d.base, images))
    assert dsq.first_failure == "mu_4"

    valid = _reflexive_homotopy(3)
    broken = dict(valid.images)
    u, w = valid.complexes["B"], valid.complexes["W"]
    broken["p_2"] = broken["q_2"] = MultilinearMap((u, u), w, 1, {(0, 0): [[1, 0, 0, 0]]})
    homotopy = reps.check_homotopy(reps.Representation(valid.model, valid.complexes, broken))
    assert homotopy.first_failure == "p_2"
    assert [e.line() for e in homotopy.entries[:2]] == [
        "FAIL  p-side morphism  p_2",
        "FAIL  q-side morphism  q_2",
    ]

    rng = random.Random(7)
    morphism = random_representation(rng, build_ainf_morphism(3), (1, 1))
    iso = random_representation(rng, build_iso_resolution(3), (1, 1))
    reports = [dsq, verify_d_squared(d), homotopy, reps.check_homotopy(valid)]
    reports += [reps.check_sh_morphism(morphism), reps.check_sh_equivalence(iso)]
    reports += [reps.check_homotopy(rep) for rep in homotopy_cases()]
    assert {r.ok for r in reports} == {True, False}
    for report in reports:
        assert (report.first_failure is None) == report.ok
        assert report.first_failure == _lowest_failure(report)


# ---------------------------------------------------------------------------
# The homology retract against per-vector coordinates and a rank test


def side_by_side(a, b):
    """The matrix [a | b]."""
    return RationalMatrix([x + y for x, y in zip(a.entries, b.entries)], cols=a.cols + b.cols)


def reference_homology_coordinates(c, k, iota_k, vector):
    """Coordinates of a cycle's class in the representative basis, the
    columns of iota_k: the iota_k part of a solution of
    [d_{k+1} | iota_k] x = vector, unique because the representatives are
    independent modulo the boundaries."""
    d = c.differential(k + 1)
    x = solve_linear(side_by_side(d, iota_k), vector)
    if x is None:
        raise ValueError("vector is not a cycle (or not in the chain space)")
    return x[d.cols:]


def reference_is_quasi_iso(f1):
    """H_k(F_1) is an isomorphism exactly when H_k(V) and H_k(W) have one
    dimension h and F_1 maps the cycles of V onto h dimensions modulo the
    boundaries of W: rank [d_{k+1} of W | F_1(cycles of V)] is
    rank d_{k+1} + h.  Dimensions are dim ker d_k - rank d_{k+1}."""
    if not hom_differential(f1).is_zero():
        return False
    (v,), w = f1.sources, f1.target
    for k in sorted(set(v.degrees()) | set(w.degrees())):
        cycles_v = kernel_basis(v.differential(k))
        h = len(cycles_v) - rank(v.differential(k + 1))
        bounds_w = w.differential(k + 1)
        if h != len(kernel_basis(w.differential(k))) - rank(bounds_w):
            return False
        if not h:
            continue
        image = f1.block((k,)).mul(RationalMatrix.from_columns(cycles_v, v.dim(k)))
        if rank(side_by_side(bounds_w, image)) != rank(bounds_w) + h:
            return False
    return True


def test_homology_retract_matches_the_coordinate_reference():
    rng = random.Random(17)
    complexes = [three_dim_dga()[0], four_dim_dga()[0], koszul_dga()[0]]
    complexes += [_conjugated_complex(rng)[0] for _ in range(30)]
    verdicts = []
    cycles = 0
    for c in complexes:
        h, iota, p = homology_complex(c)
        assert compose_maps(p, [iota]) == identity_map(h)
        assert hom_differential(iota).is_zero() and hom_differential(p).is_zero()
        for k in c.degrees():
            p_k = p.block((k,))
            assert p_k.mul(c.differential(k + 1)).is_zero()
            basis = kernel_basis(c.differential(k))
            for _ in range(3):
                coeffs = [rng.randint(-3, 3) for _ in basis]
                z = [sum(a * v[i] for a, v in zip(coeffs, basis)) for i in range(c.dim(k))]
                assert mul_vec(p_k, z) == reference_homology_coordinates(c, k, iota.block((k,)), z)
                cycles += any(z) and any(mul_vec(p_k, z))
        maps = [invertible_chain_map(rng, c)]
        killing = class_killing_map(rng, c)
        if killing is not None:
            maps.append(killing[0])
        for f in maps:
            verdicts.append(is_quasi_iso(f))
            assert verdicts[-1] == reference_is_quasi_iso(f)
    assert cycles >= 100
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 20


# ---------------------------------------------------------------------------
# The layer assembler against the hand-written extension system


def reference_joint_extension_system(state):
    """(A, b) of one extension step: the unknowns n_{K+1}, then F_{K+1}; the
    n-equation's entries, then the F-equation's.  The F-equation carries the
    principal term -c nu_{K+1}(f_1, ..., f_1) on the n-unknowns: f_1 has
    degree 0, so it is X o f_1^{(x)K+1} without a sign."""
    knew = state.k + 1
    # n_{K+1} and F_{K+1} enter this representation as zero maps, so the
    # principal term evaluates to zero in the right-hand side.
    rep = state.representation(knew)
    model = rep.model
    d_f = model.of(f"f_{knew}")
    coeff = d_f.terms.get(TreeMonomial(model.base, (f"nu_{knew}",) + (("f_1", "B"),) * knew), 0)
    layouts = []
    for t in (zero_map((state.w,) * knew, state.w, knew - 2), zero_map((state.v,) * knew, state.w, knew - 1)):
        layouts.append((T._Layout(t), T._Layout(zero_map(t.sources, t.target, t.degree - 1))))
    (n, eq_n), (f, eq_f) = layouts
    b = eq_n.flatten(evaluate_element(rep, model.of(f"nu_{knew}"))) + eq_f.flatten(evaluate_element(rep, d_f))
    eq_rows = [{} for _ in b]
    T._write_hom_differential(eq_rows, n, eq_n, 0, 0)
    if coeff:
        for key, rows, cols, off in n.blocks:
            inner = [state.f[1].blocks.get((k,)) for k in key]
            if all(m is not None for m in inner):
                T._write_right(eq_rows, off, rows, cols, eq_n.size + eq_f.offsets[key], inner, -coeff)
    T._write_hom_differential(eq_rows, f, eq_f, n.size, eq_n.size)
    return RationalMatrix.from_rows(eq_rows, n.size + f.size), b


def test_layer_system_matches_the_hand_written_extension_system(monkeypatch):
    # The Koszul steps 2 -> 8; the arity-8 system is 75,618 x 115,776, so
    # the matrices are compared by their row dicts (RationalMatrix ==),
    # never through the dense `entries` view.
    built = layer_systems(monkeypatch)
    state = scenario_symmetrization(*koszul_dga(), 2)
    shapes = []
    while state.k < 8:
        ref_a, ref_b = reference_joint_extension_system(state)
        state = extension_step(state)
        a, b = built[-1]
        assert a == ref_a
        assert b == ref_b
        shapes.append((a.rows, a.cols))
    assert shapes[-1] == (75618, 115776)
