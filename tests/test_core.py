import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    UnboundedEnumerationError,
    _shape_walk,
    collect_terms,
    compose_full,
    enumerate_basis,
    exact,
    graft,
    leaf_suffix_degrees,
)
from operadkit.serialize import element_to_json

B, W = "B", "W"


def ainf_gens(n=4):
    return GeneratorSet(
        (B,), [GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2) for k in range(2, n + 1)]
    )


def morphism_gens(n=3):
    specs = []
    for k in range(2, n + 1):
        specs.append(GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2))
        specs.append(GeneratorSpec(f"nu_{k}", Signature(W, (W,) * k), k - 2))
    specs.append(GeneratorSpec("f", Signature(W, (B,)), 0))
    return GeneratorSet((B, W), specs)


def test_graft_two_binary_generators():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    out = graft(mu2, 1, mu2)
    ((mono, coeff),) = out.terms.items()
    assert coeff == 1
    assert mono.arity == 3
    assert mono.degree == 0


def test_graft_across_colors():
    gens = morphism_gens()
    f = TreeMonomial.generator(gens, "f")
    mu2 = TreeMonomial.generator(gens, "mu_2")
    out = graft(f, 1, mu2)
    ((mono, _),) = out.terms.items()
    assert mono.signature == Signature(W, (B, B))
    assert mono.degree == 0


def test_graft_color_mismatch_is_zero():
    gens = morphism_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    nu2 = TreeMonomial.generator(gens, "nu_2")
    assert graft(mu2, 1, nu2).is_zero()


def test_graft_slot_out_of_range():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    with pytest.raises(ValueError):
        graft(mu2, 3, mu2)


def test_compose_full_units_are_no_ops():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    unit = OperadElement.monomial(TreeMonomial.identity(gens, B))
    assert compose_full(mu2, [unit, unit]) == OperadElement.monomial(mu2)


def test_compose_full_signature():
    gens = morphism_gens()
    nu2 = TreeMonomial.generator(gens, "nu_2")
    f = OperadElement.from_generator(gens, "f")
    out = compose_full(nu2, [f, f])
    ((mono, _),) = out.terms.items()
    assert mono.signature == Signature(W, (B, B))


def test_compose_full_with_zero_is_zero():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    zero = OperadElement.zero(gens, Signature(B, (B, B)), 0)
    assert compose_full(mu2, [OperadElement.monomial(mu2), zero]).is_zero()


def test_compose_full_equals_iterated_graft():
    gens = morphism_gens()
    rng = random.Random(8)
    nu2 = TreeMonomial.generator(gens, "nu_2")
    words = [
        OperadElement.from_generator(gens, "f"),
        graft(TreeMonomial.generator(gens, "f"), 1, TreeMonomial.generator(gens, "mu_2")),
    ]
    for _ in range(50):
        a, b = rng.choice(words), rng.choice(words)
        simultaneous = compose_full(nu2, [a, b])
        right_to_left = _graft_elem(_graft_elem(OperadElement.monomial(nu2), 2, b), 1, a)
        ((bm, _),) = b.terms.items()
        left_to_right = _graft_elem(
            _graft_elem(OperadElement.monomial(nu2), 1, a), 1 + next(iter(a.terms)).arity, b
        )
        assert simultaneous == right_to_left == left_to_right


def test_compose_full_arity_mismatch():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    with pytest.raises(ValueError):
        compose_full(mu2, [OperadElement.monomial(mu2)])


def test_color_rule_validated_on_construction():
    gens = morphism_gens()
    with pytest.raises(ValueError):
        TreeMonomial(gens, ("mu_2", ("nu_2", W, W), B))


def test_degree_additivity_random():
    gens = GeneratorSet(
        (B,),
        [
            GeneratorSpec("a", Signature(B, (B, B)), 1),
            GeneratorSpec("b", Signature(B, (B, B, B)), 2),
            GeneratorSpec("c", Signature(B, (B,)), 3),
        ],
    )
    rng = random.Random(3)
    monos = enumerate_basis(gens, Signature(B, (B,) * 3), 3) + enumerate_basis(
        gens, Signature(B, (B,) * 2), 4
    )
    for _ in range(100):
        a = rng.choice(monos)
        b = rng.choice(monos)
        slot = rng.randint(1, a.arity)
        out = graft(a, slot, b)
        for mono in out.terms:
            assert mono.degree == a.degree + b.degree


def test_grafting_associativity_disjoint_slots():
    gens = ainf_gens()
    rng = random.Random(4)
    basis = enumerate_basis(gens, Signature(B, (B,) * 4), 0) + enumerate_basis(
        gens, Signature(B, (B,) * 4), 1
    )
    checked = 0
    while checked < 200:
        a = rng.choice(basis)
        b = rng.choice(basis)
        c = rng.choice(basis)
        i = rng.randint(1, a.arity)
        j = rng.randint(1, a.arity)
        if i == j:
            continue
        lo, hi = min(i, j), max(i, j)
        # graft at hi first, then lo, and the other way round
        first = _graft_elem(graft(a, hi, b), lo, c)
        second = _graft_elem(graft(a, lo, c), hi + c.arity - 1, b)
        assert first == second
        checked += 1


def graft_elements(a, slot, b, graft_monomials=graft):
    """Bilinear extension of graft (or of `graft_monomials`) to elements:
    the reference the faster splices of compose_full and the Leibniz rule
    are compared against."""
    outer = a.signature.inputs
    sig = Signature(a.signature.output, outer[: slot - 1] + b.signature.inputs + outer[slot:])
    terms = collect_terms(
        (m, ca * cb * c)
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
        for m, c in graft_monomials(ma, slot, mb).terms.items()
    )
    return OperadElement(a.gens, terms, signature=sig, degree=a.degree + b.degree)


def graft_oriented(outer, slot, inner):
    """Koszul-oriented grafting: (-1)^(|inner| * suffix_outer(slot)) * graft.

    This is the composition of the underlying graded operad read in the
    preorder orientation of the planar basis; the plain graft differs from
    it by the orientation sign.
    """
    suffixes = leaf_suffix_degrees(outer.gens, outer.shape)
    sign = -1 if (inner.degree * suffixes[slot - 1]) % 2 else 1
    return graft(outer, slot, inner).scale(sign)


def _graft_elem(elem, slot, inner):
    if isinstance(inner, TreeMonomial):
        inner = OperadElement.monomial(inner)
    return graft_elements(elem, slot, inner)


def test_nested_graft_orders_agree():
    gens = ainf_gens()
    rng = random.Random(5)
    basis = enumerate_basis(gens, Signature(B, (B,) * 3), 0) + enumerate_basis(
        gens, Signature(B, (B,) * 3), 1
    )
    for _ in range(200):
        a, b, c = (rng.choice(basis) for _ in range(3))
        i = rng.randint(1, a.arity)
        j = rng.randint(1, b.arity)
        # (a o_i b) o_{i+j-1} c  ==  a o_i (b o_j c)
        outer_first = _graft_elem(graft(a, i, b), i + j - 1, c)
        inner_first = _graft_elem(OperadElement.monomial(a), i, graft(b, j, c))
        assert outer_first == inner_first


def test_enumerate_basis_three_leaves_degree_zero():
    gens = ainf_gens()
    out = enumerate_basis(gens, Signature(B, (B, B, B)), 0)
    assert [m.compact() for m in out] == ["mu_2(mu_2, @3:B)", "mu_2(@1:B, mu_2)"]


def test_enumerate_basis_three_leaves_degree_one():
    gens = ainf_gens()
    out = enumerate_basis(gens, Signature(B, (B, B, B)), 1)
    assert [m.compact() for m in out] == ["mu_3"]


def iso_small_gens():
    return GeneratorSet(
        (B, W),
        [
            GeneratorSpec("f_0", Signature(W, (B,)), 0),
            GeneratorSpec("g_0", Signature(B, (W,)), 0),
            GeneratorSpec("f_1", Signature(B, (B,)), 1),
        ],
    )


class TooManyTrees(Exception):
    """The vertex-budget enumerator passed its `max_trees`."""


def enumerate_up_to(gens, signature, degree, max_vertices, max_trees=None):
    """The monomials of one (signature, degree) component with at most
    `max_vertices` vertices, in canonical order.

    The vertex-budget enumerator: it lists every tree of at most that many
    vertices over the leaf colours, of any degree, and keeps the requested
    degree, so it also reaches into infinite components.  It is the oracle
    for `enumerate_basis`, and the tests draw their monomial pools from it.
    With `max_trees`, it raises TooManyTrees once it has listed more trees
    than that, of all degrees and subtrees counted.
    """
    memo = {}
    listed = 0

    def trees(color, leaves, budget):
        """(shape, degree, vertices) of every tree with at most `budget` vertices."""
        nonlocal listed
        key = (color, leaves, budget)
        if key not in memo:
            out = [(color, 0, 0)] if leaves == (color,) else []
            if budget > 0:
                for g in gens.by_output(color):
                    k = g.signature.arity
                    for cuts in combinations(range(1, len(leaves)), k - 1):
                        bounds = (0,) + cuts + (len(leaves),)
                        blocks = [leaves[a:b] for a, b in zip(bounds, bounds[1:])]
                        for kids, d, v in children(g.signature.inputs, blocks, budget - 1):
                            out.append(((g.name,) + kids, d + g.degree, v + 1))
                            listed += 1
                            if max_trees is not None and listed > max_trees:
                                raise TooManyTrees(f"more than {max_trees} trees")
            memo[key] = out
        return memo[key]

    def children(colors, blocks, budget):
        if not blocks:
            yield (), 0, 0
            return
        for head, hd, hv in trees(colors[0], blocks[0], budget):
            for rest, rd, rv in children(colors[1:], blocks[1:], budget - hv):
                yield (head,) + rest, hd + rd, hv + rv

    shapes = {s for s, d, _ in trees(signature.output, tuple(signature.inputs), max_vertices) if d == degree}
    return sorted((TreeMonomial(gens, s) for s in shapes), key=lambda t: t.sort_key)


def test_enumerate_up_to_unary_loop_words():
    gens = iso_small_gens()
    out = enumerate_up_to(gens, Signature(W, (B,)), 0, 5)
    assert [m.compact() for m in out] == [
        "f_0",
        "f_0(g_0(f_0))",
        "f_0(g_0(f_0(g_0(f_0))))",
    ]


def test_enumerate_basis_requires_cutoff_on_loops():
    gens = iso_small_gens()
    with pytest.raises(UnboundedEnumerationError, match="degree-0 unary generators form a cycle"):
        enumerate_basis(gens, Signature(W, (B,)), 0)


def test_enumerate_basis_rejects_a_negative_unary_generator():
    gens = GeneratorSet(
        (B, W),
        [GeneratorSpec("m", Signature(B, (B, B)), 0), GeneratorSpec("u", Signature(W, (B,)), -1)],
    )
    with pytest.raises(UnboundedEnumerationError, match="unary generator u has negative degree -1"):
        enumerate_basis(gens, Signature(B, (B, B)), 0)


@pytest.mark.parametrize("m_degree, t_degree", [(-1, 1), (1, -1)])
def test_enumerate_basis_lists_negative_degree_components(m_degree, t_degree):
    # a binary and a ternary generator, one of degree -1 and one of degree
    # 1: the degree-0 component on four leaves holds each tree with one of
    # each, whichever of them is the negative one
    gens = GeneratorSet(
        (B,),
        [GeneratorSpec("m", Signature(B, (B, B)), m_degree), GeneratorSpec("t", Signature(B, (B, B, B)), t_degree)],
    )
    out = enumerate_basis(gens, Signature(B, (B,) * 4), 0)
    assert [m.compact() for m in out] == [
        "m(t, @4:B)",
        "m(@1:B, t)",
        "t(m, @3:B, @4:B)",
        "t(@1:B, m, @4:B)",
        "t(@1:B, @2:B, m)",
    ]
    assert len(enumerate_basis(gens, Signature(B, (B,) * 4), 3 * m_degree)) == 5  # three m's: Catalan(3)
    assert enumerate_basis(gens, Signature(B, (B,) * 3), t_degree) == [TreeMonomial.generator(gens, "t")]


def _has_degree_zero_unary_cycle(gens):
    """Whether the degree-0 unary generators over the colours B and W close a cycle."""
    unary = [g.signature for g in gens.generators if g.signature.arity == 1 and g.degree == 0]
    edges = {(sig.inputs[0], sig.output) for sig in unary}
    return bool({(B, B), (W, W)} & edges) or {(B, W), (W, B)} <= edges


@st.composite
def two_colour_components(draw):
    """A random generator set over B and W (arities 1 to 3, binary and
    ternary degrees -2 to 3, unary degrees 0 to 3, so positive loops occur)
    and the component, shifted by up to one degree, of a random tree of up
    to four vertices and five leaves, so that few components are empty."""
    colour = st.sampled_from((B, W))
    specs = []
    for i in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(1, 3))
        degree = draw(st.integers(0, 3) if arity == 1 else st.integers(-2, 3))
        inputs = tuple(draw(colour) for _ in range(arity))
        specs.append(GeneratorSpec(f"g{i}", Signature(draw(colour), inputs), degree))
    gens = GeneratorSet((B, W), specs)
    tree = TreeMonomial.generator(gens, draw(st.sampled_from(specs)).name)
    for _ in range(draw(st.integers(0, 3))):
        slot = draw(st.integers(1, tree.arity))
        fits = [g for g in specs if g.signature.output == tree.signature.inputs[slot - 1]]
        if not fits or tree.arity > 3:
            break
        inner = TreeMonomial.generator(gens, draw(st.sampled_from(fits)).name)
        ((tree, _),) = graft(tree, slot, inner).terms.items()
    return gens, tree.signature, tree.degree + draw(st.integers(-1, 1))


# The budget enumerator lists every degree, so on some draws it passes
# millions of trees: past this many, a draw gets only the checks that need
# no reference.
REFERENCE_TREES = 200_000


@settings(max_examples=200, deadline=None)
@given(two_colour_components(), st.data())
def test_enumerate_basis_equals_the_vertex_budget_enumerator(case, data):
    # the whole component, in the same order, as the budget enumerator's
    # output once raising the budget by three more vertices adds nothing;
    # with an ideal, the monomials of that output with a vertex in the ideal
    gens, signature, degree = case
    ideal = data.draw(st.sets(st.sampled_from([g.name for g in gens.generators])))
    try:
        basis = enumerate_basis(gens, signature, degree)
    except UnboundedEnumerationError:
        assert _has_degree_zero_unary_cycle(gens)
        with pytest.raises(UnboundedEnumerationError):
            enumerate_basis(gens, signature, degree, ideal)
        return
    assert not _has_degree_zero_unary_cycle(gens)
    budget = max((m.nvertices for m in basis), default=0)
    try:
        while True:
            listed = enumerate_up_to(gens, signature, degree, budget + 3, REFERENCE_TREES)
            top = max((m.nvertices for m in listed), default=0)
            if top <= budget:
                break
            budget = top
        assert basis == listed
    except TooManyTrees:
        event("the reference passed its tree cap")
        for m in basis:
            assert TreeMonomial(gens, m.shape) == m and (m.signature, m.degree) == (signature, degree)
        keys = [m.sort_key for m in basis]
        assert keys == sorted(keys) and len(set(basis)) == len(basis)
    in_ideal = [m for m in basis if ideal.intersection(m.vertex_names())]
    assert enumerate_basis(gens, signature, degree, ideal) == in_ideal


def test_enumerate_basis_counts_match_brute_force():
    # independent oracle: count labeled planar trees by (leaves, degree)
    # via a direct recursion over the root generator and compositions.
    gens = ainf_gens(6)

    def count(leaves, degree, memo):
        key = (leaves, degree)
        if key in memo:
            return memo[key]
        total = 1 if (leaves == 1 and degree == 0) else 0
        for k in range(2, min(leaves, 6) + 1):
            gdeg = k - 2
            if gdeg > degree:
                continue
            total += _count_children(k, leaves, degree - gdeg, count, memo)
        memo[key] = total
        return total

    def _count_children(k, leaves, degree, count, memo):
        # distribute leaves and degree over k ordered children
        def rec(i, leaves_left, deg_left):
            if i == k:
                return 1 if (leaves_left == 0 and deg_left == 0) else 0
            total = 0
            for l in range(1, leaves_left - (k - i - 1) + 1):
                for d in range(deg_left + 1):
                    c = count(l, d, memo)
                    if c:
                        total += c * rec(i + 1, leaves_left - l, deg_left - d)
            return total

        return rec(0, leaves, degree)

    memo = {}
    for n in range(1, 7):
        for d in range(0, n):
            got = len(enumerate_basis(gens, Signature(B, (B,) * n), d))
            assert got == count(n, d, memo), (n, d)


def test_enumerate_basis_rejects_ideal_names_that_are_not_generators():
    # a misspelled ideal entry must not shrink the ideal to nothing
    gens = ainf_gens(4)
    sig = Signature(B, (B,) * 4)
    assert len(enumerate_basis(gens, sig, 1, ["mu_3"])) == 5
    with pytest.raises(ValueError, match=r"\['mu3'\] are not generators"):
        enumerate_basis(gens, sig, 1, ["mu3"])


def test_identity_strand_in_basis():
    gens = ainf_gens()
    out = enumerate_basis(gens, Signature(B, (B,)), 0)
    assert len(out) == 1 and isinstance(out[0].shape, str)


# ---------------------------------------------------------------------------
# The B->W rewriting system (f a_B -> a_W f^{(x)n})


def normalize_bw(elem: OperadElement, w_of_b: dict) -> OperadElement:
    """Normal form under the confluent rewrite f∘a_B -> a_W∘f^{(x)n}.

    The unary B->W generator is the one named "f", and `w_of_b` maps each
    base generator's B-copy name to its W-copy name.  Rewrites until no f
    sits directly above a B-copy vertex; in the normal form every f hangs
    directly above a leaf.  Coefficients are untouched (f has degree 0, so
    the rewrite carries no sign).
    """

    def nf(shape):
        if isinstance(shape, str):
            return shape
        children = tuple(nf(c) for c in shape[1:])
        name = shape[0]
        if name == "f" and not isinstance(children[0], str) and children[0][0] in w_of_b:
            inner = children[0]
            return (w_of_b[inner[0]],) + tuple(nf(("f", gc)) for gc in inner[1:])
        return (name,) + children

    terms = collect_terms((TreeMonomial(elem.gens, nf(m.shape)), c) for m, c in elem.terms.items())
    return OperadElement(elem.gens, terms, signature=elem.signature, degree=elem.degree)


def morphism_relations(n=3):
    return {f"mu_{k}": f"nu_{k}" for k in range(2, n + 1)}


def test_normalize_single_rewrite():
    gens = morphism_gens()
    rel = morphism_relations()
    f_mu2 = graft(TreeMonomial.generator(gens, "f"), 1, TreeMonomial.generator(gens, "mu_2"))
    out = normalize_bw(f_mu2, rel)
    f = OperadElement.from_generator(gens, "f")
    want = compose_full(TreeMonomial.generator(gens, "nu_2"), [f, f])
    assert out == want


def test_normalize_fixed_point():
    gens = morphism_gens()
    rel = morphism_relations()
    f = OperadElement.from_generator(gens, "f")
    nf = compose_full(TreeMonomial.generator(gens, "nu_2"), [f, f])
    assert normalize_bw(nf, rel) == nf


def test_normalize_two_rewrites():
    gens = morphism_gens()
    rel = morphism_relations()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    inner = graft(mu2, 1, mu2)  # mu_2(mu_2, 1)
    ((inner_mono, _),) = inner.terms.items()
    elem = graft(TreeMonomial.generator(gens, "f"), 1, inner_mono)
    out = normalize_bw(elem, rel)
    f = OperadElement.from_generator(gens, "f")
    nu2 = TreeMonomial.generator(gens, "nu_2")
    inner_nf = compose_full(nu2, [f, f])
    want = compose_full(nu2, [inner_nf, f])
    assert out == want
    # every f in the normal form hangs directly above a leaf
    for mono in out.terms:
        for _, name, children in _shape_walk(mono.shape):
            if name == "f":
                assert isinstance(children[0], str)


def _random_single_step(shape, rel, rng):
    """`shape` with one redex, chosen by `rng`, rewritten; None if already normal."""
    redexes = []

    def walk(s, path):
        if isinstance(s, str):
            return
        if s[0] == "f" and not isinstance(s[1], str) and s[1][0] in rel:
            redexes.append(path)
        for i, c in enumerate(s[1:]):
            walk(c, path + (i,))

    walk(shape, ())
    if not redexes:
        return None
    target = rng.choice(redexes)

    def rewrite(s, path):
        if path == ():
            inner = s[1]
            return (rel[inner[0]],) + tuple(("f", c) for c in inner[1:])
        i = path[0]
        kids = list(s[1:])
        kids[i] = rewrite(kids[i], path[1:])
        return (s[0],) + tuple(kids)

    return rewrite(shape, target)


@lru_cache(maxsize=None)
def _confluence_pool():
    """The arity-3 morphism generators and their monomials through f, arities 1..5, degrees 0..2."""
    gens = morphism_gens(3)
    pool = []
    for sig_inputs in [(B,), (B, B), (B, B, B), (B, B, B, B), (B, B, B, B, B)]:
        for d in range(0, 3):
            try:
                pool.extend(enumerate_basis(gens, Signature(W, sig_inputs), d))
            except UnboundedEnumerationError:
                pass
    return gens, [m for m in pool if any(v == "f" for v in m.vertex_names())]


def _normalize_by_random_strategy(gens, mono, rel, rng):
    shape = mono.shape
    while True:
        nxt = _random_single_step(shape, rel, rng)
        if nxt is None:
            return OperadElement.monomial(TreeMonomial(gens, shape))
        shape = nxt


def test_normalize_confluence_random_strategies():
    gens, pool = _confluence_pool()
    rel = morphism_relations(3)
    rng = random.Random(6)
    assert pool
    for _ in range(1000):
        mono = rng.choice(pool)
        via_random = _normalize_by_random_strategy(gens, mono, rel, rng)
        assert via_random == normalize_bw(OperadElement.monomial(mono), rel)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_normalize_confluence_property(data):
    # any order of single rewrites reaches normalize_bw's normal form
    gens, pool = _confluence_pool()
    rel = morphism_relations(3)
    mono = data.draw(st.sampled_from(pool))
    rng = data.draw(st.randoms(use_true_random=False))
    assert _normalize_by_random_strategy(gens, mono, rel, rng) == normalize_bw(OperadElement.monomial(mono), rel)


def test_output_b_with_w_inputs_is_empty():
    # color bookkeeping: no monomials with output B touch the f generator
    gens = morphism_gens(3)
    for inputs in [(W,), (B, W), (W, B), (W, W)]:
        assert enumerate_basis(gens, Signature(B, inputs), 0) == []


# ---------------------------------------------------------------------------
# round trips


def tree_from_json(obj, gens):
    """The reader of `serialize.tree_to_json`."""

    def dec(o):
        if "leaf" in o:
            return o["color"]
        return (o["gen"],) + tuple(dec(c) for c in o["children"])

    return TreeMonomial(gens, dec(obj))


def element_from_json(obj, gens):
    """The reader of `serialize.element_to_json`."""
    sig = Signature(obj["signature"]["output"], tuple(obj["signature"]["inputs"]))
    terms = collect_terms((tree_from_json(t["tree"], gens), exact(t["coeff"])) for t in obj["terms"])
    return OperadElement(gens, terms, sig, obj["degree"])


def test_element_json_round_trip():
    gens = morphism_gens(3)
    rng = random.Random(7)
    sig = Signature(W, (B, B, B))
    basis = enumerate_basis(gens, sig, 1)
    for _ in range(50):
        terms = {}
        for m in rng.sample(basis, k=min(4, len(basis))):
            terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        elem = OperadElement(gens, terms, sig, 1)
        # bit-exact through dumps/loads
        blob = json.dumps(element_to_json(elem))
        back = element_from_json(json.loads(blob), gens)
        assert back == elem
        assert json.dumps(element_to_json(back)) == blob


def test_zero_element_text():
    gens = ainf_gens()
    assert OperadElement.zero(gens, Signature(B, (B, B)), 0).text() == "0"


def test_repr_and_text_write_compact_monomials():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    ((left, _),) = graft(mu2, 1, mu2).terms.items()
    elem = graft(mu2, 1, mu2) - graft(mu2, 2, mu2)
    assert repr(mu2) == "TreeMonomial(mu_2)"
    assert repr(left) == "TreeMonomial(mu_2(mu_2, @3:B))"
    assert elem.text() == "1 * mu_2(mu_2, @3:B) - 1 * mu_2(@1:B, mu_2)"
    assert repr(elem) == "OperadElement(1 * mu_2(mu_2, @3:B) - 1 * mu_2(@1:B, mu_2))"


def test_component_errors_write_the_monomial_with_its_component():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    mu3 = TreeMonomial.generator(gens, "mu_3")
    want = "inhomogeneous element: mu_3 in component (B; B,B,B), degree 1 is not in component (B; B,B), degree 0"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        OperadElement(gens, {mu3: 1}, Signature(B, (B, B)), 0)
    # a look-alike mu_2 of degree 1 is a tree of degree 0 over `gens`
    look = GeneratorSet((B,), [GeneratorSpec("mu_2", Signature(B, (B, B)), 1)])
    unit = OperadElement.monomial(TreeMonomial.identity(gens, B))
    want = "mu_2 in component (B; B,B), degree 1 changes signature or degree over the target generators"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        compose_full(mu2, [OperadElement.from_generator(look, "mu_2"), unit])


def test_a_zero_needs_its_component():
    # a zero with no signature, or with no degree, is refused at the call
    gens = ainf_gens()
    with pytest.raises(TypeError):
        OperadElement.zero(gens)
    with pytest.raises(TypeError):
        OperadElement.zero(gens, Signature(B, (B, B)))
    with pytest.raises(TypeError):
        OperadElement(gens, {})


_MORPHISM = morphism_gens(3)
# Components of one generator set: two that differ in the signature only,
# two in the degree only, and one of another output colour.
_COMPONENTS = [
    (Signature(W, (B, B)), 0),
    (Signature(W, (B, B, B)), 0),
    (Signature(W, (B, B, B)), 1),
    (Signature(B, (B, B)), 0),
]


@st.composite
def component_elements(draw):
    """A random combination in one of `_COMPONENTS`, which may be zero."""
    sig, deg = draw(st.sampled_from(_COMPONENTS))
    basis = enumerate_basis(_MORPHISM, sig, deg)
    terms = draw(st.dictionaries(st.sampled_from(basis), st.integers(-2, 2), max_size=3))
    return OperadElement(_MORPHISM, terms, sig, deg)


@settings(max_examples=200, deadline=None)
@given(component_elements(), component_elements())
def test_elements_add_only_within_one_component(a, b):
    if (a.signature, a.degree) == (b.signature, b.degree):
        total = a + b
        assert (total.signature, total.degree) == (a.signature, a.degree)
    else:
        with pytest.raises(ValueError, match="different components"):
            a + b
        with pytest.raises(ValueError, match="different components"):
            a - b
    diff = a - a
    assert diff.is_zero() and (diff.signature, diff.degree) == (a.signature, a.degree)
    # a zero inner gives the zero of the grafted component, also when a's
    # output colour does not match nu_2's W slot
    nu2 = TreeMonomial.generator(_MORPHISM, "nu_2")
    got = compose_full(nu2, [a, OperadElement.zero(_MORPHISM, b.signature, b.degree)])
    assert got.is_zero()
    assert (got.signature, got.degree) == (Signature(W, a.signature.inputs + b.signature.inputs), a.degree + b.degree)


# ---------------------------------------------------------------------------
# the term accumulator


def test_collect_terms_merges_repeated_monomials():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    nested = graft(mu2, 1, mu2).items()[0][0]
    terms = collect_terms([(mu2, 1), (nested, Fraction(1, 3)), (mu2, Fraction(1, 2))])
    assert terms == {mu2: Fraction(3, 2), nested: Fraction(1, 3)}
    assert list(terms) == [mu2, nested]  # first occurrence fixes the position


def test_accumulated_cancelling_term_is_dropped():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    left = graft(mu2, 1, mu2).items()[0][0]
    right = graft(mu2, 2, mu2).items()[0][0]
    elem = OperadElement(gens, collect_terms([(left, 2), (right, 1), (left, -2)]), right.signature, right.degree)
    assert elem.terms == {right: Fraction(1)}
    assert (elem.signature, elem.degree) == (right.signature, right.degree)


def test_accumulated_zero_keeps_its_component():
    gens = ainf_gens()
    mu3 = TreeMonomial.generator(gens, "mu_3")
    sig = Signature(B, (B, B, B))
    elem = OperadElement(gens, collect_terms([(mu3, 1), (mu3, -1)]), signature=sig, degree=1)
    assert elem.is_zero()
    assert (elem.signature, elem.degree) == (sig, 1)
    a = OperadElement.monomial(mu3)
    assert ((a - a).signature, (a - a).degree) == (sig, 1)


def test_accumulated_mixed_components_raise():
    gens = ainf_gens()
    mu2 = TreeMonomial.generator(gens, "mu_2")
    mu3 = TreeMonomial.generator(gens, "mu_3")
    with pytest.raises(ValueError, match="inhomogeneous"):
        OperadElement(gens, collect_terms([(mu2, 1), (mu3, 1)]), Signature(B, (B, B)), 0)
    with pytest.raises(ValueError, match="inhomogeneous"):
        OperadElement(gens, collect_terms([(mu2, 1), (mu2, -1), (mu3, 1)]), Signature(B, (B, B)), 0)
