import json
import random
from fractions import Fraction
from math import comb

import pytest

from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    compose_full,
    enumerate_basis,
    graft,
)
from operadkit.differentials import (
    DerivationDifferential,
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    compositions,
    extend_derivation,
    rename_element,
    verify_d_squared,
)
from operadkit.reports import Report
from operadkit.serialize import _fields, model_to_json
from operadkit.tails import build_model_btow
from test_core import element_from_json, enumerate_up_to, graft_elements, graft_oriented

B, W = "B", "W"


def elem(gens, name):
    return OperadElement.from_generator(gens, name)


def test_compositions():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(2, 3)) == []


def test_ainf_mu2_closed():
    d = build_ainf(2)
    assert d.of("mu_2").is_zero()


def test_ainf_mu3_image():
    d = build_ainf(3)
    gens = d.base
    mu2 = TreeMonomial.generator(gens, "mu_2")
    want = graft(mu2, 1, mu2) - graft(mu2, 2, mu2)
    assert d.of("mu_3") == want


def test_ainf_mu4_term_count():
    d = build_ainf(4)
    # independent count of the (i, j, s) index triples
    triples = [
        (i, j, s)
        for i in range(2, 4)
        for j in range(2, 4)
        if i + j == 5
        for s in range(0, 4 - j + 1)
    ]
    assert len(triples) == 5
    assert len(d.of("mu_4").terms) == 5


def test_morphism_f1_closed_and_f2():
    d = build_ainf_morphism(3)
    gens = d.base
    assert d.of("f_1").is_zero()
    f1 = elem(gens, "f_1")
    want = compose_full(TreeMonomial.generator(gens, "nu_2"), [f1, f1]).scale(-1) + graft(
        TreeMonomial.generator(gens, "f_1"), 1, TreeMonomial.generator(gens, "mu_2")
    )
    assert d.of("f_2") == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_morphism_principal_parts(n):
    d = build_ainf_morphism(6)
    gens = d.base
    f1 = elem(gens, "f_1")
    principal = graft(
        TreeMonomial.generator(gens, "f_1"), 1, TreeMonomial.generator(gens, f"mu_{n}")
    ) - compose_full(TreeMonomial.generator(gens, f"nu_{n}"), [f1] * n)
    tail = d.of(f"f_{n}") - principal
    # the tail lies in the ideal generated by f_2 .. f_{n-1}
    mid = {f"f_{k}" for k in range(2, n)}
    for mono in tail.terms:
        assert mid.intersection(mono.vertex_names()), mono.compact()


def test_homotopy_h1_and_h2():
    d = build_homotopy_model(2)
    gens = d.base
    assert d.of("h_1") == elem(gens, "p_1") - elem(gens, "q_1")
    nu2 = TreeMonomial.generator(gens, "nu_2")
    want = (
        elem(gens, "p_2")
        - elem(gens, "q_2")
        + compose_full(nu2, [elem(gens, "h_1"), elem(gens, "q_1")])
        + compose_full(nu2, [elem(gens, "p_1"), elem(gens, "h_1")])
        - graft(TreeMonomial.generator(gens, "h_1"), 1, TreeMonomial.generator(gens, "mu_2"))
    )
    assert d.of("h_2") == want


def test_iso_images():
    d = build_iso_resolution(3)
    gens = d.base

    def word(*names):
        shape = gens.spec(names[-1]).signature.inputs[0]
        for name in reversed(names):
            shape = (name, shape)
        return OperadElement.monomial(TreeMonomial(gens, shape))

    unit_b = OperadElement.monomial(TreeMonomial.identity(gens, B))
    unit_w = OperadElement.monomial(TreeMonomial.identity(gens, W))
    assert d.of("f_0").is_zero()
    assert d.of("f_1") == word("g_0", "f_0") - unit_b
    assert d.of("g_1") == word("f_0", "g_0") - unit_w
    assert d.of("f_2") == word("f_0", "f_1") - word("g_1", "f_0")
    assert d.of("f_3") == word("g_0", "f_2") + word("g_2", "f_0") - word("f_1", "f_1")


def test_d_squared_f2_by_hand():
    # d^2 f_2 = f_0 (g_0 f_0 - 1) - (f_0 g_0 - 1) f_0 = 0
    d = build_iso_resolution(2)
    assert extend_derivation(d, d.of("f_2")).is_zero()


@pytest.mark.parametrize(
    "kind",
    [
        (build_ainf, 6),
        (build_ainf_morphism, 5),
        (build_homotopy_model, 4),
        (build_iso_resolution, 8),
    ],
)
def test_d_squared_models(kind):
    build, bound = kind
    assert verify_d_squared(build(bound)).ok


def test_report_first_failure_defaults_to_none():
    assert verify_d_squared(build_ainf(3)).first_failure is None


def test_d_squared_mutation_detected():
    d = build_ainf(4)
    gens = d.base
    mu2 = TreeMonomial.generator(gens, "mu_2")
    # flip the sign of one term of D(mu_3)
    images = dict(d.images)
    images["mu_3"] = graft(mu2, 1, mu2) + graft(mu2, 2, mu2)
    broken = DerivationDifferential(gens, images)
    report = verify_d_squared(broken)
    entry = {e.name: e for e in report.entries}
    assert not entry["mu_4"].ok


def verify_minimality(diff: DerivationDifferential) -> Report:
    """Check that every image monomial is decomposable (>= 2 vertices).

    Constant terms (zero vertices, the identity strand) and linear terms
    (a single bare generator) are reported separately.
    """
    report = Report("minimality (decomposable differentials)")
    for g in diff.base.generators:
        bad = []
        for mono, coeff in diff.of(g.name).items():
            if mono.nvertices == 0:
                bad.append(f"constant term {coeff} * {mono.compact()}")
            elif mono.nvertices == 1:
                bad.append(f"linear term {coeff} * {mono.compact()}")
        report.add(g.name, not bad, "; ".join(bad))
    return report


def test_minimality_reports():
    assert verify_minimality(build_ainf_morphism(4)).ok
    iso = verify_minimality(build_iso_resolution(3))
    assert not iso.ok
    by_name = {e.name: e for e in iso.entries}
    assert "constant term" in by_name["f_1"].detail
    assert "linear" not in by_name["f_1"].detail

    # a differential with a bare generator in an image is flagged as linear
    from operadkit.core import GeneratorSet, GeneratorSpec

    gens = GeneratorSet(
        (B,),
        [
            GeneratorSpec("x", Signature(B, (B, B)), 1),
            GeneratorSpec("y", Signature(B, (B, B)), 0),
        ],
    )
    model = DerivationDifferential(gens, {"x": OperadElement.from_generator(gens, "y")})
    rep = verify_minimality(model)
    assert not rep.ok
    assert "linear term" in {e.name: e for e in rep.entries}["x"].detail


def test_extend_derivation_examples():
    d = build_ainf(3)
    gens = d.base
    mu2 = TreeMonomial.generator(gens, "mu_2")
    mu3 = TreeMonomial.generator(gens, "mu_3")
    assert extend_derivation(d, elem(gens, "mu_2")).is_zero()
    assert extend_derivation(d, graft(mu2, 1, mu2)).is_zero()
    # D(mu_3 o_1 mu_2) = D(mu_3) o_1 mu_2 - mu_3 o_1 D(mu_2), and D(mu_2) = 0
    got = extend_derivation(d, graft(mu3, 1, mu2))
    want = graft_elements(d.of("mu_3"), 1, elem(gens, "mu_2"))
    assert got == want


def test_extend_derivation_lowers_degree():
    d = build_ainf_morphism(4)
    img = extend_derivation(d, d.of("f_3"))
    assert img.degree == d.base.spec("f_3").degree - 2


def test_extend_derivation_unknown_generator():
    d = build_ainf(3)
    other = build_iso_resolution(1)
    with pytest.raises(KeyError):
        extend_derivation(d, OperadElement.from_generator(other.base, "f_0"))


def _look_alike(gens, name, signature):
    """A new generator set with the names and degrees of `gens`, where
    `name` has another signature."""
    specs = [GeneratorSpec(g.name, signature if g.name == name else g.signature, g.degree) for g in gens.generators]
    return GeneratorSet(gens.colors, specs)


# Each look-alike makes a tree in the component (W; B,B), degree 0, of
# D(f_2) that is invalid over the real morphism generators.
LOOK_ALIKES = {
    "input color": ("nu_2", Signature(W, (B, B)), ("nu_2", B, B)),
    "arity": ("f_1", Signature(W, (B, B)), ("f_1", B, B)),
}


@pytest.mark.parametrize("case", sorted(LOOK_ALIKES))
def test_look_alike_image_is_rejected(case):
    d = build_ainf_morphism(2)
    name, sig, shape = LOOK_ALIKES[case]
    foreign = OperadElement.monomial(TreeMonomial(_look_alike(d.base, name, sig), shape))
    with pytest.raises(ValueError):
        DerivationDifferential(d.base, dict(d.images, f_2=foreign))


@pytest.mark.parametrize("case", sorted(LOOK_ALIKES))
def test_look_alike_element_is_rejected(case):
    d = build_ainf_morphism(2)
    name, sig, shape = LOOK_ALIKES[case]
    foreign = OperadElement.monomial(TreeMonomial(_look_alike(d.base, name, sig), shape))
    with pytest.raises(ValueError):
        extend_derivation(d, foreign)


@pytest.mark.parametrize("case", sorted(LOOK_ALIKES))
def test_look_alike_inner_is_rejected_by_grafting(case):
    gens = build_ainf_morphism(2).base
    name, sig, shape = LOOK_ALIKES[case]
    inner = TreeMonomial(_look_alike(gens, name, sig), shape)
    nu2 = TreeMonomial.generator(gens, "nu_2")
    with pytest.raises(ValueError):
        graft(nu2, 1, inner)
    with pytest.raises(ValueError):
        compose_full(nu2, [OperadElement.monomial(inner), elem(gens, "f_1")])


def test_look_alike_with_another_signature_is_rejected():
    # f_1(B) is a valid shape over both sets, but its signature differs
    d = build_ainf_morphism(2)
    look = _look_alike(d.base, "f_1", Signature(B, (B,)))
    with pytest.raises(ValueError):
        extend_derivation(d, OperadElement.from_generator(look, "f_1"))


def test_a_zero_composition_keeps_its_component():
    # a zero inner that has a component gives the zero of the composite's
    # component, and so does D of it
    d = build_ainf_morphism(3)
    nu3 = TreeMonomial.generator(d.base, "nu_3")
    f1 = elem(d.base, "f_1")
    got = compose_full(nu3, [OperadElement.zero(d.base, Signature(W, (B,)), 0), f1, f1])
    want = compose_full(nu3, [f1, f1, f1])
    assert got.is_zero() and not want.is_zero()
    assert (got.signature, got.degree) == (want.signature, want.degree) == (Signature(W, (B, B, B)), 1)
    d_got, d_want = extend_derivation(d, got), extend_derivation(d, want)
    assert (d_got.signature, d_got.degree) == (d_want.signature, d_want.degree)


def test_a_zero_image_gets_the_component_checks():
    # a given zero image of the wrong component is rejected like a nonzero
    # one; only a missing image is filled in with its component's zero
    d = build_ainf(3)
    with pytest.raises(ValueError, match="lives in"):
        DerivationDifferential(d.base, {"mu_2": OperadElement.zero(d.base, Signature(B, (B,) * 5), 7)})
    with pytest.raises(ValueError, match="has degree"):
        DerivationDifferential(d.base, {"mu_2": OperadElement.zero(d.base, Signature(B, (B, B)), 7)})
    filled = DerivationDifferential(d.base, {}).of("mu_2")
    assert filled.is_zero() and (filled.signature, filled.degree) == (Signature(B, (B, B)), -1)


def test_images_over_an_equal_copy_are_revalidated():
    d = build_ainf_morphism(3)
    copy = GeneratorSet(d.base.colors, d.base.generators)
    images = {name: rename_element(img, copy, {}) for name, img in d.images.items()}
    moved = DerivationDifferential(d.base, images)
    assert moved.images == d.images
    assert all(m.gens is d.base for img in moved.images.values() for m in img.terms)
    assert verify_d_squared(moved).ok


def _assert_invariants_validate(element):
    """Every monomial of `element` equals the validated tree of its shape,
    invariants and hash included."""
    for mono in element.terms:
        fresh = TreeMonomial(mono.gens, mono.shape)
        assert (mono.signature, mono.degree, mono.nvertices) == (fresh.signature, fresh.degree, fresh.nvertices)
        assert mono == fresh and hash(mono) == hash(fresh)


@pytest.mark.parametrize(
    "builder",
    [lambda: build_ainf_morphism(7), lambda: build_homotopy_model(5), lambda: build_iso_resolution(6)],
    ids=["morphism7", "homotopy5", "iso6"],
)
def test_assembled_monomials_match_validation(builder):
    model = builder()
    checked = 0
    for image in model.images.values():
        _assert_invariants_validate(image)
        # D(image) cancels to zero, so D is applied monomial by monomial
        for mono in image.terms:
            d_mono = extend_derivation(model, OperadElement.monomial(mono))
            _assert_invariants_validate(d_mono)
            checked += len(d_mono.terms)
    assert checked > 0


@pytest.mark.parametrize("builder", [lambda: build_homotopy_model(4), lambda: build_iso_resolution(4)], ids=["homotopy4", "iso4"])
def test_assembled_grafts_match_validation(builder):
    rng = random.Random(11)
    model = builder()
    gens = model.base
    monos = [TreeMonomial.generator(gens, g.name) for g in gens.generators]
    monos += [m for img in model.images.values() for m in img.terms]
    words = [OperadElement.monomial(m) for m in monos]
    words += [img for img in model.images.values() if 0 < len(img.terms) <= 4]
    by_output = {}
    for w in words:
        by_output.setdefault(w.signature.output, []).append(w)
    for _ in range(300):
        outer = rng.choice(monos)
        slot = rng.randint(1, outer.arity)
        inner = rng.choice(by_output[outer.signature.inputs[slot - 1]])
        grafted = graft(outer, slot, rng.choice(list(inner.terms)))
        assert not grafted.is_zero()
        _assert_invariants_validate(grafted)
        if outer.arity <= 3:
            word = [rng.choice(by_output[c]) for c in outer.signature.inputs]
            _assert_invariants_validate(compose_full(outer, word))


def _random_elements(gens, rng, count, max_arity=4):
    out = []
    sigs = []
    for g in gens.generators:
        sigs.append(g.signature)
    degrees = sorted({g.degree for g in gens.generators})
    pool = []
    for sig in sigs:
        for d in range(0, max(degrees) * 2 + 2):
            try:
                pool.extend(enumerate_up_to(gens, sig, d, 4))
            except Exception:
                pass
    pool = [m for m in pool if m.nvertices >= 1]
    for _ in range(count):
        out.append(rng.choice(pool))
    return out


@pytest.mark.parametrize(
    "builder", [lambda: build_ainf(4), lambda: build_ainf_morphism(3), lambda: build_homotopy_model(3), lambda: build_iso_resolution(4)]
)
def test_leibniz_rule_oriented(builder):
    # D(a o^ b) = D(a) o^ b + (-1)^{deg a} a o^ D(b), where o^ is the
    # Koszul-oriented graft.
    model = builder()
    gens = model.base
    rng = random.Random(11)
    pool = _random_elements(gens, rng, 120)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 5000:
        attempts += 1
        a = rng.choice(pool)
        b = rng.choice(pool)
        slots = [
            i
            for i in range(1, a.arity + 1)
            if a.signature.inputs[i - 1] == b.signature.output
        ]
        if not slots:
            continue
        slot = rng.choice(slots)
        lhs = extend_derivation(model, graft_oriented(a, slot, b))
        da = extend_derivation(model, OperadElement.monomial(a))
        db = extend_derivation(model, OperadElement.monomial(b))
        rhs = graft_elements(da, slot, OperadElement.monomial(b), graft_oriented) + graft_elements(
            OperadElement.monomial(a), slot, db, graft_oriented
        ).scale(-1 if a.degree % 2 else 1)
        assert lhs == rhs, (a.compact(), slot, b.compact())
        checked += 1
    assert checked >= 50


def rename_model(diff, name_map):
    """`diff` with its generators renamed by `name_map`."""
    specs = [
        GeneratorSpec(name_map.get(g.name, g.name), g.signature, g.degree)
        for g in diff.base.generators
    ]
    gens = GeneratorSet(diff.base.colors, specs)
    images = {
        name_map.get(name, name): rename_element(img, gens, name_map)
        for name, img in diff.images.items()
    }
    return DerivationDifferential(gens, images)


def model_from_json(obj):
    """The reader of `serialize.model_to_json`; no command reads a model."""
    colors, generators, images = _fields(obj, ("colors", "generators", "images"), {})
    specs = [
        GeneratorSpec(g["name"], Signature(g["output"], tuple(g["inputs"])), g["degree"])
        for g in generators
    ]
    gens = GeneratorSet(tuple(colors), specs)
    decoded = {name: element_from_json(elem, gens) for name, elem in images.items()}
    return DerivationDifferential(gens, decoded)


def test_rename_model_matches_printed_morphism():
    bw = build_model_btow(build_ainf(4), 4)
    name_map = {"f": "f_1"}
    for k in (2, 3, 4):
        name_map[f"mu_{k}_B"] = f"mu_{k}"
        name_map[f"mu_{k}_W"] = f"nu_{k}"
        name_map[f"mu_{k}_bar"] = f"f_{k}"
    renamed = rename_model(bw, name_map)
    printed = build_ainf_morphism(4)
    assert renamed.of("f_2") == printed.of("f_2")
    assert renamed.of("mu_3") == printed.of("mu_3")


@pytest.mark.parametrize(
    "kind",
    [
        (build_ainf, 5),
        (build_ainf_morphism, 4),
        (build_homotopy_model, 4),
        (build_iso_resolution, 6),
    ],
)
def test_truncated_models_are_closed(kind):
    # every image of a truncated model only uses generators of the model:
    # truncation semantics are verified, not assumed
    build, bound = kind
    model = build(bound)
    names = {g.name for g in model.base.generators}
    for g in model.base.generators:
        for mono in model.of(g.name).terms:
            assert set(mono.vertex_names()) <= names


def test_builders_reject_bad_truncation():
    with pytest.raises(ValueError):
        build_ainf(1)
    with pytest.raises(ValueError):
        build_ainf_morphism(0)
    with pytest.raises(ValueError):
        build_iso_resolution(-1)


def test_rename_element_recolors_nonzero_and_zero_images():
    base = build_ainf(3)
    target = GeneratorSet(
        (B, W), [GeneratorSpec(f"mu_{k}_W", Signature(W, (W,) * k), k - 2) for k in (2, 3)]
    )
    names = {"mu_2": "mu_2_W", "mu_3": "mu_3_W"}
    d3 = base.of("mu_3")
    moved = rename_element(d3, target, names, {B: W})
    want = d3.text().replace("mu_2", "mu_2_W").replace(":B", ":W")
    assert not moved.is_zero() and moved.text() == want
    assert (moved.signature, moved.degree) == (Signature(W, (W, W, W)), 0)
    # D(mu_2) = 0: the zero image moves to the recolored component too
    zero = rename_element(base.of("mu_2"), target, names, {B: W})
    assert zero.is_zero()
    assert (zero.signature, zero.degree) == (Signature(W, (W, W)), -1)


def test_image_for_a_name_that_is_not_a_generator_is_rejected():
    d = build_ainf(3)
    img = d.of("mu_3")
    with pytest.raises(ValueError, match="mu_9"):
        DerivationDifferential(d.base, {"mu_3": img, "mu_9": img})


def test_images_are_read_only():
    d = build_ainf(3)
    with pytest.raises(TypeError):
        d.images["mu_2"] = d.of("mu_3")
    # the tailed models, renaming and serialization only read images
    bw = build_model_btow(d, 3)
    with pytest.raises(TypeError):
        bw.images["f"] = bw.of("mu_3_bar")
    assert verify_d_squared(bw).ok
    renamed = rename_model(bw, {"f": "g"})
    assert renamed.of("g").is_zero() and verify_d_squared(renamed).ok
    loaded = model_from_json(json.loads(json.dumps(model_to_json(bw))))
    assert dict(loaded.images) == dict(bw.images)
    with pytest.raises(TypeError):
        loaded.images["f"] = bw.of("f")


def test_d_squared_check_assembles_no_monomial(monkeypatch):
    # Terms are merged by shape, and a tree is built only for a sum that
    # survives: D^2 = 0, so none is.
    model = build_ainf_morphism(8)
    f_3 = elem(model.base, "f_3")  # a generator's tree is assembled too: build it first
    built = []
    assembled = TreeMonomial._assembled

    def spy(cls, *args):
        built.append(args[1])
        return assembled(*args)

    monkeypatch.setattr(TreeMonomial, "_assembled", classmethod(spy))
    assert verify_d_squared(model).ok
    assert built == []
    # the spy is live: a nonzero derivative builds one tree per term
    d_f3 = extend_derivation(model, f_3)
    assert len(built) == len(d_f3.terms) > 0


def test_each_splice_table_is_built_once_per_differential(monkeypatch):
    built = []  # holds the differentials, so their ids stay distinct
    splice_table = DerivationDifferential._splice_table

    def spy(self, name):
        built.append((self, name))
        return splice_table(self, name)

    monkeypatch.setattr(DerivationDifferential, "_splice_table", spy)
    base = build_ainf(6)
    model = build_model_btow(base, 6)
    # Every tail is solved against the model itself, and a solved image
    # replaces a zero one whose table no derivative has needed: so each
    # generator's table is built once in the whole model build.
    names = [name for diff, name in built if diff is model]
    assert names and len(set(names)) == len(names)
    assert {diff for diff, _ in built} == {base, model}


def test_replace_drops_only_the_replaced_splice_table():
    diff = build_ainf(5)
    assert verify_d_squared(diff).ok  # builds the tables of mu_2, mu_3 and mu_4
    mu_2_table = diff._splices["mu_2"]
    before = dict(diff.images)
    images = dict(before)
    images["mu_4"] = images["mu_4"].scale(2)
    images["mu_3"] = OperadElement.zero(diff.base, images["mu_3"].signature, images["mu_3"].degree)
    for name in ("mu_4", "mu_3"):
        diff._replace(name, images[name])
    assert diff._splices.keys() == {"mu_2"}
    assert diff._splices["mu_2"] is mu_2_table
    assert diff.images == images
    fresh = DerivationDifferential(diff.base, images)
    for g in diff.base.generators:
        # D(mu_5) has mu_3 and mu_4 vertices, whose tables must be new
        assert extend_derivation(diff, before[g.name]) == extend_derivation(fresh, before[g.name])
    with pytest.raises(ValueError):
        diff._replace("mu_2", images["mu_3"])  # D(mu_3) is not in D(mu_2)'s component


def test_associahedron_face_counts():
    # B <- B^n in degree d holds the dissections of an (n+1)-gon by
    # k = n-2-d diagonals (Kirkman-Cayley), and each component's Euler
    # characteristic is 1, as for a polytope
    gens = build_ainf(8).base
    for n in range(2, 9):
        counts = [len(enumerate_basis(gens, Signature(B, (B,) * n), d)) for d in range(n - 1)]
        want = [comb(n - 2, k) * comb(n + k, k) // (k + 1) for k in (n - 2 - d for d in range(n - 1))]
        assert counts == want, n
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1, n


def test_multiplihedron_face_counts():
    # W <- B^n: degree 0 holds the vertices of the multiplihedron (OEIS
    # A121988), degree n-2 its facets, and the Euler characteristic is 1
    gens = build_ainf_morphism(7).base
    vertices = [1, 2, 6, 21, 80, 322, 1348]
    for n in range(1, 8):
        counts = [len(enumerate_basis(gens, Signature(W, (B,) * n), d)) for d in range(n)]
        assert counts[0] == vertices[n - 1], n
        if n >= 2:
            assert counts[n - 2] == n * (n - 1) // 2 + 2 ** (n - 1) - 1, n
        assert sum((-1) ** d * c for d, c in enumerate(counts)) == 1, n


def test_of_names_an_unknown_generator():
    with pytest.raises(KeyError, match="no differential image for generator 'nu_2'"):
        build_ainf(2).of("nu_2")


@pytest.mark.parametrize("build", [build_ainf_morphism, build_homotopy_model])
def test_two_colored_builders_reject_arity_zero(build):
    with pytest.raises(ValueError, match=r"^max_arity must be >= 1$"):
        build(0)
