import hashlib
import json
from collections import Counter

import pytest

from operadkit import core, differentials, tails
from operadkit.core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    UnboundedEnumerationError,
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
    extend_derivation,
    leibniz_shapes,
    rename_element,
    verify_d_squared,
)
from operadkit.forests import polarization_ns, symmetrize_forest
from operadkit.serialize import model_to_json
from operadkit.tails import (
    ObstructionNotCycleError,
    TailNotFoundError,
    build_model_btow,
    build_model_homotopy,
    build_model_iso_principal,
    principal_part_btow,
    solve_tail,
    theta_substitution,
)

from test_core import normalize_bw
from test_differentials import rename_model

B, W = "B", "W"


def magmatic(degree=0):
    gens = GeneratorSet(("A",), [GeneratorSpec("m", Signature("A", ("A", "A")), degree)])
    return DerivationDifferential(gens, {})


@pytest.fixture(scope="module")
def bw4():
    return build_model_btow(build_ainf(4), 4)


def btow_names(max_arity):
    """The names of `build_ainf_morphism` for those of `build_model_btow`."""
    name_map = {"f": "f_1"}
    for k in range(2, max_arity + 1):
        name_map.update({f"mu_{k}_B": f"mu_{k}", f"mu_{k}_W": f"nu_{k}", f"mu_{k}_bar": f"f_{k}"})
    return name_map


def homotopy_names(max_arity):
    """The names of `build_homotopy_model` for those of `build_model_homotopy`."""
    name_map = {"p": "p_1", "q": "q_1", "h": "h_1"}
    for k in range(2, max_arity + 1):
        name_map.update({f"mu_{k}_B": f"mu_{k}", f"mu_{k}_W": f"nu_{k}"})
        name_map.update({f"mu_{k}_{x}": f"{x}_{k}" for x in "pqh"})
    return name_map


def test_principal_part_mu2(bw4):
    gens = bw4.base
    got = principal_part_btow(gens, "mu_2_B", "mu_2_W")
    f = OperadElement.from_generator(gens, "f")
    want = graft(
        TreeMonomial.generator(gens, "f"), 1, TreeMonomial.generator(gens, "mu_2_B")
    ) - compose_full(TreeMonomial.generator(gens, "mu_2_W"), [f, f])
    assert got == want


def test_principal_part_mu3_degree(bw4):
    gens = bw4.base
    got = principal_part_btow(gens, "mu_3_B", "mu_3_W")
    assert got.degree == 1
    assert got.signature == Signature(W, (B, B, B))


def test_principal_part_requires_arity_two(bw4):
    with pytest.raises(ValueError):
        principal_part_btow(bw4.base, "f", "f")


def test_principal_vanishes_in_quotient(bw4):
    # the alpha map: kill bar generators, then rewrite f a_B -> a_W f^n;
    # the principal part maps to zero there.
    rel = {f"mu_{k}_B": f"mu_{k}_W" for k in (2, 3, 4)}
    for k in (2, 3, 4):
        principal = principal_part_btow(bw4.base, f"mu_{k}_B", f"mu_{k}_W")
        assert normalize_bw(principal, rel).is_zero()


def test_alpha_compatibility(bw4):
    # alpha(D(gen)) = d(alpha(gen)) for every generator: bar generators map
    # to zero, so alpha(D(bar x)) must vanish after the rewrite.
    rel = {f"mu_{k}_B": f"mu_{k}_W" for k in (2, 3, 4)}
    bars = set(bw4.tails)

    def alpha(elem):
        kept = {m: c for m, c in elem.terms.items() if not bars.intersection(m.vertex_names())}
        return normalize_bw(
            OperadElement(elem.gens, kept, signature=elem.signature, degree=elem.degree), rel
        )

    for g in bw4.base.generators:
        img = bw4.of(g.name)
        if g.name in bars:
            assert alpha(img).is_zero(), g.name
        else:
            # copies: alpha is injective on them and D has no bar terms
            assert alpha(img) == normalize_bw(img, rel)


def test_tail_vanishes_at_arity_two(bw4):
    assert bw4.tails["mu_2_bar"].is_zero()
    printed = build_ainf_morphism(2)
    assert rename_element(bw4.of("mu_2_bar"), printed.base, btow_names(2)) == printed.of("f_2")


@pytest.mark.parametrize("k", range(2, 9))
def test_btow_model_is_the_closed_form(k):
    # With its free variables at zero, the solver finds exactly the paper's
    # closed-formula tails: the renamed model is build_ainf_morphism(k), on
    # every generator.  This pins the meaning of what `solve-tail` writes.
    renamed = rename_model(build_model_btow(build_ainf(k), k), btow_names(k))
    printed = build_ainf_morphism(k)
    assert sorted(renamed.base.generators, key=lambda g: g.name) == sorted(
        printed.base.generators, key=lambda g: g.name
    )
    for g in printed.base.generators:
        assert renamed.of(g.name) == printed.of(g.name), g.name


@pytest.mark.parametrize("n", [3, 4])
def test_solver_tail_vs_closed_formula(n, bw4):
    # Any two solutions of D(omega) = phi differ by a D-cycle supported in
    # the ideal, which is what this test asserts.  The solver's tail is in
    # fact the closed formula itself, so the difference is zero
    # (test_btow_model_is_the_closed_form).
    printed = build_ainf_morphism(4)
    renamed = rename_model(bw4, btow_names(4))
    diff = renamed.of(f"f_{n}") - printed.of(f"f_{n}")
    assert extend_derivation(printed, diff).is_zero()
    ideal = {f"f_{k}" for k in range(2, n)}
    for mono in diff.terms:
        assert ideal.intersection(mono.vertex_names())


def test_paper_tail_solves_same_equation(bw4):
    # substitute the closed-formula tail into the tail equation directly
    printed = build_ainf_morphism(3)
    gens = printed.base
    f1 = OperadElement.from_generator(gens, "f_1")
    principal = graft(
        TreeMonomial.generator(gens, "f_1"), 1, TreeMonomial.generator(gens, "mu_3")
    ) - compose_full(TreeMonomial.generator(gens, "nu_3"), [f1, f1, f1])
    omega_paper = printed.of("f_3") - principal
    phi = extend_derivation(printed, principal).scale(-1)
    assert extend_derivation(printed, omega_paper) == phi


def test_solve_tail_rejects_non_cycle(bw4):
    gens = bw4.base
    partial = DerivationDifferential(gens, dict(bw4.images))
    # a (W; B^4) degree-1 element that is not D-closed: it contains mu_3_B
    mu3 = TreeMonomial.generator(gens, "mu_3_B")
    mu2 = TreeMonomial.generator(gens, "mu_2_B")
    inner = graft(mu3, 1, mu2)
    ((inner_mono, _),) = inner.terms.items()
    rhs = graft(TreeMonomial.generator(gens, "f"), 1, inner_mono)
    assert not extend_derivation(partial, rhs).is_zero()
    assert rhs.degree == gens.spec("mu_4_bar").degree - 2
    with pytest.raises(ObstructionNotCycleError):
        solve_tail(partial, "mu_4_bar", ["mu_2_bar", "mu_3_bar"], rhs)


def test_solve_tail_not_found_is_classified():
    # an empty ideal cannot absorb a nonzero obstruction
    bw = build_model_btow(build_ainf(3), 3)
    gens = bw.base
    partial = DerivationDifferential(gens, dict(bw.images))
    phi = extend_derivation(
        partial, principal_part_btow(gens, "mu_3_B", "mu_3_W")
    ).scale(-1)
    assert not phi.is_zero()
    with pytest.raises(TailNotFoundError):
        solve_tail(partial, "mu_3_bar", [], phi)


def test_solve_tail_rejects_ideal_names_that_are_not_generators():
    # a misspelled ideal generator must not shrink the ideal to nothing and
    # report that no tail exists: the same problem with "mu_2_bar" has one
    bw = build_model_btow(build_ainf(3), 3)
    gens = bw.base
    partial = DerivationDifferential(gens, dict(bw.images))
    phi = extend_derivation(partial, principal_part_btow(gens, "mu_3_B", "mu_3_W")).scale(-1)
    assert len(solve_tail(partial, "mu_3_bar", ["mu_2_bar"], phi).terms) == 4
    with pytest.raises(ValueError, match=r"\['mu_2_bra', 'nu'\] are not generators"):
        solve_tail(partial, "mu_3_bar", ["mu_2_bar", "mu_2_bra", "nu"], phi)
    # a zero right-hand side is answered without a basis, and still checked
    with pytest.raises(ValueError, match=r"\['nu'\] are not generators"):
        solve_tail(partial, "mu_3_bar", ["nu"], OperadElement.zero(gens, phi.signature, phi.degree))


def test_enumerate_basis_builds_each_subproblem_once(monkeypatch):
    # Within one enumeration, the shapes of each (colour, leaves, weight)
    # and the child combinations of each (input colours, blocks, weight)
    # are built once and then reused.
    builds = Counter()
    for method in ("_build_shapes", "_build_combos"):
        real = getattr(core._BasisEnumerator, method)

        def spy(self, *key, real=real, method=method):
            builds[self, method, key] += 1
            return real(self, *key)

        monkeypatch.setattr(core._BasisEnumerator, method, spy)
    bw = build_model_btow(build_ainf(8), 8)
    assert [len(t.terms) for t in bw.tails.values()] == [0, 4, 11, 23, 44, 82, 153]
    assert len({enumerator for enumerator, _, _ in builds}) == 6  # mu_3_bar .. mu_8_bar
    assert max(builds.values()) == 1


def test_enumerate_basis_builds_little_beyond_its_answer(monkeypatch):
    # The weight bounds prune every split and head weight that cannot make
    # up the weight still needed: on the arity-8 btow tail component the
    # enumerator builds at most twice as many shapes as it returns.
    bw = build_model_btow(build_ainf(8), 8)
    built = []
    real = core._BasisEnumerator._build_shapes

    def counting(self, *key):
        out = real(self, *key)
        built.append(len(out))
        return out

    monkeypatch.setattr(core._BasisEnumerator, "_build_shapes", counting)
    spec = bw.base.spec("mu_8_bar")
    basis = enumerate_basis(bw.base, spec.signature, spec.degree - 1)
    assert len(basis) == 155
    assert sum(built) <= 2 * len(basis)


def test_solve_tail_empty_ideal_enumerates_nothing():
    # f_0 is closed and nonzero, and an empty ideal has no candidates, so the
    # answer is "no tail" although the component is infinite
    iso = build_iso_resolution(3)
    gens = iso.base
    rhs = OperadElement.from_generator(gens, "f_0")
    assert extend_derivation(iso, rhs).is_zero() and not rhs.is_zero()
    with pytest.raises(TailNotFoundError) as err:
        solve_tail(iso, "f_2", [], rhs)
    assert "cutoff" not in str(err.value)


def test_solve_tail_zero_rhs_needs_no_basis():
    # the iso generators compose without bound, so a basis with no cutoff
    # cannot be enumerated; a zero obstruction has the zero tail regardless
    iso = build_iso_resolution(3)
    gens = iso.base
    spec = gens.spec("f_2")
    with pytest.raises(UnboundedEnumerationError):
        enumerate_basis(gens, spec.signature, spec.degree - 1)
    rhs = OperadElement.zero(gens, spec.signature, spec.degree - 2)
    omega = solve_tail(iso, "f_2", ["f_0", "g_0"], rhs)
    assert omega.is_zero()
    assert (omega.signature, omega.degree) == (spec.signature, spec.degree - 1)


def test_solve_tail_checks_the_component_of_a_zero_rhs():
    # the component check comes before the zero shortcut
    iso = build_iso_resolution(3)
    rhs = OperadElement.zero(iso.base, Signature(W, (W,)), 5)
    with pytest.raises(ValueError, match="rhs lives in"):
        solve_tail(iso, "f_2", ["f_0", "g_0"], rhs)


def test_btow_tail_report(bw4):
    # the tails in solve order, one per bar generator; only arity 2 is zero
    assert list(bw4.tails) == ["mu_2_bar", "mu_3_bar", "mu_4_bar"]
    assert bw4.tails["mu_2_bar"].is_zero()
    for name in ("mu_3_bar", "mu_4_bar"):
        assert bw4.tails[name].terms


def test_homotopy_model_needs_every_bar_generator():
    # bw covers arities up to 3, so mu_4 has no mu_4_bar to rename
    bw3 = build_model_btow(build_ainf(4), 3)
    assert list(bw3.tails) == ["mu_2_bar", "mu_3_bar"]
    with pytest.raises(ValueError, match="does not cover generator mu_4"):
        build_model_homotopy(bw3, 4)


def test_btow_passes_d_squared(bw4):
    assert verify_d_squared(bw4).ok


def test_btow_magmatic_tail_zero():
    bw = build_model_btow(magmatic(), 2)
    assert bw.tails["m_bar"].is_zero()
    principal = principal_part_btow(bw.base, "m_B", "m_W")
    assert bw.of("m_bar") == principal
    assert verify_d_squared(bw).ok


def test_generator_trees_match_the_validated_ones(bw4):
    # `generator` takes the invariants from the spec, unvalidated; they are
    # those the constructor computes from the one-vertex shape
    models = [build_ainf(4), build_ainf_morphism(4), build_homotopy_model(4), build_iso_resolution(3), bw4]
    for model in models:
        gens = model.base
        for spec in gens.generators:
            shape = (spec.name, *spec.signature.inputs)
            got, want = TreeMonomial.generator(gens, spec.name), TreeMonomial(gens, shape)
            assert (got.shape, got.signature, got.degree) == (want.shape, want.signature, want.degree)
    with pytest.raises(KeyError, match="unknown generator 'nu'"):
        TreeMonomial.generator(bw4.base, "nu")


def test_btow_determinism():
    a = build_model_btow(build_ainf(4), 4)
    b = build_model_btow(build_ainf(4), 4)
    assert json.dumps(model_to_json(a)) == json.dumps(model_to_json(b))


def test_btow_rejects_arity_one_generators():
    gens = GeneratorSet(("A",), [GeneratorSpec("u", Signature("A", ("A",)), 1)])
    base = DerivationDifferential(gens, {})
    with pytest.raises(ValueError):
        build_model_btow(base, 2)


def test_btow_rejects_broken_base():
    # a two-step differential chain that does not square to zero:
    # d(c) = b(b, 1) and d(a) = c o_1 b force d^2(a) = b(b,1) o_1 b != 0
    gens = GeneratorSet(
        ("A",),
        [
            GeneratorSpec("b", Signature("A", ("A", "A")), 0),
            GeneratorSpec("c", Signature("A", ("A",) * 3), 1),
            GeneratorSpec("a", Signature("A", ("A",) * 4), 2),
        ],
    )
    b = TreeMonomial.generator(gens, "b")
    c = TreeMonomial.generator(gens, "c")
    bad = DerivationDifferential(gens, {"c": graft(b, 1, b), "a": graft(c, 1, b)})
    assert not verify_d_squared(bad).ok
    with pytest.raises(ValueError):
        build_model_btow(bad, 3)


# ---------------------------------------------------------------------------
# homotopy model


@pytest.fixture(scope="module")
def hm4(bw4):
    return build_model_homotopy(bw4, 4)


def test_homotopy_theta_substitution(bw4):
    hm = build_model_homotopy(bw4, 2)
    gens = hm.base
    # theta_p sends f to p and bar copies to the p family
    f_elem = OperadElement.from_generator(bw4.base, "f")
    assert theta_substitution(bw4, f_elem, gens, "p") == OperadElement.from_generator(
        gens, "p"
    )
    bar = OperadElement.from_generator(bw4.base, "mu_2_bar")
    assert theta_substitution(bw4, bar, gens, "p") == OperadElement.from_generator(
        gens, "mu_2_p"
    )


def test_homotopy_tail_report(hm4):
    assert list(hm4.tails) == ["mu_2_h", "mu_3_h", "mu_4_h"]


def test_homotopy_model_d_squared(hm4):
    assert verify_d_squared(hm4).ok


def test_homotopy_h1_and_arity2_match_printed(hm4):
    printed = build_homotopy_model(4)
    gens = hm4.base
    assert hm4.of("h") == OperadElement.from_generator(gens, "p") - OperadElement.from_generator(
        gens, "q"
    )
    renamed = rename_model(hm4, homotopy_names(4))
    assert renamed.of("h_2") == printed.of("h_2")
    assert renamed.of("p_2") == printed.of("p_2")
    assert renamed.of("q_3") == printed.of("q_3")


@pytest.mark.parametrize("n", [3, 4])
def test_homotopy_principal_parts_match_printed(hm4, n):
    # Any two h-tails differ by a D-cycle supported in the ideal, which is
    # what this test asserts.  The solver's h-tails are in fact the printed
    # ones, so the difference is zero (test_homotopy_model_is_the_closed_form).
    printed = build_homotopy_model(4)
    renamed = rename_model(hm4, homotopy_names(4))
    diff = renamed.of(f"h_{n}") - printed.of(f"h_{n}")
    ideal = set()
    for k in range(1, n):
        ideal.update({f"p_{k}", f"q_{k}", f"h_{k}"})
    for mono in diff.terms:
        assert ideal.intersection(mono.vertex_names()), mono.compact()
    assert extend_derivation(printed, diff).is_zero()
    assert verify_d_squared(printed).ok


@pytest.fixture(scope="module")
def homotopy_models():
    """The solved homotopy models of arities 2 to 6, by arity."""
    return {k: build_model_homotopy(build_model_btow(build_ainf(k), k), k) for k in range(2, 7)}


def test_homotopy_model_is_the_closed_form(homotopy_models):
    # With its free variables at zero, the solver finds the printed tails:
    # the renamed model is build_homotopy_model(k), on every generator.
    for k, model in homotopy_models.items():
        renamed = rename_model(model, homotopy_names(k))
        printed = build_homotopy_model(k)
        assert sorted(renamed.base.generators, key=lambda g: g.name) == sorted(
            printed.base.generators, key=lambda g: g.name
        )
        for g in printed.base.generators:
            assert renamed.of(g.name) == printed.of(g.name), (k, g.name)


def test_homotopy_model_arity_six(homotopy_models):
    # The arity-6 homotopy model, pinned by the digest of its JSON; its
    # last tail system has 12,890 columns.
    m = homotopy_models[6]
    digest = hashlib.sha256(json.dumps(model_to_json(m), indent=2).encode()).hexdigest()
    assert digest == "701f222c89aa05c07e88a12f4ef9e20c5d1fac0399fe25192deb59ad13189f4f"


def test_homotopy_model_arity_five():
    # The arity-5 homotopy model, pinned by the digest of its JSON; its
    # largest tail system (3,990 x 1,051) is where the row order matters.
    m = build_model_homotopy(build_model_btow(build_ainf(5), 5), 5)
    assert verify_d_squared(m).ok
    assert [len(t.terms) for t in m.tails.values()] == [0, 6, 20, 51]
    digest = hashlib.sha256(json.dumps(model_to_json(m), indent=2).encode()).hexdigest()
    assert digest == "c4a23515d436c0ce62cc4beaec18e1c177bdcf91aee16800da30959501ed6d72"


def test_tail_systems_are_streamed(monkeypatch):
    # The rows of a tail system are never sorted: only the basis monomials,
    # which give the column order, get a sort key, each once.  And each
    # candidate's derivative, a shape -> coeff map, is written into the rows
    # and dropped before the next is derived, so no list of candidate
    # images is held.
    import weakref

    keyed = Counter()
    sort_key = TreeMonomial.sort_key

    def counting_key(mono):
        keyed[mono.shape] += 1
        return sort_key.fget(mono)

    basis = set()

    def recording_basis(*args):
        monos = enumerate_basis(*args)
        basis.update(m.shape for m in monos)
        return monos

    class Derived(dict):
        """A shape -> coeff map that a weak set can hold."""

        __hash__ = object.__hash__

    live = weakref.WeakSet()
    held = []

    def tracking_derivative(diff, pairs):
        held.append(len(live))
        out = Derived(leibniz_shapes(diff, pairs))
        live.add(out)
        return out

    monkeypatch.setattr(TreeMonomial, "sort_key", property(counting_key))
    monkeypatch.setattr(tails, "enumerate_basis", recording_basis)
    monkeypatch.setattr(tails, "leibniz_shapes", tracking_derivative)
    monkeypatch.setattr(differentials, "leibniz_shapes", tracking_derivative)
    bw = build_model_btow(build_ainf(6), 6)
    assert [len(t.terms) for t in bw.tails.values()] == [0, 4, 11, 23, 44]
    assert basis and len(held) > len(basis)
    assert set(keyed) <= basis and max(keyed.values()) == 1
    assert max(held) <= 1


def test_homotopy_symmetrized_variant(monkeypatch):
    # the principal part built on the symmetrized staircase word instead
    monkeypatch.setattr(tails, "polarization_ns", lambda gens, m: symmetrize_forest(polarization_ns(gens, m)))
    bw = build_model_btow(build_ainf(3), 3)
    # width-2 symmetrized staircase still closes at arity 2 ...
    hm2 = build_model_homotopy(bw, 2)
    assert verify_d_squared(hm2).ok
    # ... but at arity 3 the tail equation for the symmetrized choice is
    # exactly unsolvable in the planar setting (only the staircase works);
    # the solver proves there is no tail in the whole finite component.
    with pytest.raises(TailNotFoundError):
        build_model_homotopy(bw, 3)


# ---------------------------------------------------------------------------
# iso principal model


def test_iso_principal_degree_bookkeeping():
    model = build_model_iso_principal(magmatic(0), 2, 2)
    for k in (0, 1, 2):
        assert model.base.spec(f"m_f{k}").degree == 0 + k + 1
        assert model.base.spec(f"m_g{k}").degree == 0 + k + 1
    model1 = build_model_iso_principal(magmatic(1), 2, 1)
    assert model1.base.spec("m_f1").degree == 1 + 1 + 1


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("K", [0, 2, 5])
def test_iso_principal_d_squared(degree, K):
    model = build_model_iso_principal(magmatic(degree), 2, K)
    # Over an arity-2 base the tail ideal is empty, so every solve only
    # checks that a principal part is closed.
    assert [len(t.terms) for t in model.tails.values()] == [0] * (2 * (K + 1))
    assert verify_d_squared(model).ok


def test_iso_principal_records_outcomes():
    model = build_model_iso_principal(magmatic(0), 2, 0)
    assert list(model.tails) == ["m_f0", "m_g0"]
    assert all(t.is_zero() for t in model.tails.values())


@pytest.mark.parametrize(
    "degree, K, want",
    [
        (0, 3, "09248cd92b4c38ef0dd6422f76766cdcafa741a04732523c68239e3c87df1d48"),
        (1, 4, "663f85e17ab1ee173e44b17ae4de245f0e2971a7665eb8e7e28db75da172af64"),
    ],
)
def test_iso_principal_model_digest(degree, K, want):
    # Pinned from the build that renamed each iso image over the model's
    # generators; the images now go in as built, and the model re-homes
    # their monomials.
    model = build_model_iso_principal(magmatic(degree), 2, K)
    assert all(m.gens is model.base for img in model.images.values() for m in img.terms)
    digest = hashlib.sha256(json.dumps(model_to_json(model), indent=2).encode()).hexdigest()
    assert digest == want


def test_iso_principal_rejects_higher_arity():
    with pytest.raises(ValueError):
        build_model_iso_principal(build_ainf(3), 3, 1)


def test_iso_principal_takes_a_base_generator_named_like_an_iso_letter():
    gens = GeneratorSet(("A",), [GeneratorSpec("f_x", Signature("A", ("A", "A")), 0)])
    model = build_model_iso_principal(DerivationDifferential(gens, {}), 2, 2)
    assert list(model.tails) == [f"f_x_{fam}{k}" for k in range(3) for fam in "fg"]
    assert verify_d_squared(model).ok


def test_compact_text_tells_the_monomials_of_a_component_apart():
    # the text form stands in for the tree: over one generator set, no two
    # monomials of a component share it
    tailed = build_model_homotopy(build_model_btow(build_ainf(4), 4), 4)
    models = (build_ainf_morphism(6), build_homotopy_model(5), tailed)
    for model in models:
        for sig, degree in {(g.signature, d) for g in model.base.generators for d in (g.degree, g.degree - 1)}:
            texts = [m.compact() for m in enumerate_basis(model.base, sig, degree)]
            assert len(set(texts)) == len(texts), (sig, degree)


# ---------------------------------------------------------------------------
# one model per build


def test_a_tailed_build_constructs_one_differential(monkeypatch):
    # Each tail is solved against the model being built, so a build makes
    # one differential; the iso principal model also builds the iso
    # resolution it copies its images from.
    bases = {k: build_ainf(k) for k in (2, 5, 8)}
    bw5 = build_model_btow(bases[5], 5)
    built = []
    init = DerivationDifferential.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DerivationDifferential, "__init__", spy)
    build_model_btow(bases[8], 8)
    assert built == ["TailedModel"]
    built.clear()
    build_model_homotopy(bw5, 5)
    assert built == ["TailedModel"]
    built.clear()
    build_model_iso_principal(bases[2], 2, 5)
    assert sorted(built) == ["DerivationDifferential", "TailedModel"]


# ---------------------------------------------------------------------------
# a base with negative-degree generators


def suspended_ainf(n):
    """mu_2..mu_n all of degree -1, D(mu_m) = sum of mu_i o_s mu_j over
    i + j = m + 1 with coefficient +1; this squares to zero."""
    specs = [GeneratorSpec(f"mu_{k}", Signature("A", ("A",) * k), -1) for k in range(2, n + 1)]
    gens = GeneratorSet(("A",), specs)
    mu = {k: TreeMonomial.generator(gens, f"mu_{k}") for k in range(2, n + 1)}
    images = {}
    for m in range(2, n + 1):
        parts = (graft(mu[i], s, mu[m + 1 - i]) for i in range(2, m) for s in range(1, i + 1))
        images[f"mu_{m}"] = sum(parts, OperadElement.zero(gens, Signature("A", ("A",) * m), -2))
    return DerivationDifferential(gens, images)


def test_btow_over_negative_degrees_builds_without_a_cutoff():
    # Every component over this base is finite, although mu_k has degree
    # -1.  The digests are those of the models built by listing each
    # component up to eight vertices.
    base = suspended_ainf(4)
    assert verify_d_squared(base).ok
    model = build_model_btow(base, 4)
    assert verify_d_squared(model).ok
    assert [len(model.tails[f"mu_{k}_bar"].terms) for k in (2, 3, 4)] == [0, 4, 11]
    digest = hashlib.sha256(json.dumps(model_to_json(model), indent=2).encode()).hexdigest()
    assert digest == "1dd2d32e50e4ac73c3f179a42c71d812a3408cd835593089abbe947810a504aa"
    hm = build_model_homotopy(model, 4)
    assert verify_d_squared(hm).ok
    assert [len(t.terms) for t in hm.tails.values()] == [0, 6, 20]
    digest = hashlib.sha256(json.dumps(model_to_json(hm), indent=2).encode()).hexdigest()
    assert digest == "f5302fe40a29cf0d020cbc6d44d76476099d36b6ed45b192d9f4c09f9f9f4b1e"
