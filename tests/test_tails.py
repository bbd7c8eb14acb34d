import hashlib
import json
from collections import Counter

import pytest

from operadkit import core
from operadkit.core import (
    BwRelations,
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    UnboundedEnumerationError,
    compose_full,
    enumerate_basis,
    graft,
    normalize_bw,
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

from test_differentials import rename_model

B, W = "B", "W"


def magmatic(degree=0):
    gens = GeneratorSet(("A",), [GeneratorSpec("m", Signature("A", ("A", "A")), degree)])
    return DerivationDifferential(gens, {})


@pytest.fixture(scope="module")
def bw4():
    return build_model_btow(build_ainf(4), 4)


def test_principal_part_mu2(bw4):
    gens = bw4.base
    got = principal_part_btow(gens, "mu_2_B", "mu_2_W", "f")
    f = OperadElement.from_generator(gens, "f")
    want = graft(
        TreeMonomial.generator(gens, "f"), 1, TreeMonomial.generator(gens, "mu_2_B")
    ) - compose_full(TreeMonomial.generator(gens, "mu_2_W"), [f, f])
    assert got == want


def test_principal_part_mu3_degree(bw4):
    gens = bw4.base
    got = principal_part_btow(gens, "mu_3_B", "mu_3_W", "f")
    assert got.degree == 1
    assert got.signature == Signature(W, (B, B, B))


def test_principal_part_requires_arity_two(bw4):
    with pytest.raises(ValueError):
        principal_part_btow(bw4.base, "f", "f", "f")


def test_principal_vanishes_in_quotient(bw4):
    # the alpha map: kill bar generators, then rewrite f a_B -> a_W f^n;
    # the principal part maps to zero there.
    rel = BwRelations("f", {f"mu_{k}_B": f"mu_{k}_W" for k in (2, 3, 4)})
    for x in bw4.generator_order:
        principal = principal_part_btow(bw4.base, f"{x}_B", f"{x}_W", "f")
        assert normalize_bw(principal, rel).is_zero()


def test_alpha_compatibility(bw4):
    # alpha(D(gen)) = d(alpha(gen)) for every generator: bar generators map
    # to zero, so alpha(D(bar x)) must vanish after the rewrite.
    rel = BwRelations("f", {f"mu_{k}_B": f"mu_{k}_W" for k in (2, 3, 4)})
    bars = {f"{x}_bar" for x in bw4.generator_order}

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
    name_map = {"f": "f_1", "mu_2_B": "mu_2", "mu_2_W": "nu_2", "mu_2_bar": "f_2"}
    assert rename_element(bw4.of("mu_2_bar"), printed.base, name_map) == printed.of("f_2")


@pytest.mark.parametrize("n", [3, 4])
def test_solver_tail_vs_closed_formula(n, bw4):
    # both the solver tail and the closed-formula tail solve D(omega) = phi;
    # their difference is a D-cycle supported in the ideal.
    printed = build_ainf_morphism(4)
    name_map = {"f": "f_1"}
    for k in (2, 3, 4):
        name_map.update(
            {f"mu_{k}_B": f"mu_{k}", f"mu_{k}_W": f"nu_{k}", f"mu_{k}_bar": f"f_{k}"}
        )
    renamed = rename_model(bw4, name_map)
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
        partial, principal_part_btow(gens, "mu_3_B", "mu_3_W", "f")
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
    phi = extend_derivation(partial, principal_part_btow(gens, "mu_3_B", "mu_3_W", "f")).scale(-1)
    assert len(solve_tail(partial, "mu_3_bar", ["mu_2_bar"], phi).terms) == 4
    with pytest.raises(ValueError, match=r"\['mu_2_bra', 'nu'\] are not generators"):
        solve_tail(partial, "mu_3_bar", ["mu_2_bar", "mu_2_bra", "nu"], phi)


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


def test_btow_tail_report(bw4):
    report = bw4.tail_report
    assert [e.name for e in report.entries] == ["mu_2_bar", "mu_3_bar", "mu_4_bar"]
    assert report.ok
    assert report.entries[0].line() == "PASS  mu_2_bar  tail 0"
    for e in report.entries[1:]:
        assert e.detail == f"tail with {len(bw4.tails[e.name].terms)} terms"
        assert bw4.tails[e.name].terms


def test_btow_passes_d_squared(bw4):
    assert verify_d_squared(bw4).ok


def test_btow_magmatic_tail_zero():
    bw = build_model_btow(magmatic(), 2)
    assert bw.tails["m_bar"].is_zero()
    principal = principal_part_btow(bw.base, "m_B", "m_W", "f")
    assert bw.of("m_bar") == principal
    assert verify_d_squared(bw).ok


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
    assert [e.name for e in hm4.tail_report.entries] == ["mu_2_h", "mu_3_h", "mu_4_h"]
    assert hm4.tail_report.ok
    assert list(hm4.tails) == ["mu_2_h", "mu_3_h", "mu_4_h"]


def test_homotopy_model_d_squared(hm4):
    assert verify_d_squared(hm4).ok


def test_homotopy_h1_and_arity2_match_printed(hm4):
    printed = build_homotopy_model(4)
    gens = hm4.base
    assert hm4.of("h") == OperadElement.from_generator(gens, "p") - OperadElement.from_generator(
        gens, "q"
    )
    nm = {"p": "p_1", "q": "q_1", "h": "h_1"}
    for k in (2, 3, 4):
        nm.update(
            {
                f"mu_{k}_B": f"mu_{k}",
                f"mu_{k}_W": f"nu_{k}",
                f"mu_{k}_p": f"p_{k}",
                f"mu_{k}_q": f"q_{k}",
                f"mu_{k}_h": f"h_{k}",
            }
        )
    renamed = rename_model(hm4, nm)
    assert renamed.of("h_2") == printed.of("h_2")
    assert renamed.of("p_2") == printed.of("p_2")
    assert renamed.of("q_3") == printed.of("q_3")


@pytest.mark.parametrize("n", [3, 4])
def test_homotopy_principal_parts_match_printed(hm4, n):
    # the solver's h-tails may differ from the printed ones, but the
    # principal parts agree and both models square to zero
    printed = build_homotopy_model(4)
    nm = {"p": "p_1", "q": "q_1", "h": "h_1"}
    for k in (2, 3, 4):
        nm.update(
            {
                f"mu_{k}_B": f"mu_{k}",
                f"mu_{k}_W": f"nu_{k}",
                f"mu_{k}_p": f"p_{k}",
                f"mu_{k}_q": f"q_{k}",
                f"mu_{k}_h": f"h_{k}",
            }
        )
    renamed = rename_model(hm4, nm)
    diff = renamed.of(f"h_{n}") - printed.of(f"h_{n}")
    ideal = set()
    for k in range(1, n):
        ideal.update({f"p_{k}", f"q_{k}", f"h_{k}"})
    for mono in diff.terms:
        assert ideal.intersection(mono.vertex_names()), mono.compact()
    assert extend_derivation(printed, diff).is_zero()
    assert verify_d_squared(printed).ok


def test_homotopy_model_arity_five():
    # The arity-5 homotopy model, pinned by the digest of its JSON; its
    # largest tail system (3,990 x 1,051) is where the row order matters.
    m = build_model_homotopy(build_model_btow(build_ainf(5), 5), 5)
    assert verify_d_squared(m).ok
    assert [e.detail for e in m.tail_report.entries] == [
        "tail 0",
        "tail with 6 terms",
        "tail with 20 terms",
        "tail with 51 terms",
    ]
    digest = hashlib.sha256(json.dumps(model_to_json(m), indent=2).encode()).hexdigest()
    assert digest == "c4a23515d436c0ce62cc4beaec18e1c177bdcf91aee16800da30959501ed6d72"


def test_homotopy_symmetrized_variant():
    bw = build_model_btow(build_ainf(3), 3)
    # width-2 symmetrized staircase still closes at arity 2 ...
    hm2 = build_model_homotopy(bw, 2, polarization="sym")
    assert verify_d_squared(hm2).ok
    # ... but at arity 3 the tail equation for the symmetrized choice is
    # exactly unsolvable in the planar setting (only the staircase works);
    # the solver proves there is no tail in the whole finite component.
    with pytest.raises(TailNotFoundError):
        build_model_homotopy(bw, 3, polarization="sym")
    with pytest.raises(ValueError):
        build_model_homotopy(bw, 3, polarization="nope")


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
    assert model.tail_report.ok
    # Over an arity-2 base the tail ideal is empty, so every solve only
    # checks that a principal part is closed.
    assert [e.detail for e in model.tail_report.entries] == ["tail 0"] * (2 * (K + 1))
    assert verify_d_squared(model).ok


def test_iso_principal_records_outcomes():
    model = build_model_iso_principal(magmatic(0), 2, 0)
    names = {e.name for e in model.tail_report.entries}
    assert names == {"m_f0", "m_g0"}
    assert all(e.ok for e in model.tail_report.entries)


def test_iso_principal_rejects_higher_arity():
    with pytest.raises(ValueError):
        build_model_iso_principal(build_ainf(3), 3, 1)


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
    assert [e.detail for e in hm.tail_report.entries] == ["tail 0", "tail with 6 terms", "tail with 20 terms"]
    digest = hashlib.sha256(json.dumps(model_to_json(hm), indent=2).encode()).hexdigest()
    assert digest == "f5302fe40a29cf0d020cbc6d44d76476099d36b6ed45b192d9f4c09f9f9f4b1e"
