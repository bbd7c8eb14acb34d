import random
from fractions import Fraction
from unittest import mock

import pytest

import operadkit.differentials as differentials
import operadkit.reps as reps

from operadkit.core import (
    OperadElement,
    Signature,
    TreeMonomial,
    enumerate_basis,
    graft,
    leaf_suffix_degrees,
)
from operadkit.differentials import (
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
)
from operadkit.linalg import RationalMatrix
from operadkit.reps import (
    ChainComplex,
    MultilinearMap,
    Representation,
    check_homotopy,
    check_representation,
    check_sh_equivalence,
    check_sh_morphism,
    compose_maps,
    evaluate_element,
    hom_differential,
    identity_map,
    zero_map,
)
from operadkit.tails import build_model_btow, build_model_homotopy

B, W = "B", "W"


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return RationalMatrix([[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


def random_map(rng, sources, target, degree, lo=-3, hi=3) -> MultilinearMap:
    """A map with every block of seeded integer entries in [lo, hi]."""
    out = MultilinearMap(sources, target, degree, {})
    blocks = {}
    for key in out.multidegrees():
        rows, cols = out.block_shape(key)
        blocks[key] = random_matrix(rng, rows, cols, lo, hi)
    return MultilinearMap(sources, target, degree, blocks)


def compose_at(outer, slot, inner):
    """Partial composition: identity maps in every slot except `slot` (1-based)."""
    inners = [inner if i == slot else identity_map(c) for i, c in enumerate(outer.sources, start=1)]
    return compose_maps(outer, inners)


def rand_complex(rng, color, dims=(1, 1, 1)):
    """Random complex over degrees 0..len(dims)-1 with exact d^2 = 0."""
    table = {k: n for k, n in enumerate(dims) if n}
    while True:
        d = {}
        ok = True
        prev = None
        for k in sorted(table):
            if k - 1 in table:
                d[k] = RationalMatrix(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(table[k])] for _ in range(table[k - 1])]
                )
        try:
            return ChainComplex(table, d, color)
        except ValueError:
            continue


def random_representation(rng, model, dims=(1, 1, 1)):
    u = rand_complex(rng, B, dims)
    v = rand_complex(rng, W, dims) if W in model.base.colors else None
    cx = {B: u}
    if v is not None:
        cx[W] = v
    images = {}
    for g in model.base.generators:
        sources = tuple(cx[c] for c in g.signature.inputs)
        images[g.name] = random_map(rng, sources, cx[g.signature.output], g.degree)
    return Representation(model, cx, images)


def test_hom_differential_of_chain_map_is_zero():
    rng = random.Random(0)
    u = rand_complex(rng, B)
    assert hom_differential(identity_map(u)).is_zero()


def test_hom_differential_zero_differentials():
    rng = random.Random(1)
    u = ChainComplex({0: 2, 1: 2}, {}, B)
    f = random_map(rng, (u, u), u, 1)
    assert hom_differential(f).is_zero()


def test_hom_differential_hand_oracle():
    # one-dimensional complex in degrees 0, 1 with d = 1; F = identity.
    u = ChainComplex({0: 1, 1: 1}, {1: [[1]]}, B)
    f = identity_map(u)
    assert hom_differential(f).is_zero()
    # G of degree 0 with G_0 = a, G_1 = b: (dG)(x) = d(G x) - G(dx) on degree 1
    g = MultilinearMap((u,), u, 0, {(0,): [[2]], (1,): [[3]]})
    dg = hom_differential(g)
    # on degree-1 input x: d(3x) - 2 dx = (3 - 2) dx -> block (1,) = [1]
    assert dg.block((1,)).entries == [[Fraction(1)]]
    assert dg.block((0,)).rows == 0


def test_hom_differential_squares_to_zero_random():
    rng = random.Random(2)
    for _ in range(30):
        u = rand_complex(rng, B)
        v = rand_complex(rng, W)
        f = random_map(rng, (u, v, u), v, rng.randint(0, 3))
        assert hom_differential(hom_differential(f)).is_zero()


def test_evaluate_single_generator():
    rng = random.Random(3)
    model = build_ainf(3)
    rep = random_representation(rng, model)
    elem = OperadElement.from_generator(model.base, "mu_2")
    assert evaluate_element(rep, elem) == rep.images["mu_2"]


def test_a_bare_generator_evaluates_to_its_image_composed_with_identities():
    # evaluate_element returns a bare generator's image itself, skipping the
    # composite with an identity in every slot; both must agree block for block
    model = build_ainf_morphism(3)
    for seed, dims in ((5, (1, 2, 1)), (6, (2, 0, 1))):
        rep = random_representation(random.Random(seed), model, dims)
        for g in model.base.generators:
            image = rep.image(g.name)
            composed = compose_maps(image, [identity_map(c) for c in image.sources])
            got = evaluate_element(rep, OperadElement.from_generator(model.base, g.name))
            assert got.blocks == composed.blocks and got == composed
            assert got.sources == composed.sources and got.target is composed.target


def test_evaluating_a_zero_needs_its_component():
    rep = random_representation(random.Random(3), build_ainf(3))
    sig = Signature(B, (B, B))
    got = evaluate_element(rep, OperadElement.zero(rep.model.base, sig, 1))
    assert got == zero_map(rep.sources_for(sig), rep.complexes[B], 1)


def test_evaluate_koszul_sign_example():
    # nu_2(p_1 (x) h_1) evaluated on (a, b) gives (-1)^{|a|} n_2(P_1 a, H_1 b)
    rng = random.Random(4)
    model = build_homotopy_model(2)
    rep = random_representation(rng, model)
    gens = model.base
    nu2 = TreeMonomial.generator(gens, "nu_2")
    elem = graft(
        TreeMonomial(gens, ("nu_2", ("p_1", B), W)), 2, TreeMonomial.generator(gens, "h_1")
    )
    got = evaluate_element(rep, elem)
    n2, p1, h1 = rep.images["nu_2"], rep.images["p_1"], rep.images["h_1"]
    u = rep.complexes[B]
    want_blocks = {}
    tmpl = zero_map((u, u), rep.complexes[W], 1)
    for key in tmpl.multidegrees():
        a_deg, b_deg = key
        mat = n2.block((a_deg, b_deg + 1)).mul(p1.block((a_deg,)).kron(h1.block((b_deg,))))
        want_blocks[key] = mat.scale(-1 if a_deg % 2 else 1)
    want = MultilinearMap((u, u), rep.complexes[W], 1, want_blocks)
    assert got == want


def test_calibration_identity_h2():
    # evaluate(D(h_2)) equals P_2 - Q_2 + (-1)^a n_2(P_1 a, H_1 b)
    #                    + n_2(H_1 a, Q_1 b) - H_1 m_2(a, b)
    # on random representations; with P_2 = Q_2 = 0 this is the displayed
    # derivation-homotopy-up-to-homotopy formula on the nose.
    rng = random.Random(5)
    model = build_homotopy_model(2)
    for trial in range(25):
        rep = random_representation(rng, model)
        if trial % 2:
            u = rep.complexes[B]
            v = rep.complexes[W]
            rep.images["p_2"] = zero_map((u, u), v, 1)
            rep.images["q_2"] = zero_map((u, u), v, 1)
        lhs = evaluate_element(rep, model.of("h_2"))
        assert lhs == _h2_formula(rep)


def _h2_formula(rep):
    u = rep.complexes[B]
    v = rep.complexes[W]
    n2 = rep.images["nu_2"]
    m2 = rep.images["mu_2"]
    p1, q1, h1 = rep.images["p_1"], rep.images["q_1"], rep.images["h_1"]
    blocks1, blocks2 = {}, {}
    tmpl = zero_map((u, u), v, 1)
    for key in tmpl.multidegrees():
        a_deg, b_deg = key
        m1 = n2.block((a_deg, b_deg + 1)).mul(p1.block((a_deg,)).kron(h1.block((b_deg,))))
        blocks1[key] = m1.scale(-1 if a_deg % 2 else 1)
        blocks2[key] = n2.block((a_deg + 1, b_deg)).mul(h1.block((a_deg,)).kron(q1.block((b_deg,))))
    term1 = MultilinearMap((u, u), v, 1, blocks1)
    term2 = MultilinearMap((u, u), v, 1, blocks2)
    term3 = compose_maps(h1, [m2])
    return rep.images["p_2"].sub(rep.images["q_2"]).add(term1).add(term2).sub(term3)


def _eval_leftmost(rep, mono):
    # iterated one-slot evaluation, expanding slots left to right, with the
    # orientation sign relating plain grafts to honest composition
    return _eval_iterated(rep, mono, reverse=False)


def _eval_rightmost(rep, mono):
    return _eval_iterated(rep, mono, reverse=True)


def _eval_iterated(rep, mono, reverse):
    shape = mono.shape
    if isinstance(shape, str):
        return identity_map(rep.complexes[shape])
    children = shape[1:]
    acc = rep.images[shape[0]]
    order = range(len(children) - 1, -1, -1) if reverse else range(len(children))
    if reverse:
        for i in order:
            child = TreeMonomial(mono.gens, children[i]) if not isinstance(children[i], str) else None
            sub = (
                _eval_iterated(rep, TreeMonomial(mono.gens, children[i]), reverse)
                if not isinstance(children[i], str)
                else identity_map(rep.complexes[children[i]])
            )
            acc = compose_at(acc, i + 1, sub)
    else:
        offset = 0
        for i in order:
            sub = (
                _eval_iterated(rep, TreeMonomial(mono.gens, children[i]), reverse)
                if not isinstance(children[i], str)
                else identity_map(rep.complexes[children[i]])
            )
            acc = compose_at(acc, offset + 1, sub)
            offset += sub.arity
    return acc


def test_evaluation_order_independence():
    rng = random.Random(6)
    model = build_ainf_morphism(3)
    pool = []
    for sig in [Signature(W, (B, B)), Signature(W, (B, B, B)), Signature(B, (B, B, B))]:
        for d in range(0, 3):
            pool.extend(enumerate_basis(model.base, sig, d))
    for _ in range(60):
        rep = random_representation(rng, model, dims=(1, 1))
        mono = rng.choice(pool)
        main = evaluate_element(rep, OperadElement.monomial(mono))
        assert _eval_leftmost(rep, mono) == main
        assert _eval_rightmost(rep, mono) == main


def test_evaluation_functoriality_oriented():
    # evaluate(graft(a, i, b)) = (-1)^(|b| * suffix_a(i)) eval(a) o_i eval(b)
    rng = random.Random(7)
    model = build_ainf_morphism(3)
    gens = model.base
    pool = []
    for sig in [Signature(W, (B, B)), Signature(W, (B,)), Signature(B, (B, B))]:
        for d in range(0, 3):
            pool.extend(enumerate_basis(gens, sig, d))
    checked = 0
    while checked < 60:
        a = rng.choice(pool)
        b = rng.choice(pool)
        slots = [i for i in range(1, a.arity + 1) if a.signature.inputs[i - 1] == b.signature.output]
        if not slots:
            continue
        slot = rng.choice(slots)
        rep = random_representation(rng, model, dims=(1, 1))
        grafted = graft(a, slot, b)
        lhs = evaluate_element(rep, grafted)
        suffix = leaf_suffix_degrees(gens, a.shape)[slot - 1]
        sign = -1 if (b.degree * suffix) % 2 else 1
        rhs = compose_at(
            evaluate_element(rep, OperadElement.monomial(a)),
            slot,
            evaluate_element(rep, OperadElement.monomial(b)),
        ).scale(sign)
        assert lhs == rhs
        checked += 1


def strict_dga_rep(model):
    # x (deg 0), y (deg 0), z (deg 1) with dz = y; x acts as a left unit-ish
    u = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix([[0], [1]])}, B)
    mu = MultilinearMap(
        (u, u),
        u,
        0,
        {
            (0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]),
            (0, 1): RationalMatrix([[1, 0]]),
            (1, 0): RationalMatrix([[0, 0]]),
        },
    )
    images = {"mu_2": mu}
    return u, mu, images


def test_strict_dga_passes_ainf_axioms():
    model = build_ainf(4)
    u, mu, images = strict_dga_rep(model)
    rep = Representation(model, {B: u}, dict(images))
    assert check_representation(rep).ok


def test_non_chain_map_product_fails_at_mu2():
    model = build_ainf(3)
    u, mu, images = strict_dga_rep(model)
    # z*x = z but y*x = 0, while dz = y: the chain-map condition fails
    broken = MultilinearMap((u, u), u, 0, {(1, 0): RationalMatrix([[1, 0]])})
    assert not hom_differential(broken).is_zero()
    rep = Representation(model, {B: u}, {"mu_2": broken})
    report = check_representation(rep)
    by_name = {e.name: e for e in report.entries}
    assert not by_name["mu_2"].ok


def test_nonzero_m3_corrects_nonassociative_product():
    # transfer-produced data: the abelization scenario yields an A(infinity)
    # structure with nonzero n_3 on the target; its axioms at arity 4 agree
    # with a brute-force expansion of the quadratic identity over all basis
    # tuples.
    from test_transfer import scenario_abelization

    rng = random.Random(8)
    model = build_ainf(4)
    u, mu, _ = strict_dga_rep(model)
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    nu = mu.sub(hom_differential(h))
    state = scenario_abelization(u, mu, nu, h, 4)
    assert any(not state.n[k].is_zero() for k in (3, 4) if k in state.n)
    images = {f"mu_{k}": state.n[k] for k in (2, 3, 4)}
    rep = Representation(model, {B: u}, images)
    report = check_representation(rep)
    assert report.ok
    # brute-force arity-4 identity: sum over (i,j,s) of the signed composite
    lhs = hom_differential(images["mu_4"])
    total = zero_map((u,) * 4, u, 1)
    for i in range(2, 4):
        j = 5 - i
        for s in range(0, 4 - j + 1):
            sign = -1 if (i + s * (j + 1)) % 2 else 1
            total = total.add(compose_at(images[f"mu_{i}"], s + 1, images[f"mu_{j}"]).scale(sign))
    assert lhs == total


def test_check_sh_morphism_identity_and_negative():
    model = build_ainf_morphism(2)
    u, mu, _ = strict_dga_rep(model)
    ident = identity_map(u)
    w = ChainComplex(dict(u.dims), dict(u.d), W)
    muw = MultilinearMap((w, w), w, 0, {k: m for k, m in mu.blocks.items()})
    rep = Representation(
        model,
        {B: u, W: w},
        {"mu_2": mu, "nu_2": muw, "f_1": MultilinearMap((u,), w, 0, identity_map(u).blocks), "f_2": zero_map((u, u), w, 1)},
    )
    report = check_sh_morphism(rep)
    assert report.ok and report.first_failure is None

    # y is a boundary, so sending y to y but z to 0 breaks the chain condition
    broken = dict(rep.images)
    broken["f_1"] = MultilinearMap(
        (u,), w, 0, {(0,): RationalMatrix([[0, 0], [0, 1]]), (1,): RationalMatrix([[0]])}
    )
    rep2 = Representation(model, {B: u, W: w}, broken)
    report2 = check_sh_morphism(rep2)
    assert not report2.ok
    assert report2.first_failure == "f_1"


def test_check_homotopy_reflexivity_and_negative():
    rng = random.Random(9)
    model = build_homotopy_model(2)
    u, mu, _ = strict_dga_rep(model)
    w = ChainComplex(dict(u.dims), dict(u.d), W)
    muw = MultilinearMap((w, w), w, 0, dict(mu.blocks))
    f1 = MultilinearMap((u,), w, 0, identity_map(u).blocks)
    images = {
        "mu_2": mu,
        "nu_2": muw,
        "p_1": f1,
        "q_1": f1,
        "p_2": zero_map((u, u), w, 1),
        "q_2": zero_map((u, u), w, 1),
        "h_1": zero_map((u,), w, 1),
        "h_2": zero_map((u, u), w, 2),
    }
    rep = Representation(model, {B: u, W: w}, images)
    report = check_homotopy(rep)
    assert report.ok

    bad = dict(images)
    bad["h_1"] = random_map(rng, (u,), w, 1)
    while hom_differential(bad["h_1"]).is_zero():
        bad["h_1"] = random_map(rng, (u,), w, 1)
    rep2 = Representation(model, {B: u, W: w}, bad)
    report2 = check_homotopy(rep2)
    assert not report2.ok
    assert report2.first_failure == "h_1"


def test_check_homotopy_makes_one_axiom_pass():
    rng = random.Random(3)
    rep = random_representation(rng, build_homotopy_model(3), (1, 1, 1))
    with (
        mock.patch.object(reps, "check_representation", wraps=reps.check_representation) as one_pass,
        mock.patch.object(reps, "check_sh_morphism", wraps=reps.check_sh_morphism) as sh,
        mock.patch.object(differentials, "build_ainf_morphism", wraps=differentials.build_ainf_morphism) as build,
    ):
        report = check_homotopy(rep)
    assert (one_pass.call_count, sh.call_count, build.call_count) == (1, 0, 0)
    assert [e.name for e in report.entries[2:]] == [e.name for e in check_representation(rep).entries]


def test_check_homotopy_hand_built_example():
    # a genuine homotopy between two morphisms of 2-dimensional dgas,
    # validated by the brute-force h_2 formula
    model = build_homotopy_model(2)
    u = ChainComplex({0: 1, 1: 1}, {1: [[1]]}, B)
    w = ChainComplex({0: 1, 1: 1}, {1: [[1]]}, W)
    zero2 = zero_map((u, u), w, 1)
    m2 = zero_map((u, u), u, 0)
    n2 = zero_map((w, w), w, 0)
    p1 = MultilinearMap((u,), w, 0, {(0,): [[1]], (1,): [[1]]})
    q1 = MultilinearMap((u,), w, 0, {(0,): [[0]], (1,): [[0]]})
    # d(h_1) = p_1 - q_1: h_1 degree 1: block (0,) maps U_0 -> W_1
    h1 = MultilinearMap((u,), w, 1, {(0,): [[1]]})
    images = {
        "mu_2": m2,
        "nu_2": n2,
        "p_1": p1,
        "q_1": q1,
        "p_2": zero2,
        "q_2": zero2,
        "h_1": h1,
        "h_2": zero_map((u, u), w, 2),
    }
    rep = Representation(model, {B: u, W: w}, images)
    report = check_homotopy(rep)
    assert report.ok
    assert evaluate_element(rep, model.of("h_2")) == _h2_formula(rep)


def test_check_homotopy_reads_its_sides_off_a_tailed_model():
    # mu_2_q reaches q through its D image, so it is on the q side only
    model = build_model_homotopy(build_model_btow(build_ainf(2), 2), 2)
    u, w = ChainComplex({0: 1}, {}, B), ChainComplex({0: 1}, {}, W)
    images = {
        "mu_2_B": MultilinearMap((u, u), u, 0, {(0, 0): [[1]]}),
        "mu_2_W": MultilinearMap((w, w), w, 0, {(0, 0): [[1]]}),
        "p": MultilinearMap((u,), w, 0, {(0,): [[1]]}),
        "q": MultilinearMap((u,), w, 0, {(0,): [[2]]}),
    }
    report = check_homotopy(Representation(model, {B: u, W: w}, images))
    sides = [(e.name, e.ok, e.detail) for e in report.entries[:2]]
    assert sides == [("p-side morphism", True, ""), ("q-side morphism", False, "mu_2_q")]


def test_check_homotopy_needs_two_endpoints():
    u = ChainComplex({0: 1}, {}, B)
    with pytest.raises(ValueError, match="two endpoints"):
        check_homotopy(Representation(build_ainf(2), {B: u}, {}))


def test_check_sh_equivalence_strict_iso():
    model = build_iso_resolution(2)
    u = ChainComplex({0: 1, 1: 1}, {1: [[1]]}, B)
    w = ChainComplex({0: 1, 1: 1}, {1: [[1]]}, W)
    ident_uw = MultilinearMap((u,), w, 0, identity_map(u).blocks)
    ident_wu = MultilinearMap((w,), u, 0, identity_map(w).blocks)
    images = {"f_0": ident_uw, "g_0": ident_wu}
    rep = Representation(model, {B: u, W: w}, images)
    assert check_sh_equivalence(rep).ok


def test_check_sh_equivalence_contractible_target():
    # B-side zero complex, W-side a contracted 2-dim acyclic complex:
    # d(g_1) must equal f_0 g_0 - 1 = -1, so g_1 is minus a contraction.
    model = build_iso_resolution(1)
    u = ChainComplex({}, {}, B)
    w = ChainComplex({0: 1, 1: 1}, {1: [[1]]}, W)
    contraction = MultilinearMap((w,), w, 1, {(0,): [[1]]})  # s with ds = 1
    assert hom_differential(contraction) == identity_map(w)
    images = {
        "f_0": zero_map((u,), w, 0),
        "g_0": zero_map((w,), u, 0),
        "f_1": zero_map((u,), u, 1),
        "g_1": contraction.scale(-1),
    }
    rep = Representation(model, {B: u, W: w}, images)
    assert check_sh_equivalence(rep).ok
    # mutation: flip the sign of g_1
    images2 = dict(images)
    images2["g_1"] = contraction
    rep2 = Representation(model, {B: u, W: w}, images2)
    report = check_sh_equivalence(rep2)
    by_name = {e.name: e for e in report.entries}
    assert not by_name["g_1"].ok


def test_check_sh_equivalence_restrictions():
    model = build_iso_resolution(0)
    u = ChainComplex({0: 1}, {}, B)
    w = ChainComplex({0: 1}, {}, W)
    f0 = MultilinearMap((u,), w, 0, {(0,): [[1]]})
    g0 = MultilinearMap((w,), u, 0, {(0,): [[1]]})
    rep = Representation(model, {B: u, W: w}, {"f_0": f0, "g_0": g0})
    report = check_sh_equivalence(rep)
    assert report.ok


def test_evaluation_is_a_chain_map_on_valid_representations():
    # when a representation satisfies the generator axioms, the
    # Hom-differential of any evaluated element equals the evaluated
    # derivative of that element
    model = build_ainf(4)
    u, mu, images = strict_dga_rep(model)
    rep = Representation(model, {B: u}, dict(images))
    assert check_representation(rep).ok
    from operadkit.differentials import extend_derivation

    pool = []
    for n in (2, 3, 4):
        for d in range(0, 3):
            pool.extend(enumerate_basis(model.base, Signature(B, (B,) * n), d))
    rng = random.Random(12)
    for _ in range(40):
        mono = rng.choice(pool)
        elem = OperadElement.monomial(mono).scale(rng.randint(1, 3))
        lhs = hom_differential(evaluate_element(rep, elem))
        d_elem = extend_derivation(model, elem)
        if d_elem.is_zero():
            assert lhs.is_zero()
        else:
            assert lhs == evaluate_element(rep, d_elem)


def test_representation_rejects_wrong_colors():
    model = build_ainf_morphism(2)
    u = ChainComplex({0: 1}, {}, B)
    w = ChainComplex({0: 1}, {}, W)
    with pytest.raises(ValueError, match="colored"):
        Representation(model, {B: u, W: w}, {"f_1": MultilinearMap((w,), w, 0, {(0,): [[1]]})})


def test_representation_rejects_images_that_are_not_generators():
    model = build_ainf(2)
    u = ChainComplex({0: 1}, {}, B)
    mu = MultilinearMap((u, u), u, 0, {(0, 0): [[1]]})
    with pytest.raises(ValueError, match="not generators: mu2, mu_3$"):
        Representation(model, {B: u}, {"mu_2": mu, "mu2": mu, "mu_3": mu})


def test_representation_names_colors_without_a_complex():
    # The zero images of the W-coloured generators looked their complex up
    # and raised KeyError: 'W'.
    model = build_ainf_morphism(2)
    u = ChainComplex({0: 1}, {}, B)
    with pytest.raises(ValueError, match="no complex for colors of the model: W$"):
        Representation(model, {B: u}, {})


def test_one_complex_serves_both_colors():
    # the identity morphism of k[x]/(x^2): the same complex is B and W
    model = build_ainf_morphism(2)
    u = ChainComplex({0: 2}, {}, B)
    mu = MultilinearMap((u, u), u, 0, {(0, 0): [[1, 0, 0, 0], [0, 1, 1, 0]]})
    rep = Representation(model, {B: u, W: u}, {"mu_2": mu, "nu_2": mu, "f_1": identity_map(u)})
    assert check_sh_morphism(rep).ok


def test_representation_rejects_lookalike_complex():
    # same dims and the right tag, but not the complex the evaluators use
    model = build_ainf_morphism(2)
    u = ChainComplex({0: 1}, {}, B)
    w = ChainComplex({0: 1}, {}, W)
    twin = ChainComplex({0: 1}, {}, W)
    with pytest.raises(ValueError, match="colored W"):
        Representation(model, {B: u, W: w}, {"f_1": MultilinearMap((u,), twin, 0, {(0,): [[1]]})})


def test_representation_does_not_mutate_caller_images():
    model = build_ainf(2)
    u = ChainComplex({0: 1}, {}, B)
    mine = {}
    Representation(model, {B: u}, mine)
    assert mine == {}


def test_hom_differential_leibniz_random():
    rng = random.Random(10)
    for _ in range(20):
        u = rand_complex(rng, B)
        f = random_map(rng, (u, u), u, rng.randint(0, 2))
        g = random_map(rng, (u,), u, rng.randint(0, 2))
        lhs = hom_differential(compose_at(f, 1, g))
        s = -1 if f.degree % 2 else 1
        rhs = compose_at(hom_differential(f), 1, g).add(
            compose_at(f, 1, hom_differential(g)).scale(s)
        )
        assert lhs == rhs


def test_maps_over_complexes_of_different_dims_are_unequal():
    small = ChainComplex({0: 1}, {}, B)
    large = ChainComplex({0: 2}, {}, B)
    assert zero_map((small,), small, 0) != zero_map((large,), small, 0)
    assert zero_map((small,), small, 0) != zero_map((small,), large, 0)
    # equal dims compare equal across distinct objects (JSON round trips)
    twin = ChainComplex({0: 1}, {}, W)
    assert zero_map((small,), small, 0) == zero_map((twin,), twin, 0)
