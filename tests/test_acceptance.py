"""Acceptance suite: one test per exit criterion, exact rational checks only.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Everything is tolerance-zero: residuals are compared to the
actual zero element or zero matrix.
"""

import random
import warnings
from fractions import Fraction

import pytest

from operadkit.core import (
    OperadElement,
    Signature,
    TreeMonomial,
    enumerate_basis,
    graft,
)
from operadkit.differentials import (
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    extend_derivation,
    verify_d_squared,
)
from operadkit.forests import polarization_iso_m2, symmetrize_forest, verify_polarization
from operadkit.linalg import RationalMatrix
from operadkit.reps import (
    ChainComplex,
    MultilinearMap,
    Representation,
    compose_maps,
    evaluate_element,
    hom_differential,
    identity_map,
    zero_map,
)
from operadkit.tails import build_model_btow
from operadkit.transfer import (
    ExtensionObstructionError,
    ExtensionState,
    extension_step,
    is_quasi_iso,
    scenario_symmetrization,
)

from test_core import enumerate_up_to, graft_elements, graft_oriented, normalize_bw
from test_differentials import rename_model
from test_reps import compose_at, random_map
from test_transfer import scenario_abelization

B, W = "B", "W"


def _report(num, label, ok):
    print(f"\ncriterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_dsq_structure_maps():
    report = verify_d_squared(build_ainf(8))
    names = {e.name for e in report.entries}
    assert names == {f"mu_{k}" for k in range(2, 9)}
    _report(1, "D^2 = 0, structure-map model, arity 8", report.ok)


def test_criterion_02_dsq_morphism_model():
    report = verify_d_squared(build_ainf_morphism(6))
    assert len(report.entries) == 5 + 5 + 6  # mu, nu (2..6), f (1..6)
    _report(2, "D^2 = 0, morphism model, arity 6", report.ok)


def test_criterion_03_dsq_homotopy_model():
    report = verify_d_squared(build_homotopy_model(5))
    assert any(e.name == "h_5" for e in report.entries)
    _report(3, "D^2 = 0, homotopy model, arity 5", report.ok)


def test_criterion_04_dsq_iso_resolution_and_witnesses():
    model = build_iso_resolution(8)
    report = verify_d_squared(model)
    gens = model.base

    def word(a, b):
        return OperadElement.monomial(
            TreeMonomial(gens, (a, (b, gens.spec(b).signature.inputs[0])))
        )

    unit_b = OperadElement.monomial(TreeMonomial.identity(gens, B))
    unit_w = OperadElement.monomial(TreeMonomial.identity(gens, W))
    witness_f = model.of("f_1") == word("g_0", "f_0") - unit_b
    witness_g = model.of("g_1") == word("f_0", "g_0") - unit_w
    _report(4, "D^2 = 0, iso resolution, index 8 + unit witnesses", report.ok and witness_f and witness_g)


def _random_complex(rng, color, dims=(1, 1, 1)):
    table = {k: n for k, n in enumerate(dims) if n}
    while True:
        d = {}
        for k in sorted(table):
            if k - 1 in table:
                d[k] = RationalMatrix(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(table[k])] for _ in range(table[k - 1])]
                )
        try:
            return ChainComplex(table, d, color)
        except ValueError:
            continue


def test_criterion_05_calibration_identity():
    # evaluate(D(h_2)) equals P_2 - Q_2 + (-1)^a n_2(P_1 a, H_1 b)
    # + n_2(H_1 a, Q_1 b) - H_1 m_2(a,b) as matrices, on 100 random
    # three-dimensional representations of the arity-2 truncation.
    rng = random.Random(2024)
    model = build_homotopy_model(2)
    ok = True
    for trial in range(100):
        u = _random_complex(rng, B)
        v = _random_complex(rng, W)
        cx = {B: u, W: v}
        images = {}
        for g in model.base.generators:
            sources = tuple(cx[c] for c in g.signature.inputs)
            images[g.name] = random_map(rng, sources, cx[g.signature.output], g.degree)
        if trial % 3 == 0:
            images["p_2"] = zero_map((u, u), v, 1)
            images["q_2"] = zero_map((u, u), v, 1)
        rep = Representation(model, cx, images)
        lhs = evaluate_element(rep, model.of("h_2"))
        n2, m2 = images["nu_2"], images["mu_2"]
        p1, q1, h1 = images["p_1"], images["q_1"], images["h_1"]
        b1, b2 = {}, {}
        for key in zero_map((u, u), v, 1).multidegrees():
            a_deg, b_deg = key
            m = n2.block((a_deg, b_deg + 1)).mul(p1.block((a_deg,)).kron(h1.block((b_deg,))))
            b1[key] = m.scale(-1 if a_deg % 2 else 1)
            b2[key] = n2.block((a_deg + 1, b_deg)).mul(h1.block((a_deg,)).kron(q1.block((b_deg,))))
        rhs = (
            images["p_2"]
            .sub(images["q_2"])
            .add(MultilinearMap((u, u), v, 1, b1))
            .add(MultilinearMap((u, u), v, 1, b2))
            .sub(compose_maps(h1, [m2]))
        )
        if lhs != rhs:
            ok = False
            break
    _report(5, "calibration identity on 100 random representations", ok)


def test_criterion_06_tail_solver_vs_closed_formula():
    bw = build_model_btow(build_ainf(4), 4)
    ok = verify_d_squared(bw).ok
    printed = build_ainf_morphism(4)
    name_map = {"f": "f_1"}
    for k in (2, 3, 4):
        name_map.update({f"mu_{k}_B": f"mu_{k}", f"mu_{k}_W": f"nu_{k}", f"mu_{k}_bar": f"f_{k}"})
    renamed = rename_model(bw, name_map)
    gens = printed.base
    for n in (3, 4):
        f1 = OperadElement.from_generator(gens, "f_1")
        from operadkit.core import compose_full

        principal = graft(
            TreeMonomial.generator(gens, "f_1"), 1, TreeMonomial.generator(gens, f"mu_{n}")
        ) - compose_full(TreeMonomial.generator(gens, f"nu_{n}"), [f1] * n)
        solver_tail = renamed.of(f"f_{n}") - principal
        ideal = {f"f_{k}" for k in range(2, n)}
        ok = ok and all(ideal.intersection(m.vertex_names()) for m in solver_tail.terms)
        difference = renamed.of(f"f_{n}") - printed.of(f"f_{n}")
        ok = ok and extend_derivation(printed, difference).is_zero()
        ok = ok and all(ideal.intersection(m.vertex_names()) for m in difference.terms)
    _report(6, "solver tails vs closed formula (arities 3, 4)", ok)


def test_criterion_07_polarization_staircase():
    iso = build_iso_resolution(8)
    fams = polarization_iso_m2(iso.base, 7)
    report = verify_polarization(fams, 7, iso)
    checked = {e.name for e in report.entries}
    assert any("degree 6" in name for name in checked)
    _report(7, "width-2 polarization identities through degree 6 (integral family)", report.ok)


def test_criterion_07_polarization_symmetrized():
    # The conjugation-average of the integral width-2 family does NOT satisfy
    # the coupled quadratic equations beyond degree 1: averaging two distinct
    # solutions of a quadratic system leaves the cross terms of their odd
    # parts, and the first surviving residual shows up in degree 2.  The
    # check is kept exactly as stated and fails honestly; see the repo's
    # review notes for the full analysis.
    iso = build_iso_resolution(8)
    fams = polarization_iso_m2(iso.base, 7)
    sym = {k: {d: symmetrize_forest(v) for d, v in tab.items()} for k, tab in fams.items()}
    report = verify_polarization(sym, 7, iso)
    _report(7, "width-2 polarization identities through degree 6 (symmetrized family)", report.ok)


def _three_dim_dga():
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
    return u, mu


def test_criterion_08_transfer_round_trip():
    u, mu = _three_dim_dga()
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    nu = mu.sub(hom_differential(h))
    state = scenario_abelization(u, mu, nu, h, 5)
    ok = state.k == 5 and state.check().ok

    # corrupted quasi-isomorphism: the obstruction error must be raised
    v2 = ChainComplex({0: 2}, {}, B)
    w2 = ChainComplex({0: 1, 1: 1}, {}, W)
    m2 = MultilinearMap((v2, v2), v2, 0, {(0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])})
    n2 = MultilinearMap((w2, w2), w2, 0, {(0, 0): [[1]]})
    bad = ExtensionState(
        v=v2,
        w=w2,
        m={2: m2},
        n={2: n2},
        f={1: zero_map((v2,), w2, 0), 2: MultilinearMap((v2, v2), w2, 1, {(0, 0): RationalMatrix([[0, 0, 0, 1]])})},
        k=2,
    )
    ok = ok and bad.check().ok and not is_quasi_iso(bad.f[1])
    raised = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            extension_step(bad)
        except ExtensionObstructionError:
            raised = True
    _report(8, "transfer to arity 5 + corrupted-quism obstruction", ok and raised)


def test_criterion_09_symmetrization_corollary():
    u = ChainComplex({0: 2, 1: 1, 2: 1}, {1: RationalMatrix([[0], [1]])}, W)
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
    state = scenario_symmetrization(u, mu, 4)
    _report(9, "symmetrized product extension on a 4-dim algebra to arity 4", state.k == 4 and state.check().ok)


def _model_pool(model, rng, max_vertices=4):
    pool = []
    seen_sigs = {g.signature for g in model.base.generators}
    degrees = sorted({g.degree for g in model.base.generators})
    for sig in seen_sigs:
        for d in range(0, max(degrees) * 2 + 2):
            try:
                pool.extend(enumerate_up_to(model.base, sig, d, max_vertices))
            except Exception:
                continue
    return [m for m in pool if m.nvertices >= 1]


def test_criterion_10a_leibniz_500_pairs_per_model():
    builders = (
        lambda: build_ainf(4),
        lambda: build_ainf_morphism(3),
        lambda: build_homotopy_model(3),
        lambda: build_iso_resolution(4),
    )
    ok = True
    for builder in builders:
        model = builder()
        rng = random.Random(99)
        pool = _model_pool(model, rng)
        checked = 0
        attempts = 0
        while checked < 500 and attempts < 100000:
            attempts += 1
            a = rng.choice(pool)
            b = rng.choice(pool)
            slots = [
                i for i in range(1, a.arity + 1) if a.signature.inputs[i - 1] == b.signature.output
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
            if lhs != rhs:
                ok = False
                break
            checked += 1
        ok = ok and checked == 500
        if not ok:
            break
    _report(10, "Leibniz rule on 500 random oriented graft pairs per model", ok)


def test_criterion_10b_evaluation_order_independence_500_pairs():
    rng = random.Random(123)
    model = build_ainf_morphism(3)
    pool = []
    for sig in [Signature(W, (B, B)), Signature(W, (B, B, B)), Signature(B, (B, B, B))]:
        for d in range(0, 3):
            pool.extend(enumerate_basis(model.base, sig, d))
    ok = True
    for _ in range(500):
        u = _random_complex(rng, B, dims=(1, 1))
        v = _random_complex(rng, W, dims=(1, 1))
        cx = {B: u, W: v}
        images = {}
        for g in model.base.generators:
            sources = tuple(cx[c] for c in g.signature.inputs)
            images[g.name] = random_map(rng, sources, cx[g.signature.output], g.degree)
        rep = Representation(model, cx, images)
        mono = rng.choice(pool)
        main = evaluate_element(rep, OperadElement.monomial(mono))
        if _eval_iterated(rep, mono, False) != main or _eval_iterated(rep, mono, True) != main:
            ok = False
            break
    _report(10, "evaluation order independence on 500 random pairs", ok)


def _eval_iterated(rep, mono, reverse):
    shape = mono.shape
    if isinstance(shape, str):
        return identity_map(rep.complexes[shape])
    children = shape[1:]
    acc = rep.images[shape[0]]

    def eval_child(c):
        if isinstance(c, str):
            return identity_map(rep.complexes[c])
        return _eval_iterated(rep, TreeMonomial(mono.gens, c), reverse)

    if reverse:
        for i in range(len(children) - 1, -1, -1):
            acc = compose_at(acc, i + 1, eval_child(children[i]))
    else:
        offset = 0
        for i in range(len(children)):
            sub = eval_child(children[i])
            acc = compose_at(acc, offset + 1, sub)
            offset += sub.arity
    return acc


def test_criterion_10c_normalize_confluence_1000_elements():
    from operadkit.core import GeneratorSet, GeneratorSpec

    specs = []
    for k in (2, 3):
        specs.append(GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2))
        specs.append(GeneratorSpec(f"nu_{k}", Signature(W, (W,) * k), k - 2))
    specs.append(GeneratorSpec("f", Signature(W, (B,)), 0))
    gens = GeneratorSet((B, W), specs)
    rel = {"mu_2": "nu_2", "mu_3": "nu_3"}
    rng = random.Random(321)

    pool = []
    for inputs in [(B,), (B, B), (B, B, B), (B, B, B, B), (B, B, B, B, B)]:
        for d in range(0, 3):
            pool.extend(enumerate_basis(gens, Signature(W, inputs), d))
    pool = [m for m in pool if "f" in m.vertex_names()]

    def random_strategy_normal_form(shape):
        while True:
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
                return shape
            target = rng.choice(redexes)

            def rewrite(s, path):
                if path == ():
                    inner = s[1]
                    return (rel[inner[0]],) + tuple(("f", c) for c in inner[1:])
                i = path[0]
                kids = list(s[1:])
                kids[i] = rewrite(kids[i], path[1:])
                return (s[0],) + tuple(kids)

            shape = rewrite(shape, target)

    ok = True
    for _ in range(1000):
        mono = rng.choice(pool)
        via_random = TreeMonomial(gens, random_strategy_normal_form(mono.shape))
        via_builtin = normalize_bw(OperadElement.monomial(mono), rel)
        if via_builtin != OperadElement.monomial(via_random):
            ok = False
            break
    _report(10, "rewriting confluence on 1000 random elements", ok)
