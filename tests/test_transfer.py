import hashlib
import random
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

import operadkit.serialize as serialize
import operadkit.transfer as T
from operadkit.core import GeneratorSet, GeneratorSpec, OperadElement, Signature, TreeMonomial, compose_full
from operadkit.differentials import DerivationDifferential, build_ainf
from operadkit.linalg import (
    RationalMatrix,
    homology_retract,
    kernel_basis,
    rank,
    solve_linear,
)
from operadkit.reps import (
    ChainComplex,
    MultilinearMap,
    Representation,
    check_representation,
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
    extend_layer,
    extend_to_arity,
    extension_step,
    find_homotopy,
    homology_complex,
    is_commutative,
    is_quasi_iso,
    scenario_symmetrization,
    symmetrized_product,
)

from test_coefficients import _stored, is_normal
from test_linalg import _conjugated_complex, _inverse
from test_reps import random_map

B, W = "B", "W"


def three_dim_dga():
    # x, y in degree 0, z in degree 1, dz = y; x a left unit on {x, y, z}
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


def four_dim_dga():
    # the same with an extra closed degree-2 class of square zero
    u = ChainComplex({0: 2, 1: 1, 2: 1}, {1: RationalMatrix([[0], [1]])}, W)
    mu = MultilinearMap(
        (u, u),
        u,
        0,
        {
            (0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]),
            (0, 1): RationalMatrix([[1, 0]]),
            (1, 0): RationalMatrix([[0, 0]]),
            (0, 2): RationalMatrix([[0, 0]]),
            (2, 0): RationalMatrix([[0, 0]]),
            (1, 1): RationalMatrix([[0]]),
        },
    )
    return u, mu


def identity_state(u, mu):
    return ExtensionState(
        v=u, w=u, m={2: mu}, n={2: mu}, f={1: identity_map(u), 2: zero_map((u, u), u, 1)}, k=2
    )


def test_extension_step_identity_dga():
    u, mu = three_dim_dga()
    state = identity_state(u, mu)
    assert state.check().ok
    nxt = extension_step(state)
    assert nxt.k == 3
    assert nxt.check().ok


def test_extend_to_arity_noop_below_current():
    u, mu = three_dim_dga()
    state = identity_state(u, mu)
    assert extend_to_arity(state, 1) is state


def test_state_refuses_an_m_below_arity_two():
    # m_1 has no generator to go to; arities above k are structure and stay
    u, mu = three_dim_dga()
    state = identity_state(u, mu)
    with pytest.raises(ValueError, match=r"m has arities \[1\] outside 2\.\.inf"):
        replace(state, m={1: identity_map(u).scale(5), 2: mu})
    assert replace(state, m={2: mu, 3: zero_map((u,) * 3, u, 1)}).m[3].is_zero()


def test_state_refuses_a_wrongly_graded_map():
    # A zero f_2 of degree 2 was taken in, and extend ended in a traceback.
    u, mu = three_dim_dga()
    state = identity_state(u, mu)
    other = ChainComplex(dict(u.dims), dict(u.d), W)
    cases = [
        ("f", {1: identity_map(u), 2: zero_map((u, u), u, 2)}, "f_2 is not a degree-1 map from v^2 to w"),
        ("m", {2: mu, 3: zero_map((u,) * 3, u, 0)}, "m_3 is not a degree-1 map from v^3 to v"),
        ("n", {2: zero_map((u,) * 3, u, 0)}, "n_2 is not a degree-0 map from w^2 to w"),
        ("f", {1: identity_map(u), 2: zero_map((u, other), u, 1)}, "f_2 is not a degree-1 map"),
        ("m", {2: zero_map((u, u), other, 0)}, "m_2 is not a degree-0 map from v^2 to v"),
    ]
    for field, table, shown in cases:
        with pytest.raises(ValueError, match=shown.replace("^", r"\^")):
            replace(state, **{field: table})
    assert replace(state, f={1: identity_map(u), 2: zero_map((u, u), u, 1)}).f[2].is_zero()


def test_extend_identity_to_five():
    u, mu = three_dim_dga()
    final = extend_to_arity(identity_state(u, mu), 5)
    assert final.k == 5
    assert final.check().ok


def test_solver_freedom_second_solution_also_passes():
    # the joint system is underdetermined; shifting the returned solution by
    # a kernel vector gives another valid extension
    u, mu = four_dim_dga()
    state = identity_state(u, mu)
    knew = 3
    n_template = zero_map((u,) * knew, u, knew - 2)
    f_template = zero_map((u,) * knew, u, knew - 1)
    n_layout, f_layout = T._Layout(n_template), T._Layout(f_template)

    nxt = extension_step(state)
    base_n, base_f = nxt.n[3], nxt.f[3]

    # redo the assembly by hand to get the kernel
    a, _ = reference_extension_system(state)
    kern = kernel_basis(a)
    assert kern, "expected solver freedom"
    shift = kern[0]
    n_shift = n_layout.map_from_vector(shift[: n_layout.size])
    f_shift = f_layout.map_from_vector(shift[n_layout.size :])
    other = ExtensionState(
        v=u,
        w=u,
        m=state.m,
        n={**nxt.n, 3: base_n.add(n_shift)},
        f={**nxt.f, 3: base_f.add(f_shift)},
        k=3,
    )
    assert not (n_shift.is_zero() and f_shift.is_zero())
    assert other.check().ok


def test_find_homotopy_cases():
    rng = random.Random(0)
    u, _ = three_dim_dga()
    zero = zero_map((u, u), u, 0)
    h0 = find_homotopy(zero)
    assert h0 is not None and hom_differential(h0) == zero
    for _ in range(10):
        seed = random_map(rng, (u, u), u, 1)
        g = hom_differential(seed)
        h = find_homotopy(g)
        assert h is not None
        assert hom_differential(h) == g
    # a homology-nontrivial cycle on a zero-differential complex
    flat = ChainComplex({0: 1}, {}, B)
    cyc = MultilinearMap((flat,), flat, 0, {(0,): [[1]]})
    assert find_homotopy(cyc) is None
    with pytest.raises(ValueError):
        bad = MultilinearMap((u,), u, 0, {(1,): [[0], [1]]})
        assert not hom_differential(bad).is_zero()
        find_homotopy(bad)


def scenario_abelization(u, mu, nu, h, target_arity):
    """Extend a product chain-homotopic to an associative one (d h = mu - nu)."""
    T._check_product(mu)
    if hom_differential(h) != mu.sub(nu):
        raise ValueError("h must satisfy d(h) = mu - nu")
    state = ExtensionState(v=u, w=u, m={2: mu}, n={2: nu}, f={1: identity_map(u), 2: h}, k=2)
    return extend_to_arity(state, target_arity)


def test_abelization_trivial():
    u, mu = three_dim_dga()
    state = scenario_abelization(u, mu, mu, zero_map((u, u), u, 1), 4)
    assert state.check().ok
    for k in (3, 4):
        assert state.n[k].is_zero() or state.check().ok


def test_abelization_three_dim_to_five():
    u, mu = three_dim_dga()
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    nu = mu.sub(hom_differential(h))
    assert hom_differential(nu).is_zero()
    state = scenario_abelization(u, mu, nu, h, 5)
    assert state.k == 5
    assert state.check().ok


def test_abelization_rejects_wrong_homotopy():
    u, mu = three_dim_dga()
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    nu = mu  # wrong: d(h) != mu - nu = 0
    with pytest.raises(ValueError):
        scenario_abelization(u, mu, nu, h, 4)


def corrupted_quism_state():
    """Criterion 08's corrupted start: F_1 kills the homology of a 2-dim
    source with a non-symmetric product, and the leftover F_2 pairing makes
    the arity-3 system infeasible."""
    v = ChainComplex({0: 2}, {}, B)
    w = ChainComplex({0: 1, 1: 1}, {}, W)
    m2 = MultilinearMap((v, v), v, 0, {(0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])})
    n2 = MultilinearMap((w, w), w, 0, {(0, 0): [[1]]})
    f1 = zero_map((v,), w, 0)
    f2 = MultilinearMap((v, v), w, 1, {(0, 0): RationalMatrix([[0, 0, 0, 1]])})
    return ExtensionState(v=v, w=w, m={2: m2}, n={2: n2}, f={1: f1, 2: f2}, k=2)


def test_corrupted_quism_raises_obstruction():
    state = corrupted_quism_state()
    assert state.check().ok
    assert not is_quasi_iso(state.f[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ExtensionObstructionError):
            extension_step(state)


def test_quism_warning_emitted():
    v = ChainComplex({0: 1}, {}, B)
    w = ChainComplex({0: 1, 1: 1}, {}, W)
    m2 = zero_map((v, v), v, 0)
    n2 = zero_map((w, w), w, 0)
    state = ExtensionState(
        v=v, w=w, m={2: m2}, n={2: n2},
        f={1: zero_map((v,), w, 0), 2: zero_map((v, v), w, 1)}, k=2,
    )
    with pytest.warns(UserWarning):
        extension_step(state)


def test_symmetrization_zero_differential_commutative():
    u = ChainComplex({0: 1}, {}, W)
    mu = MultilinearMap((u, u), u, 0, {(0, 0): [[1]]})
    state = scenario_symmetrization(u, mu, 3)
    assert state.check().ok
    # iota is the identity and the gap homotopy vanishes
    assert state.f[1].block((0,)).entries == [[Fraction(1)]]
    assert state.f[2].is_zero()


def test_symmetrization_four_dim_to_four():
    u, mu = four_dim_dga()
    state = scenario_symmetrization(u, mu, 4)
    assert state.k == 4
    assert state.check().ok
    # the symmetrized binary product is not associative, so some higher
    # correction must be nonzero
    assert any(not state.n[k].is_zero() for k in (3, 4))


def test_symmetrization_rejects_noncommutative_homology():
    # 2-dim zero-differential algebra with x*y = y, y*x = 0
    u = ChainComplex({0: 2}, {}, W)
    mu = MultilinearMap((u, u), u, 0, {(0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])})
    with pytest.raises(ValueError, match="not commutative"):
        scenario_symmetrization(u, mu, 3)


def _not_a_chain_map():
    # x*y = y, but x*z = 0 although dz = y
    u, mu = three_dim_dga()
    return u, MultilinearMap(mu.sources, u, 0, {(0, 0): mu.block((0, 0))})


def _not_associative():
    # x*x = y and y*x = x, so (x*x)*x = x but x*(x*x) = x*y = 0
    u = ChainComplex({0: 2}, {}, W)
    return u, MultilinearMap((u, u), u, 0, {(0, 0): RationalMatrix([[0, 0, 1, 0], [1, 0, 0, 0]])})


@pytest.mark.parametrize(
    "dga, message",
    [(_not_a_chain_map, "mu must be a chain map"), (_not_associative, "mu must be strictly associative")],
    ids=["not-a-chain-map", "not-associative"],
)
def test_symmetrization_refuses_a_bad_product(dga, message):
    with pytest.raises(ValueError, match=message):
        scenario_symmetrization(*dga(), 3)


def test_homology_preservation():
    # the transferred product induces the same multiplication on homology
    u, mu = three_dim_dga()
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    nu = mu.sub(hom_differential(h))
    state = scenario_abelization(u, mu, nu, h, 3)
    _, iota_v, p_v = homology_complex(state.v)
    _, iota_w, p_w = homology_complex(state.w)
    star_v = compose_maps(p_v, [compose_maps(state.m[2], [iota_v, iota_v])])
    star_w = compose_maps(p_w, [compose_maps(state.n[2], [iota_w, iota_w])])
    # F_1 = id here, so the induced products agree on the nose
    assert star_v.blocks == star_w.blocks


def test_symmetrized_product_is_commutative():
    rng = random.Random(5)
    # x*y = y, y*x = 0 on a zero-differential 2-dim algebra
    u = ChainComplex({0: 2}, {}, W)
    plain = MultilinearMap((u, u), u, 0, {(0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])})
    # and a product with blocks between degrees of different dims
    v = ChainComplex({0: 2, 1: 3}, {}, W)
    mixed = random_map(rng, (v, v), v, 0)
    for mu in (plain, mixed):
        assert not is_commutative(mu)
        # an integral entry is stored as an int, also after the swap
        assert all(is_normal(x) for block in T._swapped(mu).blocks.values() for x in _stored(block))
        mubar = symmetrized_product(mu)
        assert is_commutative(mubar)
        assert symmetrized_product(mubar) == mubar
    # The Koszul dga's product has entries 0 and 1, and so has its
    # symmetrization (mu is graded commutative): every entry is the int 1.
    _, mu = koszul_dga()
    entries = [x for block in symmetrized_product(mu).blocks.values() for x in _stored(block)]
    assert entries and all(type(x) is int and x == 1 for x in entries)


def invertible_chain_map(rng, c):
    """An invertible chain map c -> c', with c' conjugated by a random p."""
    p = {}
    for k, n in c.dims.items():
        while True:
            m = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if rank(m) == n:
                p[k] = m
                break
    d = {k: p[k - 1].mul(m).mul(_inverse(p[k])) for k, m in c.d.items()}
    c2 = ChainComplex(dict(c.dims), d)
    return MultilinearMap((c,), c2, 0, {(k,): m for k, m in p.items()})


def boundary_columns(c, k):
    """A basis of the boundaries in degree k: the columns of d_{k+1} that
    are not in the span of the columns to their left."""
    entries = c.differential(k + 1).entries
    basis = []
    for j in range(c.dim(k + 1)):
        col = [row[j] for row in entries]
        if rank(RationalMatrix.from_columns(basis + [col], c.dim(k))) > len(basis):
            basis.append(col)
    return basis


def class_killing_map(rng, c):
    """(f, into a boundary) for a chain map c -> c that sends one homology
    class [z] to zero, or None when c is acyclic.

    f is 1 - w phi in degree k, with w = z - b for a boundary b (so z maps
    to b, a nonzero vector when there are boundaries), phi(z) = 1 and
    phi = 0 on boundaries.
    """
    classes = [k for k in c.degrees() if homology_retract(c, k)[0].cols]
    if not classes:
        return None
    k = rng.choice(classes)
    z = [row[0] for row in homology_retract(c, k)[0].entries]
    bounds = boundary_columns(c, k)
    w = [zi - bi for zi, bi in zip(z, bounds[0])] if bounds else z
    phi = solve_linear(RationalMatrix(bounds + [z], cols=c.dim(k)), [0] * len(bounds) + [1])
    kill = RationalMatrix([[int(i == j) - w[i] * phi[j] for j in range(c.dim(k))] for i in range(c.dim(k))])
    blocks = {(j,): kill if j == k else RationalMatrix.identity(c.dim(j)) for j in c.degrees()}
    return MultilinearMap((c,), c, 0, blocks), bool(bounds)


def test_is_quasi_iso_on_conjugated_complexes():
    rng = random.Random(11)
    killed = into_boundary = 0
    for _ in range(20):
        c, _ = _conjugated_complex(rng)
        assert is_quasi_iso(invertible_chain_map(rng, c))
        killing = class_killing_map(rng, c)
        if killing is None:
            continue
        f, into_bound = killing
        assert hom_differential(f).is_zero()
        assert not is_quasi_iso(f)
        killed += 1
        into_boundary += into_bound
    assert killed >= 10 and into_boundary >= 3


# ---------------------------------------------------------------------------
# Old against new: the per-unknown assembly that the blockwise one replaced,
# kept as the reference.  Each column is the residual of one unit map,
# computed with maps; the Hom differential goes through compose_maps, whose
# Koszul interchange sign is independent of reps.hom_differential_terms.


def koszul_dga():
    """U = k[x,y]/(x^2, y^2) (x) Lambda(z), |x| = |y| = -2, |z| = -3, dz = xy.

    Graded commutative; every product of two odd elements is zero, so no
    product carries a Koszul sign.
    """
    basis = {0: ["1"], -2: ["x", "y"], -3: ["z"], -4: ["xy"], -5: ["xz", "yz"], -7: ["xyz"]}
    u = ChainComplex({k: len(names) for k, names in basis.items()}, {-3: [[1]]}, W)
    blocks = {}
    for k1, names1 in basis.items():
        for k2, names2 in basis.items():
            target = basis.get(k1 + k2)
            if target is None:
                continue
            mat = RationalMatrix.zero(len(target), len(names1) * len(names2))
            for i, a in enumerate(names1):
                for j, b in enumerate(names2):
                    word = (a + b).replace("1", "")
                    if len(set(word)) == len(word):
                        mat.entries[target.index("".join(sorted(word)) or "1")][i * len(names2) + j] = Fraction(1)
            blocks[(k1, k2)] = mat
    mu = MultilinearMap((u, u), u, 0, blocks)
    return u, mu


def _differential_map(c):
    return MultilinearMap((c,), c, -1, {(k,): m for k, m in c.d.items()})


def reference_hom(sources, target):
    """X -> d(X) = d o X - (-1)^{|X|} sum_i X o (1...d_i...1), through compose_maps."""
    d_target = _differential_map(target)
    ones = [identity_map(c) for c in sources]
    slots = [ones[:i] + [_differential_map(c)] + ones[i + 1 :] for i, c in enumerate(sources)]

    def hom(x):
        out = compose_maps(d_target, [x])
        sign = -1 if x.degree % 2 else 1
        for inners in slots:
            out = out.sub(compose_maps(x, inners).scale(sign))
        return out

    return hom


def _unit_map(template, key, r, c):
    rows, cols = template.block_shape(key)
    mat = RationalMatrix.zero(rows, cols)
    mat.entries[r][c] = Fraction(1)
    return MultilinearMap(template.sources, template.target, template.degree, {key: mat})


def _units(template):
    for key in template.multidegrees():
        rows, cols = template.block_shape(key)
        for r in range(rows):
            for c in range(cols):
                yield _unit_map(template, key, r, c)


def _keys(template):
    return list(template.multidegrees())


def _residual_vector(maps_and_keys):
    out = []
    for m, keys in maps_and_keys:
        for key in keys:
            for row in m.block(key).entries:
                out.extend(row)
    return out


def reference_extension_system(state):
    """(A, b) of one extension step, one residual per unknown."""
    knew = state.k + 1
    rep = state.representation(knew)
    model = rep.model
    rhs_n = evaluate_element(rep, model.of(f"nu_{knew}"))
    # D(f_{K+1}) less its principal term c nu_{K+1}(f_1, ..., f_1), built by
    # `compose_full`: the package evaluates it whole, with nu_{K+1} zero
    f1 = OperadElement.from_generator(model.base, "f_1")
    principal = compose_full(TreeMonomial.generator(model.base, f"nu_{knew}"), [f1] * knew)
    ((mono, _),) = principal.terms.items()
    coeff = model.of(f"f_{knew}").terms.get(mono, 0)
    rhs_f = evaluate_element(rep, model.of(f"f_{knew}") - principal.scale(coeff))
    n_template = zero_map((state.w,) * knew, state.w, knew - 2)
    f_template = zero_map((state.v,) * knew, state.w, knew - 1)
    eq_n = _keys(zero_map(n_template.sources, state.w, knew - 3))
    eq_f = _keys(zero_map(f_template.sources, state.w, knew - 2))

    hom_n = reference_hom(n_template.sources, state.w)
    hom_f = reference_hom(f_template.sources, state.w)

    def residual(n_map, f_map):
        principal = compose_maps(n_map, [state.f[1]] * knew).scale(coeff)
        e_f = hom_f(f_map).sub(principal)
        return _residual_vector([(hom_n(n_map), eq_n), (e_f, eq_f)])

    columns = [residual(x, f_template) for x in _units(n_template)]
    columns += [residual(n_template, x) for x in _units(f_template)]
    b = _residual_vector([(rhs_n, eq_n), (rhs_f, eq_f)])
    return RationalMatrix.from_columns(columns, len(b)), b


def reference_homotopy_system(g):
    """(A, b) of d(h) = g, one residual per unknown."""
    template = zero_map(g.sources, g.target, g.degree + 1)
    eq = _keys(g)
    hom = reference_hom(g.sources, g.target)
    columns = [_residual_vector([(hom(x), eq)]) for x in _units(template)]
    b = _residual_vector([(g, eq)])
    return RationalMatrix.from_columns(columns, len(b)), b


def layer_systems(monkeypatch):
    """The list that gets the (A, b) of each later `_layer_system` call."""
    built = []
    assemble = T._layer_system

    def spy(*args):
        a, b, layouts = assemble(*args)
        built.append((a, b))
        return a, b, layouts

    monkeypatch.setattr(T, "_layer_system", spy)
    return built


def test_koszul_dga_is_a_dga():
    u, mu = koszul_dga()
    one = identity_map(u)
    assert hom_differential(mu).is_zero()
    assert compose_maps(mu, [mu, one]) == compose_maps(mu, [one, mu])
    assert is_commutative(mu)


def exterior_dga():
    # the exterior algebra on a, b of degree 1: 1, a, b, ab with ab = -ba, d = 0
    u = ChainComplex({0: 1, 1: 2, 2: 1}, {}, W)
    mu = MultilinearMap(
        (u, u),
        u,
        0,
        {
            (0, 0): RationalMatrix([[1]]),
            (0, 1): RationalMatrix([[1, 0], [0, 1]]),
            (1, 0): RationalMatrix([[1, 0], [0, 1]]),
            (0, 2): RationalMatrix([[1]]),
            (2, 0): RationalMatrix([[1]]),
            (1, 1): RationalMatrix([[0, 1, -1, 0]]),
        },
    )
    return u, mu


def test_a_graded_commutative_product_with_odd_squares_is_commutative():
    # mu(v, u) = -mu(u, v) for odd u and v: the braiding carries the Koszul
    # sign, so the unsigned swap would call this product noncommutative.
    u, mu = exterior_dga()
    assert is_commutative(mu)
    assert symmetrized_product(mu) == mu
    assert scenario_symmetrization(u, mu, 4).check().ok


def _abelization_start():
    u, mu = three_dim_dga()
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    return scenario_abelization(u, mu, mu.sub(hom_differential(h)), h, 2)


@pytest.mark.parametrize(
    "start, top",
    [
        (lambda: identity_state(*three_dim_dga()), 4),
        (_abelization_start, 4),
        (lambda: identity_state(*four_dim_dga()), 4),
        (lambda: scenario_symmetrization(*four_dim_dga(), 2), 4),
        (lambda: scenario_symmetrization(*koszul_dga(), 2), 3),
    ],
    ids=["three-dim-identity", "three-dim-abelization", "four-dim-identity", "four-dim-sym", "koszul-sym"],
)
def test_extension_system_matches_reference(start, top, monkeypatch):
    built = layer_systems(monkeypatch)
    state = start()
    while state.k < top:
        ref_a, ref_b = reference_extension_system(state)
        state = extension_step(state)
        a, b = built[-1]
        assert a == ref_a  # the shape and every row's dict
        assert all(is_normal(x) for x in _stored(a))
        assert b == ref_b
    assert state.check().ok


def _symmetrization_gap(u, mu):
    _, iota, p = homology_complex(u)
    star = compose_maps(p, [compose_maps(mu, [iota, iota])])
    return compose_maps(iota, [star]).sub(compose_maps(symmetrized_product(mu), [iota, iota]))


def test_homotopy_system_matches_reference(monkeypatch):
    rng = random.Random(3)
    koszul, _ = koszul_dga()
    three, _ = three_dim_dga()
    targets = [_symmetrization_gap(*koszul_dga()), _symmetrization_gap(*four_dim_dga())]
    for u, arities in ((koszul, (1, 2)), (three, (1, 2, 3))):
        for arity in arities:
            for degree in (-1, 0, 1):
                f = random_map(rng, (u,) * arity, u, degree)
                assert hom_differential(f) == reference_hom(f.sources, u)(f)
                targets.append(hom_differential(f))
    assert any(not g.is_zero() for g in targets[:2])
    built = layer_systems(monkeypatch)
    for g in targets:
        find_homotopy(g)
        a, b = built[-1]
        ref_a, ref_b = reference_homotopy_system(g)
        assert a == ref_a  # the shape and every row's dict
        assert all(is_normal(x) for x in _stored(a))
        assert b == ref_b


def test_koszul_symmetrization_to_five():
    # the Massey product of U is nonzero, and m_3 = 0 on H, so the
    # transferred n_3 cannot vanish
    state = scenario_symmetrization(*koszul_dga(), 5)
    assert state.k == 5
    assert not state.n[3].is_zero()
    assert state.check().ok


# SHA-256 of the serialized state of test_koszul_symmetrization_to_six,
# pinned from the product-walk compose_maps and the full-product
# multidegrees, before either was pruned.
KOSZUL_SIX_DIGEST = "5f80834b0a5581edc754f750f99f0bc8f5c9114a0936acc2a44e436ec4df4bef"


def test_koszul_symmetrization_to_six():
    state = scenario_symmetrization(*koszul_dga(), 6)
    assert state.k == 6
    assert not state.n[3].is_zero()
    assert state.check().ok
    text = serialize.dumps(serialize.state_to_json(state))
    assert hashlib.sha256(text.encode()).hexdigest() == KOSZUL_SIX_DIGEST


# ---------------------------------------------------------------------------
# extend_layer on its own


@pytest.fixture(scope="module")
def btow6():
    return build_model_btow(build_ainf(6), 6)


@pytest.mark.parametrize("dga", [koszul_dga, four_dim_dga], ids=["koszul", "four-dim"])
def test_extend_layer_over_the_btow_model_is_extension_step(dga, btow6):
    # The tailed btow model of A-infinity is the morphism model under other
    # names (F_1 is f, n_k is mu_k_W and F_k is mu_k_bar), so solving its
    # layers one by one gives extension_step's maps exactly.
    state = scenario_symmetrization(*dga(), 2)
    images = {"f": state.f[1], "mu_2_B": state.m[2], "mu_2_W": state.n[2], "mu_2_bar": state.f[2]}
    rep = Representation(btow6, {B: state.v, W: state.w}, images)
    for k in range(3, 7):
        rep = extend_layer(rep, [f"mu_{k}_W", f"mu_{k}_bar"])
        state = extension_step(state)
        assert rep.image(f"mu_{k}_W") == state.n[k]
        assert rep.image(f"mu_{k}_bar") == state.f[k]
    assert not state.n[3].is_zero()
    assert check_representation(rep).ok


def test_extend_layer_rejects_a_term_not_linear_in_the_unknowns():
    # D(f_4) holds f_3 below nu_2, so f_3 and f_4 are not one layer.
    rep = identity_state(*three_dim_dga()).representation(4)
    with pytest.raises(ValueError, match=re.escape("D(f_4) holds nu_2(f_1, f_3);")):
        extend_layer(rep, ["f_3", "f_4"])


def test_extend_layer_ignores_the_unknowns_images_and_leaves_rep_alone():
    rng = random.Random(7)
    state = scenario_symmetrization(*koszul_dga(), 3)
    rep = state.representation(4)
    clean = extend_layer(rep, ["nu_4", "f_4"])
    nxt = extension_step(state)
    assert clean.image("nu_4") == nxt.n[4] and clean.image("f_4") == nxt.f[4]
    garbage = dict(rep.images)
    garbage["nu_4"] = random_map(rng, (state.w,) * 4, state.w, 2)
    garbage["f_4"] = random_map(rng, (state.v,) * 4, state.w, 3)
    assert not (garbage["nu_4"].is_zero() or garbage["f_4"].is_zero())
    dirty = Representation(rep.model, rep.complexes, garbage)
    before = {g: (m, dict(m.blocks)) for g, m in dirty.images.items()}
    assert extend_layer(dirty, ["nu_4", "f_4"]).images == clean.images
    assert dirty.images.keys() == before.keys()
    assert all(dirty.images[g] is m and m.blocks == blocks for g, (m, blocks) in before.items())


def test_extend_layer_adds_the_terms_that_meet(monkeypatch):
    # D(u) = u(e, 1) + u(1, e) + m with rho(e) the differential: the terms
    # in u write the entries of the Hom differential's X o (d (x) 1) and
    # X o (1 (x) d) again, and cancel them only when the entries are added
    # and u(1, e) has its Koszul sign (X's block at degrees (1, 0) has an
    # odd first input).  What is left is d o X = rho(m).
    gens = GeneratorSet(
        ("A",),
        [
            GeneratorSpec("e", Signature("A", ("A",)), -1),
            GeneratorSpec("m", Signature("A", ("A", "A")), 0),
            GeneratorSpec("u", Signature("A", ("A", "A")), 1),
        ],
    )
    shapes = {("u", ("e", "A"), "A"): 1, ("u", "A", ("e", "A")): 1, ("m", "A", "A"): 1}
    d_u = OperadElement(gens, {TreeMonomial(gens, s): c for s, c in shapes.items()}, Signature("A", ("A", "A")), 0)
    model = DerivationDifferential(gens, {"u": d_u})
    u, _ = four_dim_dga()
    delta, one = _differential_map(u), identity_map(u)
    rho_m = compose_maps(delta, [random_map(random.Random(2), (u, u), u, 1)])
    assert not rho_m.is_zero()
    rep = Representation(model, {"A": u}, {"e": delta, "m": rho_m})
    built = layer_systems(monkeypatch)
    out = extend_layer(rep, ["u"])
    hom = reference_hom((u, u), u)
    template, eq = zero_map((u, u), u, 1), _keys(rho_m)
    columns = [
        _residual_vector([(hom(x).sub(compose_maps(x, [delta, one])).sub(compose_maps(x, [one, delta])), eq)])
        for x in _units(template)
    ]
    assert built[-1][0] == RationalMatrix.from_columns(columns, len(columns[0]))
    assert (1, 0) in template.multidegrees()
    x = out.image("u")
    assert hom_differential(x) == evaluate_element(out, d_u)
    assert compose_maps(delta, [x]) == rho_m


def test_extend_layer_finds_no_solution_on_a_corrupted_quasi_isomorphism():
    rep = corrupted_quism_state().representation(3)
    assert extend_layer(rep, ["nu_3", "f_3"]) is None
