import hashlib
import random
import warnings
from fractions import Fraction

import pytest

import operadkit.serialize as serialize
import operadkit.transfer as T
from operadkit.linalg import (
    RationalMatrix,
    homology_representatives,
    kernel_basis,
    rank,
    solve_linear,
)
from operadkit.reps import (
    ChainComplex,
    MultilinearMap,
    compose_maps,
    evaluate_element,
    hom_differential,
    identity_map,
    zero_map,
)
from operadkit.transfer import (
    ExtensionObstructionError,
    ExtensionState,
    extend_to_arity,
    extension_step,
    find_homotopy,
    homology_complex,
    induced_product,
    is_commutative,
    is_quasi_iso,
    scenario_abelization,
    scenario_symmetrization,
    symmetrized_product,
)

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


def test_corrupted_quism_raises_obstruction():
    # F_1 kills the homology of a 2-dim source with a non-symmetric product;
    # the leftover F_2 pairing makes the arity-3 system infeasible.
    v = ChainComplex({0: 2}, {}, B)
    w = ChainComplex({0: 1, 1: 1}, {}, W)
    m2 = MultilinearMap((v, v), v, 0, {(0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])})
    n2 = MultilinearMap((w, w), w, 0, {(0, 0): [[1]]})
    f1 = zero_map((v,), w, 0)
    f2 = MultilinearMap((v, v), w, 1, {(0, 0): RationalMatrix([[0, 0, 0, 1]])})
    state = ExtensionState(v=v, w=w, m={2: m2}, n={2: n2}, f={1: f1, 2: f2}, k=2)
    assert state.check().ok
    assert not is_quasi_iso(f1)
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


def test_homology_preservation():
    # the transferred product induces the same multiplication on homology
    u, mu = three_dim_dga()
    h = MultilinearMap((u, u), u, 1, {(0, 0): RationalMatrix([[0, 0, 1, 0]])})
    nu = mu.sub(hom_differential(h))
    state = scenario_abelization(u, mu, nu, h, 3)
    hv, iota_v = homology_complex(state.v, B)
    hw, iota_w = homology_complex(state.w, W)
    star_v = induced_product(state.v, state.m[2], hv, iota_v)
    star_w = induced_product(state.w, state.n[2], hw, iota_w)
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
        mubar = symmetrized_product(mu)
        assert is_commutative(mubar)
        assert symmetrized_product(mubar) == mubar


def test_is_quasi_iso_on_conjugated_complexes():
    rng = random.Random(11)
    killed = into_boundary = 0
    for _ in range(20):
        c, _ = _conjugated_complex(rng)
        # an invertible chain map c -> c', with c' conjugated by p
        p = {}
        for k, n in c.dims.items():
            while True:
                m = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                if rank(m) == n:
                    p[k] = m
                    break
        d = {k: p[k - 1].mul(m).mul(_inverse(p[k])) for k, m in c.d.items()}
        c2 = ChainComplex(dict(c.dims), d)
        assert is_quasi_iso(MultilinearMap((c,), c2, 0, {(k,): m for k, m in p.items()}))
        # a chain map c -> c that sends one homology class [z] to zero:
        # 1 - w phi in degree k, with w = z - b for a boundary b (so z maps
        # to b, a nonzero vector when there are boundaries), phi(z) = 1 and
        # phi = 0 on boundaries
        classes = [k for k in c.degrees() if homology_representatives(c, k)[0]]
        if not classes:
            continue
        k = rng.choice(classes)
        reps, bounds = homology_representatives(c, k)
        z = reps[0]
        w = [zi - bi for zi, bi in zip(z, bounds[0])] if bounds else z
        phi = solve_linear(RationalMatrix(bounds + [z], cols=c.dim(k)), [0] * len(bounds) + [1])
        kill = RationalMatrix([[int(i == j) - w[i] * phi[j] for j in range(c.dim(k))] for i in range(c.dim(k))])
        blocks = {(j,): kill if j == k else RationalMatrix.identity(c.dim(j)) for j in c.degrees()}
        f = MultilinearMap((c,), c, 0, blocks)
        assert hom_differential(f).is_zero()
        assert not is_quasi_iso(f)
        killed += 1
        into_boundary += bool(bounds)
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
    coeff, rest = T._split_principal(model, model.of(f"f_{knew}"), knew)
    rhs_f = evaluate_element(rep, rest)
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


def test_koszul_dga_is_a_dga():
    u, mu = koszul_dga()
    one = identity_map(u)
    assert hom_differential(mu).is_zero()
    assert compose_maps(mu, [mu, one]) == compose_maps(mu, [one, mu])
    assert is_commutative(mu)


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
def test_extension_system_matches_reference(start, top):
    state = start()
    while state.k < top:
        a, b, _, _ = T._extension_system(state)
        ref_a, ref_b = reference_extension_system(state)
        assert (a.rows, a.cols) == (ref_a.rows, ref_a.cols)
        assert a.entries == ref_a.entries
        assert b == ref_b
        state = extension_step(state)
    assert state.check().ok


def _symmetrization_gap(u, mu):
    h_cx, iota = homology_complex(u, B)
    star = induced_product(u, mu, h_cx, iota)
    return compose_maps(iota, [star]).sub(compose_maps(symmetrized_product(mu), [iota, iota]))


def test_homotopy_system_matches_reference():
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
    for g in targets:
        a, b, _ = T._homotopy_system(g)
        ref_a, ref_b = reference_homotopy_system(g)
        assert (a.rows, a.cols) == (ref_a.rows, ref_a.cols)
        assert a.entries == ref_a.entries
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
