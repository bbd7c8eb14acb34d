import random
import warnings
from fractions import Fraction

import pytest

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
    hom_differential,
    identity_map,
    random_map,
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
    import operadkit.transfer as T

    knew = 3
    # redo the solve by hand to get the kernel
    from operadkit.differentials import build_ainf_morphism

    model = build_ainf_morphism(knew)
    n_template = zero_map((u,) * knew, u, knew - 2)
    f_template = zero_map((u,) * knew, u, knew - 1)
    n_layout = T._unknown_layout(n_template)
    f_layout = T._unknown_layout(f_template)
    eq_n_layout = T._unknown_layout(zero_map((u,) * knew, u, knew - 3))
    eq_f_layout = T._unknown_layout(zero_map((u,) * knew, u, knew - 2))

    nxt = extension_step(state)
    base_n, base_f = nxt.n[3], nxt.f[3]

    def residual_mat(n_map, f_map):
        e_n = hom_differential(n_map)
        principal = compose_maps(n_map, [state.f[1]] * knew).scale(-1)
        e_f = hom_differential(f_map).sub(principal)
        return T._residual_vector([(e_n, eq_n_layout), (e_f, eq_f_layout)])

    columns = []
    for key, rows, cols in n_layout:
        for r in range(rows):
            for c in range(cols):
                columns.append(residual_mat(T._unit_map(n_template, key, r, c), f_template))
    for key, rows, cols in f_layout:
        for r in range(rows):
            for c in range(cols):
                columns.append(residual_mat(n_template, T._unit_map(f_template, key, r, c)))
    a = RationalMatrix.from_columns(columns, len(columns and columns[0]))
    kern = kernel_basis(a)
    assert kern, "expected solver freedom"
    shift = kern[0]
    n_shift, pos = T._map_from_vector(n_template, n_layout, shift, 0)
    f_shift, _ = T._map_from_vector(f_template, f_layout, shift, pos)
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
