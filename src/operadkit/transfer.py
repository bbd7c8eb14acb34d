"""Arity-by-arity extension of transferred homotopy-associative structures.

Starting data: a full structure (V, m_2, m_3, ...), a truncated one
(W, n_2..n_K), and a truncated morphism F_1..F_K between them whose linear
part is a quasi-isomorphism.  One extension step adjoins (n_{K+1}, F_{K+1})
by solving the two axiom equations

    d(n_{K+1}) = phi(D nu_{K+1}),
    d(F_{K+1}) = phi(D f_{K+1}),

jointly as one exact linear system in the entries of both unknowns (the
right side of the second equation is affine in n_{K+1} through the single
principal term nu_{K+1}(f_1, ..., f_1)).  Solving jointly is the classical
additive-renormalization trick in linear-algebra form: the freedom of a
closed theta added to n_{K+1} is exactly the kernel of the first equation,
and feasibility of the pair is what the renormalization buys.  When the
quasi-isomorphism hypothesis fails the system can be infeasible, which is
reported as an obstruction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .differentials import build_ainf_morphism
from .linalg import (
    ChainComplex,
    RationalMatrix,
    homology_coordinates,
    homology_representatives,
    rank,
    solve_linear,
)
from .reports import Report
from .reps import (
    MultilinearMap,
    Representation,
    check_sh_morphism,
    compose_maps,
    evaluate_element,
    hom_differential,
    identity_map,
    zero_map,
)


class ExtensionObstructionError(RuntimeError):
    pass


@dataclass
class ExtensionState:
    """Transfer data at truncation level K."""

    v: ChainComplex
    w: ChainComplex
    m: dict  # arity -> MultilinearMap on V (full structure; missing = zero)
    n: dict  # arity -> MultilinearMap on W, arities 2..K
    f: dict  # arity -> MultilinearMap V^k -> W, arities 1..K
    k: int

    def representation(self, max_arity=None) -> Representation:
        """The state as a representation of the morphism model.

        Generators without data (arities above K, and every missing m_i)
        get zero maps.
        """
        model = build_ainf_morphism(self.k if max_arity is None else max_arity)
        families = {"mu": self.m, "nu": self.n, "f": self.f}
        images = {}
        for g in model.base.generators:
            fam, _, idx = g.name.partition("_")
            image = families[fam].get(int(idx))
            if image is not None:
                images[g.name] = image
        return Representation(model, {"B": self.v, "W": self.w}, images)

    def check(self, max_arity=None) -> Report:
        return check_sh_morphism(self.representation(max_arity))


# ---------------------------------------------------------------------------
# Quasi-isomorphism test


def is_quasi_iso(f1: MultilinearMap) -> bool:
    """Does the chain map F_1 induce an isomorphism on homology?

    With equal homology dims, H_k(F_1) is an isomorphism exactly when the
    images of V's representatives are independent modulo W's boundaries,
    that is when [boundaries of W | F_1(representatives of V)] has full
    column rank.
    """
    if f1.arity != 1 or f1.degree != 0:
        raise ValueError("expected an arity-1 degree-0 map")
    if not hom_differential(f1).is_zero():
        return False
    (v,), w = f1.sources, f1.target
    for k in sorted(set(v.degrees()) | set(w.degrees())):
        reps_v, _ = homology_representatives(v, k)
        reps_w, bounds_w = homology_representatives(w, k)
        if len(reps_v) != len(reps_w):
            return False
        if not reps_v:
            continue
        block = f1.block((k,))
        cols = bounds_w + [block.mul_vec(z) for z in reps_v]
        if rank(RationalMatrix.from_columns(cols, w.dim(k))) != len(cols):
            return False
    return True


# ---------------------------------------------------------------------------
# The extension step as a joint linear solve


def _unknown_layout(template: MultilinearMap):
    layout = []
    for key in template.multidegrees():
        rows, cols = template.block_shape(key)
        layout.append((key, rows, cols))
    return layout


def _map_from_vector(template: MultilinearMap, layout, vec, offset):
    blocks = {}
    pos = offset
    for key, rows, cols in layout:
        mat = [[vec[pos + r * cols + c] for c in range(cols)] for r in range(rows)]
        pos += rows * cols
        blocks[key] = mat
    return MultilinearMap(template.sources, template.target, template.degree, blocks), pos


def _unit_map(template: MultilinearMap, key, r, c):
    rows, cols = template.block_shape(key)
    mat = RationalMatrix.zero(rows, cols)
    mat.entries[r][c] = Fraction(1)
    return MultilinearMap(template.sources, template.target, template.degree, {key: mat})


def _residual_vector(maps_and_layouts):
    out = []
    for m, layout in maps_and_layouts:
        for key, rows, cols in layout:
            block = m.block(key)
            for r in range(rows):
                out.extend(block.entries[r])
    return out


def extension_step(state: ExtensionState) -> ExtensionState:
    """Adjoin (n_{K+1}, F_{K+1}) so that all axioms hold one arity higher."""
    knew = state.k + 1
    # The unknowns n_{K+1}, F_{K+1} enter this representation as zero maps.
    rep = state.representation(knew)
    model = rep.model

    if not is_quasi_iso(state.f[1]):
        warnings.warn("F_1 is not a quasi-isomorphism; the extension step may be obstructed")

    # Right-hand side of the n-equation: the evaluated differential of the
    # top target generator (it only involves data of arity <= K).
    d_nu = model.of(f"nu_{knew}")
    rhs_n = evaluate_element(rep, d_nu)

    # The F-equation right side splits into a constant part and the single
    # term containing the unknown n_{K+1}.
    d_f = model.of(f"f_{knew}")
    principal_coeff, rest = _split_principal(model, d_f, knew)
    rhs_f_const = evaluate_element(rep, rest)

    n_template = zero_map((state.w,) * knew, state.w, knew - 2)
    f_template = zero_map((state.v,) * knew, state.w, knew - 1)
    n_layout = _unknown_layout(n_template)
    f_layout = _unknown_layout(f_template)
    n_size = sum(r * c for _, r, c in n_layout)
    f_size = sum(r * c for _, r, c in f_layout)

    eq_n_layout = _unknown_layout(zero_map((state.w,) * knew, state.w, knew - 3))
    eq_f_layout = _unknown_layout(zero_map((state.v,) * knew, state.w, knew - 2))

    def residual(n_map, f_map, include_const):
        e_n = hom_differential(n_map)
        e_f = hom_differential(f_map)
        principal = compose_maps(n_map, [state.f[1]] * knew).scale(principal_coeff)
        e_f = e_f.sub(principal)
        if include_const:
            e_n = e_n.sub(rhs_n)
            e_f = e_f.sub(rhs_f_const)
        return _residual_vector([(e_n, eq_n_layout), (e_f, eq_f_layout)])

    zero_n = zero_map(n_template.sources, n_template.target, n_template.degree)
    zero_f = zero_map(f_template.sources, f_template.target, f_template.degree)
    b = [-x for x in residual(zero_n, zero_f, True)]

    columns = []
    for key, rows, cols in n_layout:
        for r in range(rows):
            for c in range(cols):
                unit = _unit_map(n_template, key, r, c)
                columns.append(residual(unit, zero_f, False))
    for key, rows, cols in f_layout:
        for r in range(rows):
            for c in range(cols):
                unit = _unit_map(f_template, key, r, c)
                columns.append(residual(zero_n, unit, False))

    a = RationalMatrix.from_columns(columns, len(b)) if columns else RationalMatrix.zero(len(b), 0)
    x = solve_linear(a, b)
    if x is None:
        raise ExtensionObstructionError(
            "extension obstruction nonzero -- check that F_1 is a quasi-isomorphism"
        )
    n_new, pos = _map_from_vector(n_template, n_layout, x, 0)
    f_new, _ = _map_from_vector(f_template, f_layout, x, pos)

    n = dict(state.n)
    f = dict(state.f)
    n[knew] = n_new
    f[knew] = f_new
    return replace(state, n=n, f=f, k=knew)


def _split_principal(model, elem, knew):
    """Separate the nu_{K+1}(f_1,...,f_1) term from the rest of D(f_{K+1})."""
    from .core import OperadElement

    principal_coeff = Fraction(0)
    rest_terms = {}
    for mono, coeff in elem.terms.items():
        names = mono.vertex_names()
        if names[0] == f"nu_{knew}" and all(n == "f_1" for n in names[1:]) and len(names) == knew + 1:
            principal_coeff += coeff
            continue
        rest_terms[mono] = coeff
    rest = OperadElement(elem.gens, rest_terms, signature=elem.signature, degree=elem.degree)
    return principal_coeff, rest


def extend_to_arity(state: ExtensionState, target: int) -> ExtensionState:
    """Iterate extension steps up to the target arity (no-op if already there)."""
    while state.k < target:
        state = extension_step(state)
    return state


# ---------------------------------------------------------------------------
# Homotopies in the Hom complex


def find_homotopy(g: MultilinearMap):
    """Some h with d(h) = g, or None when g is not a boundary."""
    if not hom_differential(g).is_zero():
        raise ValueError("the target of find_homotopy must be closed")
    template = zero_map(g.sources, g.target, g.degree + 1)
    layout = _unknown_layout(template)
    eq_layout = _unknown_layout(zero_map(g.sources, g.target, g.degree))
    b = _residual_vector([(g, eq_layout)])
    columns = []
    for key, rows, cols in layout:
        for r in range(rows):
            for c in range(cols):
                unit = _unit_map(template, key, r, c)
                columns.append(_residual_vector([(hom_differential(unit), eq_layout)]))
    a = RationalMatrix.from_columns(columns, len(b)) if columns else RationalMatrix.zero(len(b), 0)
    x = solve_linear(a, b)
    if x is None:
        return None
    h, _ = _map_from_vector(template, layout, x, 0)
    return h


# ---------------------------------------------------------------------------
# Scenarios


def _associator(mu: MultilinearMap) -> MultilinearMap:
    return compose_maps(mu, [mu, identity_map(mu.target)]).sub(
        compose_maps(mu, [identity_map(mu.target), mu])
    )


def scenario_abelization(
    u: ChainComplex, mu: MultilinearMap, nu: MultilinearMap, h: MultilinearMap, target_arity: int
) -> ExtensionState:
    """Extend a product chain-homotopic to an associative one (d h = mu - nu)."""
    if not hom_differential(mu).is_zero():
        raise ValueError("mu must be a chain map")
    if not _associator(mu).is_zero():
        raise ValueError("mu must be strictly associative")
    if hom_differential(h) != mu.sub(nu):
        raise ValueError("h must satisfy d(h) = mu - nu")
    state = ExtensionState(
        v=u, w=u, m={2: mu}, n={2: nu}, f={1: identity_map(u), 2: h}, k=2
    )
    return extend_to_arity(state, target_arity)


def _swap_matrix(dim_a, dim_b):
    out = RationalMatrix.zero(dim_a * dim_b, dim_b * dim_a)
    for i in range(dim_b):
        for j in range(dim_a):
            out.entries[j * dim_b + i][i * dim_a + j] = Fraction(1)
    return out


def _swapped(mu: MultilinearMap) -> MultilinearMap:
    """(u, v) -> mu(v, u), blockwise."""
    (a, _) = mu.sources
    blocks = {}
    for k1, k2 in mu.multidegrees():
        blocks[(k1, k2)] = mu.block((k2, k1)).mul(_swap_matrix(a.dim(k2), a.dim(k1)))
    return MultilinearMap(mu.sources, mu.target, mu.degree, blocks)


def symmetrized_product(mu: MultilinearMap) -> MultilinearMap:
    """mubar(u, v) = (mu(u, v) + mu(v, u)) / 2, blockwise."""
    return mu.add(_swapped(mu)).scale(Fraction(1, 2))


def homology_complex(u: ChainComplex, color=None) -> tuple:
    """(H as a zero-differential complex, the section iota: H -> U)."""
    dims = {}
    blocks = {}
    for k in u.degrees():
        reps, _ = homology_representatives(u, k)
        if reps:
            dims[k] = len(reps)
            blocks[(k,)] = RationalMatrix.from_columns(reps, u.dim(k))
    h = ChainComplex(dims, {}, color or u.color)
    iota = MultilinearMap((h,), u, 0, blocks)
    return h, iota


def induced_product(u: ChainComplex, mu: MultilinearMap, h: ChainComplex, iota: MultilinearMap) -> MultilinearMap:
    """The product induced on homology, in the representative basis."""
    star_blocks = {}
    for key in zero_map((h, h), h, 0).multidegrees():
        k1, k2 = key
        target_k = k1 + k2
        # tensor-basis columns, first factor most significant
        cols = []
        for i in range(h.dim(k1)):
            zi = [iota.block((k1,)).entries[r][i] for r in range(u.dim(k1))]
            for j in range(h.dim(k2)):
                zj = [iota.block((k2,)).entries[r][j] for r in range(u.dim(k2))]
                prod_vec = _apply_bilinear(mu, k1, k2, zi, zj)
                cols.append(homology_coordinates(u, target_k, prod_vec))
        star_blocks[key] = RationalMatrix.from_columns(cols, h.dim(target_k))
    return MultilinearMap((h, h), h, 0, star_blocks)


def _apply_bilinear(mu, k1, k2, x, y):
    block = mu.block((k1, k2))
    tensor = [xi * yj for xi in x for yj in y]
    return block.mul_vec(tensor)


def is_commutative(star: MultilinearMap) -> bool:
    return star == _swapped(star)


def scenario_symmetrization(u: ChainComplex, mu: MultilinearMap, target_arity: int) -> ExtensionState:
    """Extend the symmetrized product of a homotopy-commutative dga.

    Builds H with an explicit section iota, the induced product, the
    symmetrization mubar, a homotopy h between iota(*) and mubar(iota, iota),
    and runs the extension from (V, 0, *) --iota--> (W, d, mubar).
    """
    if not hom_differential(mu).is_zero():
        raise ValueError("mu must be a chain map")
    if not _associator(mu).is_zero():
        raise ValueError("mu must be strictly associative")
    h_cx, iota = homology_complex(u, color="B")
    star = induced_product(u, mu, h_cx, iota)
    if not is_commutative(star):
        raise ValueError("induced product on homology is not commutative")
    mubar = symmetrized_product(mu)
    if not hom_differential(mubar).is_zero():
        raise ValueError("symmetrized product is not a chain map")
    gap = compose_maps(iota, [star]).sub(compose_maps(mubar, [iota, iota]))
    h = find_homotopy(gap)
    if h is None:
        raise ValueError("product not homotopy commutative at chain level")
    state = ExtensionState(
        v=h_cx, w=u, m={2: star}, n={2: mubar}, f={1: iota, 2: h}, k=2
    )
    return extend_to_arity(state, target_arity)
