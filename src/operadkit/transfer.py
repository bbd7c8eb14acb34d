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

The system is assembled as sparse rows written straight from stored
blocks, and ``RationalMatrix.from_rows`` makes it a matrix.  Every term is
blockwise X -> L X R, and vec(L X R) = (R^T (x) L) vec(X): the column of
the unit E_rc is column r of L times row c of R, where R is a Kronecker
product from ``linalg.kron_all``.  The Hom differential contributes d o X (R the identity) and
the terms X o (1 (x) ... (x) d_i (x) ... (x) 1) with the Koszul sign from
``reps.hom_differential_terms``, the one place that sign rule is written;
the F-equation adds the principal term X o f_1^{(x)K+1} (L a scalar).
``find_homotopy`` solves d(h) = g with the same assembler.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import OperadElement
from .differentials import build_ainf_morphism
from .linalg import (
    ChainComplex,
    RationalMatrix,
    homology_coordinates,
    homology_representatives,
    kron_all,
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
    hom_differential_terms,
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

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"truncation level k = {self.k}, expected k >= 1")
        if 1 not in self.f:
            raise ValueError("f has no arity-1 map F_1")
        for name, table, low in (("n", self.n, 2), ("f", self.f, 1)):
            outside = sorted(i for i in table if not low <= i <= self.k)
            if outside:
                raise ValueError(f"{name} has arities {outside} outside {low}..{self.k}")

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
#
# The unknowns are the entries of multilinear maps, flattened block by block
# in multidegree order, each block row-major.


class _Layout:
    """Where the entries of a map shaped like `template` sit in a flat vector."""

    def __init__(self, template: MultilinearMap):
        self.template = template
        self.blocks = []  # (key, rows, cols, offset)
        self.offsets = {}
        self.size = 0
        for key in template.multidegrees():
            rows, cols = template.block_shape(key)
            self.blocks.append((key, rows, cols, self.size))
            self.offsets[key] = self.size
            self.size += rows * cols

    def flatten(self, m: MultilinearMap):
        out = [Fraction(0)] * self.size
        for key, rows, cols, off in self.blocks:
            block = m.blocks.get(key)
            if block is not None:
                for r in range(rows):
                    for j, x in block.row_items(r):
                        out[off + r * cols + j] = x
        return out

    def map_from_vector(self, vec) -> MultilinearMap:
        t = self.template
        blocks = {
            key: [vec[off + r * cols : off + (r + 1) * cols] for r in range(rows)]
            for key, rows, cols, off in self.blocks
        }
        return MultilinearMap(t.sources, t.target, t.degree, blocks)


def _layouts(template: MultilinearMap):
    """Layouts of the unknown X shaped like `template` and of its equation d(X)."""
    eq = zero_map(template.sources, template.target, template.degree - 1)
    return _Layout(template), _Layout(eq)


def _write_right(eq_rows, col0, rows, cols, row0, factors, scale):
    """Columns of X -> scale * X o kron(factors), X a unit of one rows x cols block.

    The unknowns of the block start at column col0 and its image block at
    equation row row0: the unit E_rc puts row c of the Kronecker product,
    times scale, in row r of the image block.
    """
    kron = kron_all(factors)
    for c in range(kron.rows):
        entries = [(k, scale * x) for k, x in kron.row_items(c)]
        for r in range(rows):
            col = col0 + r * cols + c
            base = row0 + r * kron.cols
            for k, x in entries:
                eq_rows[base + k][col] = x


def _write_hom_differential(eq_rows, unknowns: _Layout, eq: _Layout, col0, row0):
    """Columns of X -> d(X) for the units X of `unknowns.template`.

    The unknowns start at column col0, and d(X), laid out by `eq`, starts at
    equation row row0.  For the unit E_rc in block K, d o E_rc puts column r
    of the target differential in column c of eq-block K, and each term of
    reps.hom_differential_terms puts row c of its Kronecker product, times
    its sign, in row r of its eq-block.
    """
    t = unknowns.template
    for key, rows, cols, off in unknowns.blocks:
        left = t.target.d.get(sum(key) + t.degree)
        if left is not None:
            base = row0 + eq.offsets[key]
            for i in range(left.rows):
                for r, x in left.row_items(i):
                    for c in range(cols):
                        eq_rows[base + i * cols + c][col0 + off + r * cols + c] = x
        for key2, factors, sign in hom_differential_terms(t.sources, t.degree, key):
            _write_right(eq_rows, col0 + off, rows, cols, row0 + eq.offsets[key2], factors, sign)


def _extension_system(state: ExtensionState):
    """(A, b, n, f): the joint system of one extension step, and the layouts
    of its unknowns n_{K+1} and F_{K+1}.

    The unknowns are the entries of n_{K+1} and then of F_{K+1}; the
    equations are the entries of the n-equation and then of the F-equation.
    The F-equation carries the principal term -c nu_{K+1}(f_1, ..., f_1) on
    the n-unknowns: f_1 has degree 0, so it is X o f_1^{(x)k} without a sign.
    """
    knew = state.k + 1
    # The unknowns n_{K+1}, F_{K+1} enter this representation as zero maps.
    rep = state.representation(knew)
    model = rep.model
    principal_coeff, rest = _split_principal(model, model.of(f"f_{knew}"), knew)

    n, eq_n = _layouts(zero_map((state.w,) * knew, state.w, knew - 2))
    f, eq_f = _layouts(zero_map((state.v,) * knew, state.w, knew - 1))
    # Right-hand sides: the evaluated differentials of the top generators,
    # less the principal term (they involve only data of arity <= K).
    b = eq_n.flatten(evaluate_element(rep, model.of(f"nu_{knew}")))
    b += eq_f.flatten(evaluate_element(rep, rest))

    eq_rows = [{} for _ in b]
    _write_hom_differential(eq_rows, n, eq_n, 0, 0)
    if principal_coeff:
        f1 = state.f[1]
        for key, rows, cols, off in n.blocks:
            inner = [f1.blocks.get((k,)) for k in key]
            if all(m is not None for m in inner):
                row0 = eq_n.size + eq_f.offsets[key]
                _write_right(eq_rows, off, rows, cols, row0, inner, -principal_coeff)
    _write_hom_differential(eq_rows, f, eq_f, n.size, eq_n.size)
    return RationalMatrix.from_rows(eq_rows, n.size + f.size), b, n, f


def extension_step(state: ExtensionState) -> ExtensionState:
    """Adjoin (n_{K+1}, F_{K+1}) so that all axioms hold one arity higher."""
    if not is_quasi_iso(state.f[1]):
        warnings.warn("F_1 is not a quasi-isomorphism; the extension step may be obstructed")
    a, b, n_layout, f_layout = _extension_system(state)
    x = solve_linear(a, b)
    if x is None:
        raise ExtensionObstructionError(
            "extension obstruction nonzero -- check that F_1 is a quasi-isomorphism"
        )
    knew = state.k + 1
    n = dict(state.n)
    f = dict(state.f)
    n[knew] = n_layout.map_from_vector(x[: n_layout.size])
    f[knew] = f_layout.map_from_vector(x[n_layout.size :])
    return replace(state, n=n, f=f, k=knew)


def _split_principal(model, elem, knew):
    """Separate the nu_{K+1}(f_1,...,f_1) term from the rest of D(f_{K+1})."""
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


def _homotopy_system(g: MultilinearMap):
    """(A, b, h): the system d(h) = g, and the layout of the unknown h."""
    h, eq = _layouts(zero_map(g.sources, g.target, g.degree + 1))
    b = eq.flatten(g)
    eq_rows = [{} for _ in b]
    _write_hom_differential(eq_rows, h, eq, 0, 0)
    return RationalMatrix.from_rows(eq_rows, h.size), b, h


def find_homotopy(g: MultilinearMap):
    """Some h with d(h) = g, or None when g is not a boundary."""
    if not hom_differential(g).is_zero():
        raise ValueError("the target of find_homotopy must be closed")
    a, b, h = _homotopy_system(g)
    x = solve_linear(a, b)
    if x is None:
        return None
    return h.map_from_vector(x)


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
    """The permutation u (x) v -> v (x) u, u in a space of dim_a, v of dim_b."""
    rows = [{(r % dim_b) * dim_a + r // dim_b: Fraction(1)} for r in range(dim_a * dim_b)]
    return RationalMatrix.from_rows(rows, dim_b * dim_a)


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
    """The product induced on homology, in the representative basis: the
    homology coordinates of each column of mu o (iota (x) iota)."""
    star_blocks = {}
    for key, block in compose_maps(mu, [iota, iota]).blocks.items():
        target_k = sum(key)
        columns = [[Fraction(0)] * block.rows for _ in range(block.cols)]
        for i in range(block.rows):
            for j, x in block.row_items(i):
                columns[j][i] = x
        cols = [homology_coordinates(u, target_k, col) for col in columns]
        star_blocks[key] = RationalMatrix.from_columns(cols, h.dim(target_k))
    return MultilinearMap((h, h), h, 0, star_blocks)


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
