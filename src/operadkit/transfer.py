"""Arity-by-arity extension of transferred homotopy-associative structures.

Starting data: a full structure (V, m_2, m_3, ...), a truncated one
(W, n_2..n_K), and a truncated morphism F_1..F_K between them whose linear
part is a quasi-isomorphism.  One extension step adjoins (n_{K+1}, F_{K+1})
as one layer of the lifting argument: ``extend_layer`` solves
d rho(g) = rho(D g) for both new generators of the morphism model jointly,
as one exact linear system.  It reads each equation off the model, also
the principal term nu_{K+1}(f_1, ..., f_1) of D(f_{K+1}), through which the
second equation is affine in n_{K+1}.  Solving jointly is additive
renormalization in linear-algebra form: a closed theta added to n_{K+1} is
a kernel vector of the first equation.  An infeasible system (possible when
F_1 is not a quasi-isomorphism) is reported as an obstruction.

One assembler, ``_layer_system``, writes every layer's system, and that of
d(h) = g in ``find_homotopy``, as sparse rows straight from stored blocks.
Every term is blockwise X -> L X R, and vec(L X R) = (R^T (x) L) vec(X):
the column of the unit E_rc is column r of L times row c of R, a Kronecker
product.  The Hom differential gives d o X and the terms of
``reps.hom_differential_terms``; a term of D g that holds an unknown gives
X o (R_1 (x) ... (x) R_k) with the sign of ``reps.composition_terms``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import inf

from .core import OperadElement, TreeMonomial
from .differentials import build_ainf_morphism
from .linalg import (
    ChainComplex,
    RationalMatrix,
    homology_retract,
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
    composition_terms,
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
    m: dict  # arity -> MultilinearMap on V, arities >= 2 (full structure; missing = zero)
    n: dict  # arity -> MultilinearMap on W, arities 2..K
    f: dict  # arity -> MultilinearMap V^k -> W, arities 1..K
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"truncation level k = {self.k}, expected k >= 1")
        if 1 not in self.f:
            raise ValueError("f has no arity-1 map F_1")
        for name, table, low, high, source, target in (
            ("m", self.m, 2, inf, "v", "v"), ("n", self.n, 2, self.k, "w", "w"), ("f", self.f, 1, self.k, "v", "w")
        ):
            outside = sorted(i for i in table if not low <= i <= high)
            if outside:
                raise ValueError(f"{name} has arities {outside} outside {low}..{high}")
            # Degree i - low: m_i and n_i have degree i - 2, f_i degree i - 1.
            # A ChainComplex compares by identity, so sources and target must
            # be the very v or w.
            src, tgt = getattr(self, source), getattr(self, target)
            for i, g in table.items():
                if g.degree != i - low or g.sources != (src,) * i or g.target is not tgt:
                    raise ValueError(f"{name}_{i} is not a degree-{i - low} map from {source}^{i} to {target}")

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

    def check(self) -> Report:
        return check_sh_morphism(self.representation())


# ---------------------------------------------------------------------------
# Quasi-isomorphism test


def is_quasi_iso(f1: MultilinearMap) -> bool:
    """Does the chain map F_1 induce an isomorphism on homology?

    H(F_1) is the composition p_W o F_1 o iota_V of F_1 with the homology
    retracts, and it is an isomorphism exactly when each degree's block is
    square and of full rank.
    """
    if f1.arity != 1 or f1.degree != 0:
        raise ValueError("expected an arity-1 degree-0 map")
    if not hom_differential(f1).is_zero():
        return False
    (v,), w = f1.sources, f1.target
    hv, iota_v, _ = homology_complex(v)
    hw, _, p_w = homology_complex(w)
    induced = compose_maps(p_w, [compose_maps(f1, [iota_v])])
    for k in set(hv.degrees()) | set(hw.degrees()):
        if hv.dim(k) != hw.dim(k) or rank(induced.block((k,))) != hv.dim(k):
            return False
    return True


# ---------------------------------------------------------------------------
# The extension step as a joint linear solve


class _Layout:
    """Where the entries of a map shaped like `template` sit in a flat vector:
    block by block in multidegree order, each block row-major."""

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
        out = [0] * self.size
        for key, rows, cols, off in self.blocks:
            block = m.blocks.get(key)
            if block is not None:
                for r in range(rows):
                    for j, x in block.row_items(r):
                        out[off + r * cols + j] = x
        return out

    def map_from_vector(self, vec) -> MultilinearMap:
        """The map whose entries are `vec`; an all-zero block is not built."""
        t = self.template
        blocks = {
            key: [vec[off + r * cols : off + (r + 1) * cols] for r in range(rows)]
            for key, rows, cols, off in self.blocks
            if any(vec[off : off + rows * cols])
        }
        return MultilinearMap(t.sources, t.target, t.degree, blocks)


def _write_right(eq_rows, col0, rows, cols, row0, factors, scale):
    """Columns of X -> scale * X o kron(factors), X a unit of one rows x cols block.

    The unknowns of the block start at column col0 and its image block at
    equation row row0: the unit E_rc adds row c of the Kronecker product,
    times scale, to row r of the image block.
    """
    kron = kron_all(factors)
    for c in range(kron.rows):
        entries = [(k, scale * x) for k, x in kron.row_items(c)]
        for r in range(rows):
            col = col0 + r * cols + c
            base = row0 + r * kron.cols
            for k, x in entries:
                row = eq_rows[base + k]
                row[col] = row.get(col, 0) + x


def _write_hom_differential(eq_rows, unknowns: _Layout, eq: _Layout, col0, row0):
    """Columns of X -> d(X) for the units X of `unknowns.template`.

    The unknowns start at column col0, and d(X), laid out by `eq`, starts at
    equation row row0.  For the unit E_rc in block K, d o E_rc puts column r
    of the target differential in column c of eq-block K, and each term of
    reps.hom_differential_terms puts row c of its Kronecker product, times
    its sign, in row r of its eq-block; no two of these writes meet.
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


def _layer_system(unknowns, rhs, linear):
    """(A, b, layouts) of the joint system d(X_i) - sum c X_u o (R_1 (x) ... (x) R_k) = rhs[i].

    `unknowns` are zero maps shaped like the X_i, and linear[i] holds the
    terms (c, u, [R_1, ..., R_k]) of equation i.  The columns are the X_i's
    entries and the rows the equations' entries, both in the order given.
    """
    xs = [_Layout(t) for t in unknowns]
    eqs = [_Layout(r) for r in rhs]
    col0 = list(accumulate((x.size for x in xs), initial=0))
    row0 = list(accumulate((e.size for e in eqs), initial=0))
    b = [v for e, r in zip(eqs, rhs) for v in e.flatten(r)]
    eq_rows = [{} for _ in b]
    for i, (x, eq) in enumerate(zip(xs, eqs)):
        _write_hom_differential(eq_rows, x, eq, col0[i], row0[i])
        for c, u, inners in linear[i]:
            for key, out, factors, sign in composition_terms(inners, xs[u].offsets):
                rows, cols = xs[u].template.block_shape(key)
                col = col0[u] + xs[u].offsets[key]
                _write_right(eq_rows, col, rows, cols, row0[i] + eq.offsets[out], factors, -c * sign)
    return RationalMatrix.from_rows(eq_rows, col0[-1]), b, xs


def extend_layer(rep: Representation, unknowns) -> Representation | None:
    """`rep` with the images of `unknowns` solved jointly from d rho(g) = rho(D g),
    g in `unknowns`, free variables at zero; None when there is no solution.

    The images `rep` holds for the unknowns are ignored, and `rep` is not
    changed.  A term c u(S_1, ..., S_k) of D g that holds an unknown u must
    have it at its root over subtrees of arity 1, and it is
    c X_u o (rho(S_1) (x) ... (x) rho(S_k)); any other raises ValueError.
    """
    model = rep.model
    index = {name: u for u, name in enumerate(unknowns)}
    known = Representation(model, rep.complexes, {g: m for g, m in rep.images.items() if g not in index})
    linear = []
    for name in unknowns:
        terms = []
        for mono, c in model.of(name).terms.items():
            held = [g for g in mono.vertex_names() if g in index]
            if not held:
                continue
            subtrees = [TreeMonomial(model.base, s) for s in mono.shape[1:]]
            if held != [mono.shape[0]] or any(s.arity != 1 for s in subtrees):
                raise ValueError(f"D({name}) holds {mono.compact()}; an unknown must be its root, over arity-1 trees")
            terms.append((c, index[held[0]], [evaluate_element(known, OperadElement.monomial(s)) for s in subtrees]))
        linear.append(terms)
    # The unknowns are zero in `known`, so rhs_i is rho(D g) less its terms in them.
    rhs = [evaluate_element(known, model.of(name)) for name in unknowns]
    a, b, layouts = _layer_system([known.image(name) for name in unknowns], rhs, linear)
    x = solve_linear(a, b)
    if x is None:
        return None
    images = dict(known.images)
    for name, layout in zip(unknowns, layouts):
        images[name] = layout.map_from_vector(x[: layout.size])
        x = x[layout.size :]
    return Representation(model, rep.complexes, images)


def extension_step(state: ExtensionState) -> ExtensionState:
    """Adjoin (n_{K+1}, F_{K+1}) so that all axioms hold one arity higher."""
    if not is_quasi_iso(state.f[1]):
        warnings.warn("F_1 is not a quasi-isomorphism; the extension step may be obstructed")
    knew = state.k + 1
    rep = extend_layer(state.representation(knew), [f"nu_{knew}", f"f_{knew}"])
    if rep is None:
        raise ExtensionObstructionError("extension obstruction nonzero -- check that F_1 is a quasi-isomorphism")
    n = {**state.n, knew: rep.image(f"nu_{knew}")}
    f = {**state.f, knew: rep.image(f"f_{knew}")}
    return replace(state, n=n, f=f, k=knew)


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
    a, b, (h,) = _layer_system([zero_map(g.sources, g.target, g.degree + 1)], [g], [[]])
    x = solve_linear(a, b)
    return None if x is None else h.map_from_vector(x)


# ---------------------------------------------------------------------------
# Scenarios


def _check_product(mu: MultilinearMap):
    """Refuse a product that is not a chain map or not strictly associative."""
    if not hom_differential(mu).is_zero():
        raise ValueError("mu must be a chain map")
    one = identity_map(mu.target)
    if compose_maps(mu, [mu, one]) != compose_maps(mu, [one, mu]):
        raise ValueError("mu must be strictly associative")


def _swapped(mu: MultilinearMap) -> MultilinearMap:
    """(u, v) -> (-1)^{|u||v|} mu(v, u), blockwise: mu after the Koszul braiding."""
    (a, _) = mu.sources
    blocks = {}
    for (k2, k1), block in mu.blocks.items():
        # Column j * n1 + i of the (k2, k1) block, v_j of degree k2 and
        # u_i of degree k1, is column i * n2 + j of the (k1, k2) block.
        n1, n2 = a.dim(k1), a.dim(k2)
        sign = -1 if k1 * k2 % 2 else 1
        rows = [{c % n1 * n2 + c // n1: sign * x for c, x in block.row_items(r)} for r in range(block.rows)]
        blocks[(k1, k2)] = RationalMatrix.from_rows(rows, n1 * n2)
    return MultilinearMap(mu.sources, mu.target, mu.degree, blocks)


def symmetrized_product(mu: MultilinearMap) -> MultilinearMap:
    """mubar(u, v) = (mu(u, v) + (-1)^{|u||v|} mu(v, u)) / 2, blockwise."""
    return mu.add(_swapped(mu)).scale(Fraction(1, 2))


def homology_complex(u: ChainComplex) -> tuple:
    """(H, iota, p): H as a zero-differential complex, the section
    iota: H -> U onto the fixed representatives, and the projection
    p: U -> H that kills the boundary basis, with the blocks of
    ``linalg.homology_retract``.  Both are chain maps, and p o iota = 1."""
    retracts = {k: homology_retract(u, k) for k in u.degrees()}
    h = ChainComplex({k: iota_k.cols for k, (iota_k, _) in retracts.items()})
    iota = MultilinearMap((h,), u, 0, {(k,): iota_k for k, (iota_k, _) in retracts.items()})
    p = MultilinearMap((u,), h, 0, {(k,): p_k for k, (_, p_k) in retracts.items()})
    return h, iota, p


def is_commutative(star: MultilinearMap) -> bool:
    return star == _swapped(star)


def scenario_symmetrization(u: ChainComplex, mu: MultilinearMap, target_arity: int) -> ExtensionState:
    """Extend the symmetrized product of a homotopy-commutative dga.

    Builds the homology retract (H, iota, p), the induced product
    * = p o mu o (iota (x) iota), the symmetrization mubar, a homotopy h
    between iota(*) and mubar(iota, iota), and runs the extension from
    (V, 0, *) --iota--> (W, d, mubar).
    """
    _check_product(mu)
    h_cx, iota, p = homology_complex(u)
    star = compose_maps(p, [compose_maps(mu, [iota, iota])])
    if not is_commutative(star):
        raise ValueError("induced product on homology is not commutative")
    mubar = symmetrized_product(mu)
    gap = compose_maps(iota, [star]).sub(compose_maps(mubar, [iota, iota]))
    h = find_homotopy(gap)
    if h is None:
        raise ValueError("product not homotopy commutative at chain level")
    state = ExtensionState(
        v=h_cx, w=u, m={2: star}, n={2: mubar}, f={1: iota, 2: h}, k=2
    )
    return extend_to_arity(state, target_arity)
