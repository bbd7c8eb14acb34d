"""Solving for differential tails by exact linear algebra over tree bases.

Each colored model built here has differentials of the form

    D(generator) = principal part + tail,

where the principal part is written down explicitly and the tail is an
unknown element of a prescribed ideal, constrained by D^2 = 0.  That
constraint is linear: the obstruction phi := -D(principal) must equal
D(tail).  We enumerate the candidate monomials containing at least one
ideal generator, express D on that basis, and solve the resulting exact
rational system with free variables pinned to zero, so tails come out
deterministic even where they are far from unique.

The system is streamed: each candidate is derived in turn, as a map from
bare shapes to coefficients with no monomial built, and written straight
into sparse rows, indexed by shape in first-seen order, with coefficients
in the normal form of `core.exact` (ints over an integral base).  The rows
are never sorted and no list of images is kept: the answer depends on the
column order, the basis order, and not on the row order.  The eliminator
in `linalg` is fraction free, so a tail over an integral base is solved on
ints throughout.

A model build grows one `TailedModel`: made from the fixed images, with
the unsolved generators zero, it solves each tail against itself and sets
each solved image in place, before the builder returns it.
"""

from __future__ import annotations

from .core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    _element_of_shapes,
    _ideal_names,
    collect_terms,
    enumerate_basis,
)
from .differentials import (
    DerivationDifferential,
    _grafted,
    _image,
    build_iso_resolution,
    extend_derivation,
    iso_generator_specs,
    leibniz_shapes,
    rename_element,
    verify_d_squared,
)
from .forests import ForestElement, compose_forests, polarization_iso_m2, polarization_ns
from .linalg import RationalMatrix, solve_linear

B, W = "B", "W"


class TailError(RuntimeError):
    pass


class ObstructionNotCycleError(TailError):
    """The right-hand side is not D-closed; no tail can exist."""


class TailNotFoundError(TailError):
    """No element of the ideal solves the tail equation."""


def solve_tail(partial: DerivationDifferential, target: str, ideal, rhs: OperadElement) -> OperadElement:
    """One exact tail omega of `target` with D(omega) = rhs, in the ideal of
    the generators named in `ideal`, or raise; deterministic for a fixed
    basis order.

    D is `partial`, and its generator set is the ambient one.  The candidates
    are the ideal's monomials in the tail's component, which
    `enumerate_basis` lists whole, so TailNotFoundError means that no tail
    exists.  An ideal entry that is not a generator raises ValueError.
    """
    gens = partial.base
    ideal = _ideal_names(gens, ideal)
    spec = gens.spec(target)
    if rhs.signature != spec.signature or rhs.degree != spec.degree - 2:
        raise ValueError(
            f"rhs lives in {rhs.signature} degree {rhs.degree}, "
            f"expected {spec.signature} degree {spec.degree - 2}"
        )
    if rhs.is_zero():
        return OperadElement.zero(gens, spec.signature, spec.degree - 1)
    if not extend_derivation(partial, rhs).is_zero():
        raise ObstructionNotCycleError("obstruction not a cycle")

    # no monomial lies in an empty ideal, however large the component
    candidates = enumerate_basis(gens, spec.signature, spec.degree - 1, ideal) if ideal else []
    a, b = _tail_system(partial, candidates, rhs)
    x = solve_linear(a, b)
    if x is None:
        raise TailNotFoundError("no tail exists in the ideal")

    omega = OperadElement(gens, collect_terms(zip(candidates, x)), spec.signature, spec.degree - 1)
    # Exact post-check: the solver's arithmetic is not trusted silently.
    if extend_derivation(partial, omega) != rhs:
        raise AssertionError("internal error: solved tail fails D(omega) = rhs")
    return omega


def _tail_system(partial: DerivationDifferential, candidates, rhs: OperadElement):
    """(A, b): D on the candidates, one column each, and the right-hand side.

    Each candidate's derivative, a shape -> coeff map, is written straight
    into the rows, which are indexed by shape in first-seen order, and the
    monomials of `rhs` are added the same way.  The answer of `solve_linear`
    does not depend on the row order, only on the column order, which is
    the order of `candidates`.
    """
    index = {}
    rows = []
    for j, m in enumerate(candidates):
        for shape, coeff in leibniz_shapes(partial, ((m, 1),)).items():
            if not coeff:
                continue
            i = index.setdefault(shape, len(rows))
            if i == len(rows):
                rows.append({j: coeff})
            else:
                rows[i][j] = coeff
    b = [0] * len(rows)
    for mono, coeff in rhs.terms.items():
        i = index.get(mono.shape)
        if i is None:
            rows.append({})
            b.append(coeff)
        else:
            b[i] = coeff
    del index  # the row shapes are a large share of the memory; free them first
    return RationalMatrix.from_rows(rows, len(candidates)), b


# ---------------------------------------------------------------------------
# The two-colored morphism model over an arbitrary minimal base


def principal_part_btow(gens: GeneratorSet, b_name: str, w_name: str) -> OperadElement:
    """f o x_B  -  x_W o f^(tensor arity); the leading terms of D(bar x)."""
    b_spec = gens.spec(b_name)
    n = b_spec.signature.arity
    if n < 2:
        raise ValueError("principal parts are defined for arity >= 2")
    terms = ((_grafted(gens, "f", (b_name,)), 1), (_grafted(gens, w_name, ("f",) * n), -1))
    shapes = collect_terms(t for t in terms if t[0] is not None)
    return _element_of_shapes(gens, shapes, Signature(W, b_spec.signature.inputs), b_spec.degree)


def _check_base(base: DerivationDifferential):
    for g in base.base.generators:
        if g.signature.arity < 2:
            raise ValueError("base model must have no generators of arity 1")
    if len(base.base.colors) != 1:
        raise ValueError("base model must be single-colored")
    rep = verify_d_squared(base)
    if not rep.ok:
        raise ValueError("base differential does not square to zero")


class TailedModel(DerivationDifferential):
    """B- and W-copies of a minimal base, plus generators whose differential
    is a principal part plus a tail solved from D^2 = 0.

    `tails` maps each solved generator to its tail, in the order solved.
    """

    def __init__(self, gens, images, base_model):
        super().__init__(gens, images)
        self.base_model = base_model
        self.tails = {}

    def _solve(self, name, principal, ideal):
        """Solve the tail of `name` against the images so far; record it, and
        set D(name) to principal + tail."""
        omega = solve_tail(self, name, ideal, extend_derivation(self, principal).scale(-1))
        self.tails[name] = omega
        self._replace(name, principal + omega)


def _picked(base: DerivationDifferential, max_arity: int):
    """The base generators of arity <= max_arity, by (arity, name)."""
    picked = [g for g in base.base.generators if g.signature.arity <= max_arity]
    return sorted(picked, key=lambda g: (g.signature.arity, g.name))


def _copy_specs(g: GeneratorSpec):
    """The specs of x_B and x_W, the two colour copies of base generator x."""
    n = g.signature.arity
    return [
        GeneratorSpec(f"{g.name}_B", Signature(B, (B,) * n), g.degree),
        GeneratorSpec(f"{g.name}_W", Signature(W, (W,) * n), g.degree),
    ]


def _copy_images(base: DerivationDifferential, picked, gens) -> dict:
    """D(x_B) and D(x_W): D(x) with every base generator renamed to its copy
    and the base colour recoloured to the copy's colour."""
    base_color = base.base.colors[0]
    images = {}
    for color in (B, W):
        names = {h.name: f"{h.name}_{color}" for h in base.base.generators}
        for g in picked:
            images[f"{g.name}_{color}"] = rename_element(base.of(g.name), gens, names, {base_color: color})
    return images


def build_model_btow(base: DerivationDifferential, max_arity: int) -> TailedModel:
    """Arity-by-arity construction of the morphism model with solved tails."""
    _check_base(base)
    picked = _picked(base, max_arity)

    specs = [GeneratorSpec("f", Signature(W, (B,)), 0)]
    for g in picked:
        specs += _copy_specs(g)
        specs.append(GeneratorSpec(f"{g.name}_bar", Signature(W, (B,) * g.signature.arity), g.degree + 1))
    gens = GeneratorSet((B, W), specs)

    model = TailedModel(gens, _copy_images(base, picked, gens), base)
    for g in picked:
        principal = principal_part_btow(gens, f"{g.name}_B", f"{g.name}_W")
        ideal = [f"{h.name}_bar" for h in picked if h.signature.arity < g.signature.arity]
        model._solve(f"{g.name}_bar", principal, ideal)
    return model


# ---------------------------------------------------------------------------
# The homotopy model over the same base, via the two substitutions


def theta_substitution(bw: TailedModel, elem: OperadElement, target_gens, letter: str):
    """Rename f and every bar copy x_bar to `letter` and x_letter; copies stay."""
    name_map = {"f": letter}
    for bar in bw.tails:
        name_map[bar] = f"{bar.removesuffix('_bar')}_{letter}"
    return rename_element(elem, target_gens, name_map)


def _forest_into(gens, outer_name: str, forest: ForestElement):
    """The (shape, coeff) terms of `forest` composed into the one-vertex tree
    of `outer_name`; none on a colour mismatch, ValueError on a width one."""
    outer = ForestElement.word(gens, [TreeMonomial.generator(gens, outer_name)])
    return [(m.components[0].shape, c) for m, c in compose_forests(outer, forest).terms.items()]


def build_model_homotopy(bw: TailedModel, max_arity: int) -> TailedModel:
    """The homotopy-through-homomorphisms model over bw's base.

    D(x^p), D(x^q) are the two renamings of D(bar x); D(x^h) has principal
    part x^p - x^q - h x_B + (-1)^{|x|} x_W<h> and a solver tail.
    """
    base = bw.base_model
    picked = _picked(base, max_arity)
    for g in picked:
        if f"{g.name}_bar" not in bw.tails:
            raise ValueError(f"bw model does not cover generator {g.name}")

    specs = [
        GeneratorSpec("p", Signature(W, (B,)), 0),
        GeneratorSpec("q", Signature(W, (B,)), 0),
        GeneratorSpec("h", Signature(W, (B,)), 1),
    ]
    for g in picked:
        n = g.signature.arity
        specs += _copy_specs(g)
        specs.append(GeneratorSpec(f"{g.name}_p", Signature(W, (B,) * n), g.degree + 1))
        specs.append(GeneratorSpec(f"{g.name}_q", Signature(W, (B,) * n), g.degree + 1))
        specs.append(GeneratorSpec(f"{g.name}_h", Signature(W, (B,) * n), g.degree + 2))
    gens = GeneratorSet((B, W), specs)

    p = OperadElement.from_generator(gens, "p")
    q = OperadElement.from_generator(gens, "q")
    images = {
        "h": p - q,
        **_copy_images(base, picked, gens),
    }
    for g in picked:
        for letter in ("p", "q"):
            images[f"{g.name}_{letter}"] = theta_substitution(bw, bw.of(f"{g.name}_bar"), gens, letter)

    model = TailedModel(gens, images, base)
    for g in picked:
        n = g.signature.arity
        # A one-vertex outer tree has no vertex after a leaf, so `_forest_into`
        # composes with no orientation sign: sx = (-1)^{|x|} is this principal
        # term's own sign, not an instance of the orientation factor.
        sx = -1 if g.degree % 2 else 1
        terms = [(_grafted(gens, f"{g.name}_{x}", (None,) * n), c) for x, c in (("p", 1), ("q", -1))]
        terms.append((_grafted(gens, "h", (f"{g.name}_B",)), -1))
        terms += [(s, sx * c) for s, c in _forest_into(gens, f"{g.name}_W", polarization_ns(gens, n))]
        principal = _image(gens, f"{g.name}_h", terms)
        ideal = [f"{h.name}_{letter}" for h in picked if h.signature.arity < n for letter in "pqh"]
        model._solve(f"{g.name}_h", principal, ideal)
    return model


# ---------------------------------------------------------------------------
# The iso-resolution model: principal parts and solved tails


def build_model_iso_principal(
    base: DerivationDifferential,
    max_arity: int,
    max_index: int,
) -> TailedModel:
    """Principal parts of the iso-resolution model over a minimal base, with
    tails solved per generator (a failed solve raises, as in the other builders).

    Only bases with generators of arity <= 2 are supported: the closed
    polarization formulas used by the principal parts exist in width 2.
    The tail ideal is empty: it would be spanned by the super-family copies
    of base generators of lower arity, and an arity-2 base has none.  Each
    tail solve therefore enumerates no basis: it checks that a principal part
    is closed and records the zero tail.  Over an arity-2 base the principal
    parts are closed, as the polarization identities show.
    """
    _check_base(base)
    picked = _picked(base, max_arity)
    if any(g.signature.arity > 2 for g in picked):
        raise ValueError("iso principal-part model supports arity <= 2 generators only")

    iso = iso_generator_specs(max_index)
    specs = list(iso)
    for g in picked:
        specs += _copy_specs(g)
        for s in iso:  # x_fk (x_gk): f_k's (g_k's) colours, x's arity, degree |x| + k + 1
            sig = Signature(s.signature.output, s.signature.inputs * g.signature.arity)
            specs.append(GeneratorSpec(f"{g.name}_{s.name.replace('_', '')}", sig, g.degree + s.degree + 1))
    gens = GeneratorSet((B, W), specs)

    # DerivationDifferential re-homes the iso images' monomials over `gens`.
    images = {**build_iso_resolution(max_index).images, **_copy_images(base, picked, gens)}

    fams = polarization_iso_m2(gens, max_index)

    # Each part is (c, terms): c times the (shape, coeff) terms of a
    # polarization grafted into a super-family generator, or of one letter.
    def polar(super_name, kind, deg):
        return _forest_into(gens, super_name, fams[kind][deg])

    def letter(name, inner_name):
        return [(_grafted(gens, name, (inner_name,)), 1)]

    model = TailedModel(gens, images, base)

    # The displayed differentials of the four super-families, one degree at a
    # time, each solved as soon as it is written: same-degree principal parts
    # never refer to each other.  `fam` names the letter family too (the
    # third term of the even g-family is written with g, not f, to respect
    # the colors), `ownh` its odd (homotopy) polarization kind.  Odd k flips
    # every sign, sigma = (-1)^k, and swaps the index parities, e = k mod 2;
    # only the leading polarization term differs beyond that.
    for k in range(0, max_index + 1):
        e, sigma = k % 2, (-1) ** k
        for g in picked:
            # the principal terms' own sign, as in `build_model_homotopy`: the
            # one-vertex outer trees of `polar` carry no orientation sign
            sx = -1 if g.degree % 2 else 1
            for fam, other, ownh, home, away in (("f", "g", "h", B, W), ("g", "f", "l", W, B)):
                name = f"{g.name}_{fam}{k}"
                home, away = f"{g.name}_{home}", f"{g.name}_{away}"
                mine, theirs = f"{g.name}_{fam}", f"{g.name}_{other}"  # the two super-families
                lead = (-sx, polar(home, ownh, k)) if e else (-1, polar(away, fam, k))
                top = (1, letter(f"{fam}_{k}", home))
                parts = [lead, top] if e else [top, lead]
                parts += [(1, letter(f"{fam}_{a}", f"{mine}{k - 1 - a}")) for a in range(e, k, 2)]
                parts += [(-sx, polar(f"{mine}{j}", ownh, k - 1 - j)) for j in range(e, k, 2)]
                parts += [(-1, letter(f"{other}_{a}", f"{mine}{k - 1 - a}")) for a in range(1 - e, k, 2)]
                parts += [(-1, polar(f"{theirs}{j}", fam, k - 1 - j)) for j in range(1 - e, k, 2)]
                principal = _image(gens, name, ((s, sigma * c * v) for c, terms in parts for s, v in terms))
                model._solve(name, principal, [])
    return model
