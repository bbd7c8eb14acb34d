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
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    _combination_terms,
    collect_terms,
    compose_full,
    enumerate_basis,
)
from .differentials import (
    DerivationDifferential,
    _image,
    _letter_over,
    build_iso_resolution,
    extend_derivation,
    iso_generator_specs,
    rename_element,
    verify_d_squared,
)
from .forests import ForestElement, polarization_iso_m2, polarization_ns, polarization_sym
from .linalg import RationalMatrix, solve_linear
from .reports import Report

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
    unknown = [name for name in ideal if name not in gens]
    if unknown:
        raise ValueError(f"ideal entries {unknown} are not generators of the ambient set")
    spec = gens.spec(target)
    if rhs.is_zero():
        return OperadElement.zero(gens, spec.signature, spec.degree - 1)
    if rhs.signature != spec.signature or rhs.degree != spec.degree - 2:
        raise ValueError(
            f"rhs lives in {rhs.signature} degree {rhs.degree}, "
            f"expected {spec.signature} degree {spec.degree - 2}"
        )
    if not extend_derivation(partial, rhs).is_zero():
        raise ObstructionNotCycleError("obstruction not a cycle")

    ideal = set(ideal)
    # no monomial lies in an empty ideal, however large the component
    basis = enumerate_basis(gens, spec.signature, spec.degree - 1) if ideal else []
    candidates = [m for m in basis if ideal.intersection(m.vertex_names())]
    images = [extend_derivation(partial, OperadElement.monomial(m)) for m in candidates]
    support = set(rhs.terms)
    for img in images:
        support.update(img.terms)
    support = sorted(support, key=lambda m: m.sort_key)
    index = {m: i for i, m in enumerate(support)}

    rows = [{} for _ in support]
    for j, img in enumerate(images):
        for mono, coeff in img.terms.items():
            rows[index[mono]][j] = Fraction(coeff)
    a = RationalMatrix.from_rows(rows, len(candidates))
    b = [Fraction(0)] * len(support)
    for mono, coeff in rhs.terms.items():
        b[index[mono]] = coeff

    x = solve_linear(a, b)
    if x is None:
        raise TailNotFoundError("no tail exists in the ideal")

    omega = OperadElement(gens, collect_terms(zip(candidates, x)), spec.signature, spec.degree - 1)
    # Exact post-check: the solver's arithmetic is not trusted silently.
    if extend_derivation(partial, omega) != rhs:
        raise AssertionError("internal error: solved tail fails D(omega) = rhs")
    return omega


# ---------------------------------------------------------------------------
# The two-colored morphism model over an arbitrary minimal base


def principal_part_btow(gens: GeneratorSet, b_name: str, w_name: str, f_name: str) -> OperadElement:
    """f o x_B  -  x_W o f^(tensor arity); the leading terms of D(bar x)."""
    b_spec = gens.spec(b_name)
    n = b_spec.signature.arity
    if n < 2:
        raise ValueError("principal parts are defined for arity >= 2")
    f_elem = OperadElement.from_generator(gens, f_name)
    head = _letter_over(gens, f_name, b_name)
    tail = compose_full(TreeMonomial.generator(gens, w_name), [f_elem] * n)
    return head - tail


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

    `generator_order` names the picked base generators by arity, `tails`
    maps each solved generator to its tail, and `tail_report` has one entry
    per solved generator.
    """

    def __init__(self, gens, images, base_model, generator_order, tails, tail_report):
        super().__init__(gens, images)
        self.base_model = base_model
        self.generator_order = generator_order
        self.tails = tails
        self.tail_report = tail_report


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


def _solve_into(gens, images, tails, report, name, principal, ideal):
    """Solve the tail of `name` against the images so far; record its tail,
    its image principal + tail, and a report entry."""
    partial = DerivationDifferential(gens, images)
    phi = extend_derivation(partial, principal).scale(-1)
    omega = solve_tail(partial, name, ideal, phi)
    tails[name] = omega
    images[name] = principal + omega
    report.add(name, True, f"tail with {len(omega.terms)} terms" if omega.terms else "tail 0")


def build_model_btow(base: DerivationDifferential, max_arity: int) -> TailedModel:
    """Arity-by-arity construction of the morphism model with solved tails."""
    _check_base(base)
    picked = _picked(base, max_arity)

    specs = [GeneratorSpec("f", Signature(W, (B,)), 0)]
    for g in picked:
        specs += _copy_specs(g)
        specs.append(GeneratorSpec(f"{g.name}_bar", Signature(W, (B,) * g.signature.arity), g.degree + 1))
    gens = GeneratorSet((B, W), specs)

    images = {"f": OperadElement.zero(gens, Signature(W, (B,)), -1), **_copy_images(base, picked, gens)}
    tails, report = {}, Report("morphism model tails")
    for g in picked:
        principal = principal_part_btow(gens, f"{g.name}_B", f"{g.name}_W", "f")
        ideal = [f"{h.name}_bar" for h in picked if h.signature.arity < g.signature.arity]
        _solve_into(gens, images, tails, report, f"{g.name}_bar", principal, ideal)

    return TailedModel(gens, images, base, [g.name for g in picked], tails, report)


# ---------------------------------------------------------------------------
# The homotopy model over the same base, via the two substitutions


def theta_substitution(bw: TailedModel, elem: OperadElement, target_gens, letter: str):
    """Rename f and every bar copy x_bar to `letter` and x_letter; copies stay."""
    name_map = {"f": letter}
    for x in bw.generator_order:
        name_map[f"{x}_bar"] = f"{x}_{letter}"
    return rename_element(elem, target_gens, name_map)


def _forest_into(gens, outer_name: str, forest: ForestElement) -> OperadElement:
    """Graft each forest word into the slots of a single-generator vertex."""
    outer = TreeMonomial.generator(gens, outer_name)
    sig = deg = None
    if forest.inputs is not None:
        sig, deg = Signature(outer.signature.output, forest.inputs), outer.degree + forest.degree
    parts = (
        (coeff, compose_full(outer, [OperadElement.monomial(t) for t in mono.components]))
        for mono, coeff in forest.terms.items()
    )
    return OperadElement(gens, collect_terms(_combination_terms(parts)), signature=sig, degree=deg)


def _staircase_into(gens, w_name: str, n: int, variant: str) -> OperadElement:
    """x_W composed with the width-n staircase word over (p, q, h)."""
    if variant == "ns":
        word = polarization_ns(gens, n)
    elif variant == "sym":
        word = polarization_sym(gens, n)
    else:
        raise ValueError(f"unknown polarization variant {variant!r}")
    return _forest_into(gens, w_name, word)


def build_model_homotopy(bw: TailedModel, max_arity: int, polarization: str = "ns") -> TailedModel:
    """The homotopy-through-homomorphisms model over bw's base.

    D(x^p), D(x^q) are the two renamings of D(bar x); D(x^h) has principal
    part x^p - x^q - h x_B + (-1)^{|x|} x_W<h> and a solver tail.
    """
    base = bw.base_model
    picked = _picked(base, max_arity)
    for g in picked:
        if g.name not in bw.generator_order:
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
        "p": OperadElement.zero(gens, Signature(W, (B,)), -1),
        "q": OperadElement.zero(gens, Signature(W, (B,)), -1),
        "h": p - q,
        **_copy_images(base, picked, gens),
    }
    for g in picked:
        for letter in ("p", "q"):
            images[f"{g.name}_{letter}"] = theta_substitution(bw, bw.of(f"{g.name}_bar"), gens, letter)

    tails, report = {}, Report("homotopy model tails")
    for g in picked:
        n = g.signature.arity
        principal = (
            OperadElement.from_generator(gens, f"{g.name}_p")
            - OperadElement.from_generator(gens, f"{g.name}_q")
            - _letter_over(gens, "h", f"{g.name}_B")
            + _staircase_into(gens, f"{g.name}_W", n, polarization).scale(-1 if g.degree % 2 else 1)
        )
        ideal = [f"{h.name}_{letter}" for h in picked if h.signature.arity < n for letter in "pqh"]
        _solve_into(gens, images, tails, report, f"{g.name}_h", principal, ideal)

    return TailedModel(gens, images, base, [g.name for g in picked], tails, report)


# ---------------------------------------------------------------------------
# The iso-resolution model: principal parts and attempted tails


def build_model_iso_principal(
    base: DerivationDifferential,
    max_arity: int,
    max_index: int,
) -> TailedModel:
    """Principal parts of the iso-resolution model over a minimal base, with
    tails attempted per generator (a failed solve is recorded, not fatal).

    Only bases with generators of arity <= 2 are supported: the closed
    polarization formulas used by the principal parts exist in width 2.
    The tail ideal is empty: it would be spanned by the super-family copies
    of base generators of lower arity, and an arity-2 base has none.  Each
    tail solve therefore enumerates no basis: it checks that a principal part
    is closed, and records "tail 0" or a failure.
    """
    _check_base(base)
    picked = _picked(base, max_arity)
    if any(g.signature.arity > 2 for g in picked):
        raise ValueError("iso principal-part model supports arity <= 2 generators only")

    specs = list(iso_generator_specs(max_index))
    for g in picked:
        n = g.signature.arity
        d = g.degree
        specs += _copy_specs(g)
        for k in range(0, max_index + 1):
            f_out = W if k % 2 == 0 else B
            g_out = B if k % 2 == 0 else W
            specs.append(GeneratorSpec(f"{g.name}_f{k}", Signature(f_out, (B,) * n), d + k + 1))
            specs.append(GeneratorSpec(f"{g.name}_g{k}", Signature(g_out, (W,) * n), d + k + 1))
    gens = GeneratorSet((B, W), specs)

    iso = build_iso_resolution(max_index)
    images = {name: rename_element(img, gens, {}) for name, img in iso.images.items()}
    images.update(_copy_images(base, picked, gens))

    fams = polarization_iso_m2(gens, max_index)

    def polar(super_name, kind, deg):
        return _forest_into(gens, super_name, fams[kind].get(deg, ForestElement.zero(gens)))

    def letter(name, inner_name):
        return _letter_over(gens, name, inner_name)

    tails, report = {}, Report("iso model tails")

    # The displayed differentials of the four super-families, one degree at a
    # time.  `own` is the letter family matching `fam`, `ownh` its odd
    # (homotopy) polarization kind; the third term of the even g-family is
    # written with g (not f) to respect the colors.
    for k in range(0, max_index + 1):
        for g in picked:
            sx = -1 if g.degree % 2 else 1
            for fam in ("f", "g"):
                name = f"{g.name}_{fam}{k}"
                own, other = (("f", "g") if fam == "f" else ("g", "f"))
                ownh = "h" if fam == "f" else "l"
                home = f"{g.name}_B" if fam == "f" else f"{g.name}_W"
                away = f"{g.name}_W" if fam == "f" else f"{g.name}_B"
                mine, theirs = f"{g.name}_{own}", f"{g.name}_{other}"  # the two super-families
                if k % 2 == 0:
                    parts = [(1, letter(f"{own}_{k}", home)), (-1, polar(away, own, k))]
                    parts += [(1, letter(f"{own}_{a}", f"{mine}{k - 1 - a}")) for a in range(0, k, 2)]
                    parts += [(-sx, polar(f"{mine}{j}", ownh, k - 1 - j)) for j in range(0, k, 2)]
                    parts += [(-1, letter(f"{other}_{a}", f"{mine}{k - 1 - a}")) for a in range(1, k, 2)]
                    parts += [(-1, polar(f"{theirs}{j}", own, k - 1 - j)) for j in range(1, k, 2)]
                else:
                    parts = [(sx, polar(home, ownh, k)), (-1, letter(f"{own}_{k}", home))]
                    parts += [(-1, letter(f"{own}_{a}", f"{mine}{k - 1 - a}")) for a in range(1, k, 2)]
                    parts += [(sx, polar(f"{mine}{j}", ownh, k - 1 - j)) for j in range(1, k, 2)]
                    parts += [(1, letter(f"{other}_{a}", f"{mine}{k - 1 - a}")) for a in range(0, k, 2)]
                    parts += [(1, polar(f"{theirs}{j}", own, k - 1 - j)) for j in range(0, k, 2)]
                images[name] = _image(gens, name, parts)
        # solve tails for this index level before moving up
        for g in picked:
            for fam in ("f", "g"):
                name = f"{g.name}_{fam}{k}"
                try:
                    _solve_into(gens, images, tails, report, name, images[name], [])
                except TailError as exc:
                    report.add(name, False, str(exc))

    return TailedModel(gens, images, base, [g.name for g in picked], tails, report)
