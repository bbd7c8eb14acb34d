"""Forest monomials: ordered tensor words of trees, and polarizations.

A forest is a tuple of tree monomials read left to right; its signature
concatenates the component signatures (several outputs, several inputs).
Composition of forests is componentwise grafting times the Koszul
interchange sign: the blocks of the inner forest move left past the later
components of the outer one.  These are the words ⟨h⟩, ⟨f•⟩, ... that the
polarization identities multiply.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, permutations
from math import factorial

from .core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    _combination_terms,
    _graft_word,
    collect_terms,
    exact,
    leaf_suffix_degrees,
)
from .differentials import DerivationDifferential, extend_derivation
from .reports import Report


class ForestMonomial:
    """An ordered tuple of tree monomials over one generator set."""

    __slots__ = ("gens", "components", "outputs", "inputs", "degree", "nvertices", "_key", "_hash")

    def __init__(self, gens: GeneratorSet, components):
        self.gens = gens
        self.components = tuple(components)
        if not self.components:
            raise ValueError("forest needs at least one component")
        self.outputs = tuple(t.signature.output for t in self.components)
        inputs = []
        for t in self.components:
            inputs.extend(t.signature.inputs)
        self.inputs = tuple(inputs)
        self.degree = sum(t.degree for t in self.components)
        self.nvertices = sum(t.nvertices for t in self.components)
        self._key = None
        self._hash = None

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def sort_key(self):
        if self._key is None:
            self._key = (self.nvertices, tuple(t.sort_key[1] for t in self.components))
        return self._key

    def text(self, compact=True) -> str:
        return " (x) ".join(t.compact() if compact else t.canonical() for t in self.components)

    def __eq__(self, other):
        if not isinstance(other, ForestMonomial):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.components)
        return self._hash

    def __repr__(self):
        return f"ForestMonomial({self.text()})"


class ForestElement:
    """Rational combination of forest monomials, homogeneous per component
    shape, with coefficients in the `core.exact` normal form."""

    __slots__ = ("gens", "terms", "outputs", "inputs", "degree")

    def __init__(self, gens, terms, outputs=None, inputs=None, degree=None):
        self.gens = gens
        self.terms = {}
        for mono, coeff in terms.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            if outputs is None:
                outputs, inputs, degree = mono.outputs, mono.inputs, mono.degree
            elif (mono.outputs, mono.inputs, mono.degree) != (outputs, inputs, degree):
                raise ValueError(f"inhomogeneous forest term {mono.text()}")
            self.terms[mono] = coeff
        self.outputs = outputs
        self.inputs = inputs
        self.degree = degree

    @classmethod
    def zero(cls, gens, outputs=None, inputs=None, degree=None):
        return cls(gens, {}, outputs, inputs, degree)

    @classmethod
    def monomial(cls, mono: ForestMonomial, coeff=1):
        return cls(mono.gens, {mono: coeff})

    @classmethod
    def word(cls, gens, trees, coeff=1):
        return cls.monomial(ForestMonomial(gens, trees), coeff)

    @classmethod
    def identity(cls, gens, colors):
        return cls.word(gens, [TreeMonomial.identity(gens, c) for c in colors])

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key)

    def __add__(self, other):
        terms = collect_terms(chain(self.terms.items(), other.terms.items()))
        out_meta = self if self.terms or other.outputs is None else other
        return ForestElement(self.gens, terms, out_meta.outputs, out_meta.inputs, out_meta.degree)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = exact(c)
        return ForestElement(
            self.gens, {m: c * v for m, v in self.terms.items()}, self.outputs, self.inputs, self.degree
        )

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ForestElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            piece = f"{coeff} * {mono.text()}"
            parts.append(piece if not parts else (f"+ {piece}" if coeff > 0 else f"- {-coeff} * {mono.text()}"))
        return " ".join(parts)

    def __repr__(self):
        return f"ForestElement({self.text()})"


def tensor_forests(a: ForestElement, b: ForestElement) -> ForestElement:
    """Juxtaposition a (x) b; bilinear, no sign (plain basis concatenation)."""
    terms = collect_terms(
        (ForestMonomial(a.gens, ma.components + mb.components), ca * cb)
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
    )
    return ForestElement(a.gens, terms)


def _compose_monomials(outer: ForestMonomial, inner: ForestMonomial, suffixes):
    """Oriented composition of two forest monomials; None on color mismatch.

    suffixes[i] holds the `leaf_suffix_degrees` of outer component i."""
    blocks = []
    pos = 0
    for t in outer.components:
        k = t.arity
        blocks.append(inner.components[pos : pos + k])
        pos += k
    if pos != inner.width:
        raise ValueError(f"width mismatch: outer wants {pos} inner components, got {inner.width}")
    # Interchange: inner block i moves left past outer components after i.
    sign = 0
    outer_deg_after = 0
    for i in range(outer.width - 1, -1, -1):
        block_deg = sum(t.degree for t in blocks[i])
        sign += block_deg * outer_deg_after
        outer_deg_after += outer.components[i].degree
    new_components = []
    coeff = -1 if sign % 2 else 1
    for t, block, leaf_suffixes in zip(outer.components, blocks, suffixes):
        tree = _graft_word(t, block)
        if tree is None:
            return None
        if sum(b.degree * s for b, s in zip(block, leaf_suffixes)) % 2:
            coeff = -coeff
        new_components.append(tree)
    return ForestMonomial(outer.gens, new_components), coeff


def compose_forests(outer: ForestElement, inner: ForestElement) -> ForestElement:
    """Bilinear oriented composition; color mismatches contribute zero."""

    def pairs():
        for mo, co in outer.terms.items():
            suffixes = [leaf_suffix_degrees(t.gens, t.shape) for t in mo.components]
            for mi, ci in inner.terms.items():
                res = _compose_monomials(mo, mi, suffixes)
                if res is not None:
                    mono, extra = res
                    yield mono, co * ci * extra

    return ForestElement(outer.gens, collect_terms(pairs()))


def forest_differential(diff: DerivationDifferential, elem: ForestElement) -> ForestElement:
    """Componentwise derivation with the component-prefix Koszul signs.

    D of each distinct component tree is computed once per call."""
    derived = {}

    def derivative(tree):
        dt = derived.get(tree)
        if dt is None:
            dt = derived[tree] = extend_derivation(diff, OperadElement.monomial(tree)).terms
        return dt

    def pairs():
        for mono, coeff in elem.terms.items():
            prefix = 0
            for i, t in enumerate(mono.components):
                sign = -1 if prefix % 2 else 1
                for new_tree, c in derivative(t).items():
                    comps = list(mono.components)
                    comps[i] = new_tree
                    yield ForestMonomial(mono.gens, comps), coeff * c * sign
                prefix += t.degree

    deg = None if elem.degree is None else elem.degree - 1
    return ForestElement(elem.gens, collect_terms(pairs()), elem.outputs, elem.inputs, deg)


def conjugate_forest(elem: ForestElement, perm) -> ForestElement:
    """Permute inputs and outputs simultaneously: component i moves to slot perm[i].

    Carries the Koszul sign of reordering the graded components, e.g.
    (a (x) b) -> (-1)^(|a||b|) (b (x) a) for the transposition.
    """

    def pairs():
        for mono, coeff in elem.terms.items():
            degs = [t.degree for t in mono.components]
            new = [None] * mono.width
            for i, t in enumerate(mono.components):
                new[perm[i]] = t
            sign = 0
            for i in range(mono.width):
                for j in range(i + 1, mono.width):
                    if perm[i] > perm[j]:
                        sign += degs[i] * degs[j]
            yield ForestMonomial(mono.gens, new), coeff * (-1 if sign % 2 else 1)

    return ForestElement(elem.gens, collect_terms(pairs()))


def symmetrize_forest(elem: ForestElement) -> ForestElement:
    """Average over all simultaneous slot permutations (rational coefficients)."""
    if elem.is_zero():
        return elem
    width = next(iter(elem.terms)).width
    # The identity permutation is one of the summands, so a homogeneous
    # average lives in elem's own component.
    terms = collect_terms(
        t for perm in permutations(range(width)) for t in conjugate_forest(elem, perm).terms.items()
    )
    total = ForestElement(elem.gens, terms, elem.outputs, elem.inputs, elem.degree)
    return total.scale(Fraction(1, factorial(width)))


# ---------------------------------------------------------------------------
# Polarizations


def build_dull_operad() -> DerivationDifferential:
    """Two parallel maps with a homotopy: p, q (degree 0) and h (degree 1), d(h) = p - q."""
    gens = GeneratorSet(
        ("B", "W"),
        [
            GeneratorSpec("p", Signature("W", ("B",)), 0),
            GeneratorSpec("q", Signature("W", ("B",)), 0),
            GeneratorSpec("h", Signature("W", ("B",)), 1),
        ],
    )
    p = OperadElement.from_generator(gens, "p")
    q = OperadElement.from_generator(gens, "q")
    return DerivationDifferential(gens, {"h": p - q})


def polarization_ns(gens: GeneratorSet, m: int) -> ForestElement:
    """The staircase word h(x)q..q + p(x)h(x)q..q + ... + p..p(x)h."""
    if m < 1:
        raise ValueError("m must be >= 1")
    pt = TreeMonomial.generator(gens, "p")
    qt = TreeMonomial.generator(gens, "q")
    ht = TreeMonomial.generator(gens, "h")
    words = ([pt] * s + [ht] + [qt] * (m - 1 - s) for s in range(m))
    return ForestElement(gens, collect_terms((ForestMonomial(gens, w), 1) for w in words))


def polarization_sym(gens: GeneratorSet, m: int) -> ForestElement:
    """Symmetrization of the staircase word over simultaneous slot permutations."""
    return symmetrize_forest(polarization_ns(gens, m))


def _iso_chain(gens, top_family, length, degrees):
    """Unary word of `length` letters alternating f/g families from the top,
    with the given even indices (top to bottom)."""
    fam = top_family
    names = []
    for d in degrees:
        names.append(f"{fam}_{d}")
        fam = "g" if fam == "f" else "f"
    shape = gens.spec(names[-1]).signature.inputs[0]
    for name in reversed(names):
        shape = (name, shape)
    return TreeMonomial(gens, shape)


def _even_tuples(length, max_total):
    """All tuples of even nonnegative integers of given length, sum <= max_total."""
    if length == 0:
        yield ()
        return
    for first in range(0, max_total + 1, 2):
        for rest in _even_tuples(length - 1, max_total - first):
            yield (first,) + rest


def polarization_iso_m2(iso: DerivationDifferential, max_degree: int) -> dict:
    """The width-2 integral polarization of the iso resolution, degree by degree.

    Returns {"f": {deg: ForestElement}, "g": ..., "h": ..., "l": ...}:
      <f> = sum_i f.(g.f.)^i (x) f_{2i}         <g> mirrored,
      <h> = h. (x) 1 + sum_{i>=1} (g.f.)^i (x) f_{2i-1}     <l> mirrored,
    truncated to total degree <= max_degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    gens = iso.base if isinstance(iso, DerivationDifferential) else iso
    # kind -> degree -> the words of that component, each with coefficient 1
    words = {k: {} for k in ("f", "g", "h", "l")}

    def put(kind, deg, trees):
        words[kind].setdefault(deg, []).append((ForestMonomial(gens, trees), 1))

    max_index = max(
        (int(g.name.split("_")[1]) for g in gens.generators if g.name.startswith(("f_", "g_"))),
        default=-1,
    )
    if max_index < max_degree:
        raise ValueError(
            f"iso resolution truncated at index {max_index}, below requested degree {max_degree}"
        )

    # Every index below is at most max_degree <= max_index, so every
    # generator named exists.
    for kind in ("f", "g"):
        i = 0
        while 2 * i <= max_degree:
            length = 2 * i + 1
            for degs in _even_tuples(length, max_degree - 2 * i):
                letters = _iso_chain(gens, kind, length, degs)
                pair = TreeMonomial.generator(gens, f"{kind}_{2 * i}")
                total = sum(degs) + 2 * i
                put(kind, total, [letters, pair])
            i += 1

    for kind, fam, other in (("h", "f", "g"), ("l", "g", "f")):
        home = "B" if kind == "h" else "W"
        # leading term: odd-index letters tensor the identity strand
        for k in range(1, max_degree + 1, 2):
            letter = TreeMonomial.generator(gens, f"{fam}_{k}")
            unit = TreeMonomial.identity(gens, home)
            put(kind, k, [letter, unit])
        i = 1
        while 2 * i - 1 <= max_degree:
            length = 2 * i
            for degs in _even_tuples(length, max_degree - (2 * i - 1)):
                letters = _iso_chain(gens, other, length, degs)
                pair = TreeMonomial.generator(gens, f"{fam}_{2 * i - 1}")
                total = sum(degs) + 2 * i - 1
                put(kind, total, [letters, pair])
            i += 1
    return {
        kind: {deg: ForestElement(gens, collect_terms(pairs)) for deg, pairs in table.items()}
        for kind, table in words.items()
    }


def _component(fam_table, deg, gens):
    return fam_table.get(deg, ForestElement.zero(gens))


def verify_polarization(fams: dict, max_degree: int, iso: DerivationDifferential) -> Report:
    """Check the four coupled differential equations and the degree-0 condition.

    The equations are checked degree by degree: the d of the (t+1)-component
    against the degree-t part of the quadratic right-hand side, for t up to
    max_degree - 1 (the d side needs one degree of headroom).
    """
    gens = iso.base
    report = Report(f"polarization identities through degree {max_degree}")

    f0 = TreeMonomial.generator(gens, "f_0")
    g0 = TreeMonomial.generator(gens, "g_0")
    cond_f = _component(fams["f"], 0, gens) == ForestElement.word(gens, [f0, f0])
    cond_g = _component(fams["g"], 0, gens) == ForestElement.word(gens, [g0, g0])
    report.add("degree-0 parts are f_0^(x)2 and g_0^(x)2", cond_f and cond_g)

    unit_b = ForestElement.identity(gens, ("B", "B"))
    unit_w = ForestElement.identity(gens, ("W", "W"))
    rhs_specs = {
        "f": (("f", "h", 1), ("l", "f", -1), None),
        "h": (("g", "f", 1), ("h", "h", -1), unit_b),
        "g": (("g", "l", 1), ("h", "g", -1), None),
        "l": (("f", "g", 1), ("l", "l", -1), unit_w),
    }
    for kind, (term1, term2, unit) in rhs_specs.items():
        for t in range(0, max_degree):
            lhs = forest_differential(iso, _component(fams[kind], t + 1, gens))
            # (sign, forest) summands of the right-hand side
            rhs = [
                (sgn, compose_forests(_component(fams[left], a, gens), _component(fams[right], t - a, gens)))
                for a in range(0, t + 1)
                for left, right, sgn in (term1, term2)
            ]
            if unit is not None and t == 0:
                rhs.append((-1, unit))
            residual = lhs - ForestElement(gens, collect_terms(_combination_terms(rhs)))
            ok = residual.is_zero()
            report.add(
                f"d<{kind}.> equation, degree {t}",
                ok,
                "" if ok else f"residual {residual.text()}",
            )
    return report
