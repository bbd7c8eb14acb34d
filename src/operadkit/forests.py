"""Forest monomials: ordered tensor words of trees, and polarizations.

A forest is a tuple of tree monomials read left to right; its signature
is the tuple of its components' (output, inputs) pairs.  A forest element
is a `core.OperadElement` over forest monomials: it has the same
constructor, coefficient normal form and arithmetic, so it too lies in one
component, a zero included, and differs only in its display order
(smallest forest first).  Composition and conjugation compute the
component of their result from their operands.  Composition of forests
is componentwise grafting times the Koszul interchange sign: the blocks of
the inner forest move left past the later components of the outer one.
These are the words ⟨h⟩, ⟨f•⟩, ... that the polarization identities
multiply.

Composition and the differential merge terms by the tuple of component
shapes, and build a forest, validating each distinct tree once, only for a
sum that survives.  `verify_polarization` adds each equation's lhs - rhs
into one such map, so a passing check builds no forest.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, permutations
from math import factorial

from .core import (
    GeneratorSet,
    OperadElement,
    TreeMonomial,
    _checked_over,
    _plug,
    collect_terms,
    leaf_suffix_degrees,
)
from .differentials import DerivationDifferential, leibniz_shapes
from .reports import Report


class ForestMonomial:
    """An ordered tuple of tree monomials over one generator set.

    Its `signature` is the tuple of the components' (output, inputs) pairs,
    and its degree is the sum of the component degrees."""

    __slots__ = ("gens", "components", "signature", "degree", "_key", "_hash")

    def __init__(self, gens: GeneratorSet, components):
        self.gens = gens
        self.components = tuple(components)
        if not self.components:
            raise ValueError("forest needs at least one component")
        self.signature = tuple((t.signature.output, t.signature.inputs) for t in self.components)
        self.degree = sum(t.degree for t in self.components)
        self._key = None
        self._hash = None

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def sort_key(self):
        if self._key is None:
            keys = [t.sort_key for t in self.components]
            self._key = (sum(k[0] for k in keys), tuple(k[1] for k in keys))
        return self._key

    def compact(self) -> str:
        return " (x) ".join(t.compact() for t in self.components)

    def __eq__(self, other):
        if not isinstance(other, ForestMonomial):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.components)
        return self._hash

    def __repr__(self):
        return f"ForestMonomial({self.compact()})"


class ForestElement(OperadElement):
    """A rational combination of forest monomials: an `OperadElement` whose
    monomials are forests.  Only the display order differs: smallest
    forest first."""

    __slots__ = ()

    @classmethod
    def word(cls, gens, trees):
        return cls.monomial(ForestMonomial(gens, trees))

    def items(self):
        """Term pairs in the fixed display order (smallest forests first)."""
        return sorted(self.terms.items(), key=lambda mc: mc[0].sort_key)


def _composed_signature(outer, inner):
    """Each outer component's output over the inputs of its inner block."""
    out = []
    pos = 0
    for output, inputs in outer:
        block = inner[pos : pos + len(inputs)]
        pos += len(inputs)
        out.append((output, tuple(chain.from_iterable(ins for _, ins in block))))
    if pos != len(inner):
        raise ValueError(f"width mismatch: outer wants {pos} inner components, got {len(inner)}")
    return tuple(out)


def _product_terms(outer: ForestElement, inner: ForestElement, suffixes: dict):
    """The (component shapes, coeff) terms of the oriented composite of two
    forest elements; none on a colour or width mismatch.  `suffixes` caches
    the `leaf_suffix_degrees` of each outer tree shape.
    The colours are matched once, on the two signatures, which every
    monomial shares.  Each inner component moves left past the outer
    components after its block (interchange) and the vertices after its
    leaf in its outer tree (orientation), at the sign of its degree times
    theirs."""
    if tuple(o for o, _ in inner.signature) != tuple(chain.from_iterable(i for _, i in outer.signature)):
        return
    gens = outer.gens
    inners = []
    for mono, coeff in inner.terms.items():
        trees = [_checked_over(gens, t) for t in mono.components]
        inners.append(([t.shape for t in trees], [t.degree for t in trees], coeff))
    for mono, coeff in outer.terms.items():
        passed = []  # per inner component, in order: the parity of the degrees it passes
        after = mono.degree
        for t in mono.components:
            after -= t.degree
            leaf_suffixes = suffixes.get(t.shape)
            if leaf_suffixes is None:
                leaf_suffixes = suffixes[t.shape] = leaf_suffix_degrees(gens, t.shape)
            passed += [(after + s) % 2 for s in leaf_suffixes]
        for shapes, degrees, c in inners:
            sign = sum(d for d, odd in zip(degrees, passed) if odd)
            pieces = iter(shapes)  # each outer tree takes its block in turn
            c = coeff * c
            yield tuple(_plug(t.shape, pieces) for t in mono.components), (-c if sign % 2 else c)


def _forest_of_shapes(gens, shape_terms: dict, signature, degree) -> ForestElement:
    """The forest element with the (component shapes) -> coeff map
    `shape_terms`.  A forest is built only for a nonzero coefficient, and
    each distinct tree in them is validated once."""
    trees = dict.fromkeys(s for shapes, c in shape_terms.items() if c for s in shapes)
    trees = {s: TreeMonomial(gens, s) for s in trees}
    terms = {ForestMonomial(gens, [trees[s] for s in shapes]): c for shapes, c in shape_terms.items() if c}
    return ForestElement(gens, terms, signature, degree)


def compose_forests(outer: ForestElement, inner: ForestElement) -> ForestElement:
    """Bilinear oriented composition; color mismatches contribute zero."""
    sig = _composed_signature(outer.signature, inner.signature)
    terms = collect_terms(_product_terms(outer, inner, {}))
    return _forest_of_shapes(outer.gens, terms, sig, outer.degree + inner.degree)


def _derivative_terms(diff: DerivationDifferential, elem: ForestElement, derived: dict):
    """The (component shapes, coeff) terms of the componentwise derivative
    of `elem`, with the component-prefix Koszul signs.  `derived` caches the
    nonzero terms of D of each tree: each is derived once by `leibniz_shapes`."""
    for mono, coeff in elem.terms.items():
        shapes = tuple(t.shape for t in mono.components)
        prefix = 0
        for i, t in enumerate(mono.components):
            dt = derived.get(t)
            if dt is None:
                dt = derived[t] = [(s, c) for s, c in leibniz_shapes(diff, ((t, 1),)).items() if c]
            sign = -1 if prefix % 2 else 1
            for new, c in dt:
                yield shapes[:i] + (new,) + shapes[i + 1 :], coeff * c * sign
            prefix += t.degree


def forest_differential(diff: DerivationDifferential, elem: ForestElement) -> ForestElement:
    """Componentwise derivation with the component-prefix Koszul signs.

    D of each distinct component tree is computed once per call."""
    terms = collect_terms(_derivative_terms(diff, elem, {}))
    return _forest_of_shapes(elem.gens, terms, elem.signature, elem.degree - 1)


def conjugate_forest(elem: ForestElement, perm) -> ForestElement:
    """Permute inputs and outputs simultaneously: component i moves to slot perm[i].

    Carries the Koszul sign of reordering the graded components, e.g.
    (a (x) b) -> (-1)^(|a||b|) (b (x) a) for the transposition.
    """

    order = [perm.index(j) for j in range(len(perm))]  # the component that moves to slot j

    def pairs():
        for mono, coeff in elem.terms.items():
            degs = [t.degree for t in mono.components]
            sign = 0
            for i in range(mono.width):
                for j in range(i + 1, mono.width):
                    if perm[i] > perm[j]:
                        sign += degs[i] * degs[j]
            new = [mono.components[i] for i in order]
            yield ForestMonomial(mono.gens, new), coeff * (-1 if sign % 2 else 1)

    sig = tuple(elem.signature[i] for i in order)
    return ForestElement(elem.gens, collect_terms(pairs()), sig, elem.degree)


def symmetrize_forest(elem: ForestElement) -> ForestElement:
    """Average over all simultaneous slot permutations (rational coefficients)."""
    width = len(elem.signature)
    # The identity permutation is one of the summands, so a homogeneous
    # average lives in elem's own component.
    terms = collect_terms(
        t for perm in permutations(range(width)) for t in conjugate_forest(elem, perm).terms.items()
    )
    total = ForestElement(elem.gens, terms, elem.signature, elem.degree)
    return total.scale(Fraction(1, factorial(width)))


# ---------------------------------------------------------------------------
# Polarizations


def polarization_ns(gens: GeneratorSet, m: int) -> ForestElement:
    """The staircase word h(x)q..q + p(x)h(x)q..q + ... + p..p(x)h."""
    if m < 1:
        raise ValueError("m must be >= 1")
    pt = TreeMonomial.generator(gens, "p")
    qt = TreeMonomial.generator(gens, "q")
    ht = TreeMonomial.generator(gens, "h")
    words = [ForestMonomial(gens, [pt] * s + [ht] + [qt] * (m - 1 - s)) for s in range(m)]
    return ForestElement(gens, collect_terms((w, 1) for w in words), words[0].signature, words[0].degree)


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


# The component of each width-2 polarization kind: <f> and <g> map B to W
# and back, <h> and <l> are endomorphisms of B and of W.
_KIND_SIGNATURES = {
    "f": (("W", ("B",)),) * 2,
    "g": (("B", ("W",)),) * 2,
    "h": (("B", ("B",)),) * 2,
    "l": (("W", ("W",)),) * 2,
}


def polarization_iso_m2(gens: GeneratorSet, max_degree: int) -> dict:
    """The width-2 integral polarization of the iso resolution, degree by degree.

    `gens` holds the iso generators f_k, g_k (and may hold more).

    Returns {"f": {deg: ForestElement}, "g": ..., "h": ..., "l": ...}:
      <f> = sum_i f.(g.f.)^i (x) f_{2i}         <g> mirrored,
      <h> = h. (x) 1 + sum_{i>=1} (g.f.)^i (x) f_{2i-1}     <l> mirrored,
    truncated to total degree <= max_degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    # kind -> degree -> the words of that component, each with coefficient 1
    words = {k: {} for k in ("f", "g", "h", "l")}

    def put(kind, deg, trees):
        words[kind].setdefault(deg, []).append((ForestMonomial(gens, trees), 1))

    for k in range(max_degree + 1):
        if f"f_{k}" not in gens or f"g_{k}" not in gens:
            raise ValueError(f"iso resolution truncated at index {k - 1}, below requested degree {max_degree}")

    # Every index below is at most max_degree, so every generator named exists.
    # The leading terms of <h> and <l>: odd-index letters tensor the identity strand.
    for kind, fam, home in (("h", "f", "B"), ("l", "g", "W")):
        unit = TreeMonomial.identity(gens, home)
        for k in range(1, max_degree + 1, 2):
            put(kind, k, [TreeMonomial.generator(gens, f"{fam}_{k}"), unit])
    # Every other word: a chain of j + 1 letters from `top` down, tensor fam_j.
    for kind, top, fam, first in (("f", "f", "f", 0), ("g", "g", "g", 0), ("h", "g", "f", 1), ("l", "f", "g", 1)):
        for j in range(first, max_degree + 1, 2):
            pair = TreeMonomial.generator(gens, f"{fam}_{j}")
            for degs in _even_tuples(j + 1, max_degree - j):
                put(kind, sum(degs) + j, [_iso_chain(gens, top, j + 1, degs), pair])
    return {
        kind: {d: ForestElement(gens, collect_terms(p), _KIND_SIGNATURES[kind], d) for d, p in table.items()}
        for kind, table in words.items()
    }


def verify_polarization(fams: dict, max_degree: int, iso: DerivationDifferential) -> Report:
    """Check the four coupled differential equations and the degree-0 condition.

    The equations are checked degree by degree: the d of the (t+1)-component
    against the degree-t part of the quadratic right-hand side, for t up to
    max_degree - 1 (the d side needs one degree of headroom), each as one
    map of lhs - rhs, with a residual forest built only where a sum survives.
    """
    gens = iso.base
    report = Report(f"polarization identities through degree {max_degree}")

    def shape_terms(elem):
        return {} if elem is None else {tuple(t.shape for t in m.components): c for m, c in elem.terms.items()}

    f0, g0 = (("f_0", *gens.spec("f_0").signature.inputs), ("g_0", *gens.spec("g_0").signature.inputs))
    cond_f = shape_terms(fams["f"].get(0)) == {(f0, f0): 1}
    cond_g = shape_terms(fams["g"].get(0)) == {(g0, g0): 1}
    report.add("degree-0 parts are f_0^(x)2 and g_0^(x)2", cond_f and cond_g)

    # kind: the two (left, right, sign) products of the right-hand side, and
    # the identity forest it subtracts in degree 0 (a bare strand's shape is its colour)
    rhs_specs = {
        "f": (("f", "h", 1), ("l", "f", -1), None),
        "h": (("g", "f", 1), ("h", "h", -1), ("B", "B")),
        "g": (("g", "l", 1), ("h", "g", -1), None),
        "l": (("f", "g", 1), ("l", "l", -1), ("W", "W")),
    }
    derived, suffixes = {}, {}

    def residual_terms(kind, t):  # the (component shapes, coeff) terms of lhs - rhs
        top = fams[kind].get(t + 1)
        if top is not None:
            yield from _derivative_terms(iso, top, derived)
        term1, term2, unit = rhs_specs[kind]
        for a in range(0, t + 1):
            for left, right, sgn in (term1, term2):
                x, y = fams[left].get(a), fams[right].get(t - a)
                if x is not None and y is not None:
                    for shapes, c in _product_terms(x, y, suffixes):
                        yield shapes, -sgn * c
        if unit is not None and t == 0:
            yield unit, 1

    for kind in rhs_specs:
        for t in range(0, max_degree):
            terms = collect_terms(residual_terms(kind, t))
            ok = not any(terms.values())
            residual = "" if ok else _forest_of_shapes(gens, terms, _KIND_SIGNATURES[kind], t).text()
            report.add(f"d<{kind}.> equation, degree {t}", ok, f"residual {residual}" if residual else "")
    return report
