"""Free colored non-symmetric operads on explicit tree monomials.

Basis elements are planar rooted trees whose internal vertices carry named
generators and whose edges carry colors; composition is grafting, subject to
the color-matching rule (a graft with mismatched colors is zero, not an
error).  Everything is exact over the rationals and immutable, and grafting
of monomials always has coefficient +1: Koszul signs live entirely in the
derivation calculus and in evaluation on chain complexes.

Coefficients have one normal form, set by `exact`: a Python int when the
value is integral, and a Fraction otherwise.  Element constructors store
only that form, so almost all arithmetic in the models is on small ints.
Ints, rationals and exact strings ("3", "-1/2", "0.25") are accepted; a
float is rejected with TypeError, since it is already rounded.

A tree with zero vertices (a bare strand) is the operadic identity 1_c of
its color; it is a legitimate monomial and shows up, for instance, as the
constant term of differentials like d(f_1) = g_0 f_0 - 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import inf, prod
from numbers import Integral, Rational


class UnboundedEnumerationError(ValueError):
    """The generator set has infinite basis components: a unary generator of
    negative degree, or degree-0 unary generators that form a cycle."""


@dataclass(frozen=True)
class Signature:
    """Output color plus the ordered input colors of an operation."""

    output: str
    inputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) < 1:
            raise ValueError("arity must be >= 1")

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def __str__(self):
        return f"({self.output}; {','.join(self.inputs)})"


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    signature: Signature
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "degree", integer(self.degree))


class GeneratorSet:
    """A declared color set together with named generators."""

    def __init__(self, colors, generators):
        self.colors = tuple(colors)
        self._specs = {}
        self._by_output = {c: [] for c in self.colors}
        for g in generators:
            if g.name in self._specs:
                raise ValueError(f"duplicate generator name {g.name!r}")
            if g.signature.output not in self._by_output:
                raise ValueError(f"undeclared color {g.signature.output!r} in {g.name}")
            for c in g.signature.inputs:
                if c not in self._by_output:
                    raise ValueError(f"undeclared color {c!r} in {g.name}")
            self._specs[g.name] = g
            self._by_output[g.signature.output].append(g)

    @property
    def generators(self):
        return list(self._specs.values())

    def spec(self, name: str) -> GeneratorSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def __contains__(self, name):
        return name in self._specs

    def by_output(self, color):
        return self._by_output.get(color, [])


# A tree shape is a nested structure: a leaf is its color (a str), an
# internal vertex is a tuple (generator_name, child, ..., child).


def _shape_walk(shape, path=()):
    """Yield (path, generator_name, children) for vertices in planar preorder."""
    if isinstance(shape, str):
        return
    name = shape[0]
    children = shape[1:]
    yield path, name, children
    for i, child in enumerate(children):
        yield from _shape_walk(child, path + (i,))


def _plug(shape, pieces):
    """`shape` with its leaves, in planar order, replaced by the next items
    of the iterator `pieces`."""
    if shape.__class__ is str:
        return next(pieces)
    out = [shape[0]]
    for c in shape[1:]:  # a loop, not a comprehension: no extra frame per vertex
        out.append(next(pieces) if c.__class__ is str else _plug(c, pieces))
    return tuple(out)


def _shape_nvertices(shape) -> int:
    if shape.__class__ is str:
        return 0
    n = 1
    for c in shape[1:]:
        if c.__class__ is not str:
            n += _shape_nvertices(c)
    return n


class TreeMonomial:
    """A planar rooted tree with generator-labeled vertices and colored edges.

    The constructor validates the color rule (each child subtree's output
    color equals the matching input color of its parent's generator) and
    caches signature and degree.  It is the trust boundary: renaming, the
    trees of forests and a monomial from another generator set all go
    through it.  The text form is `compact()`.  Trees that
    grafting and the Leibniz rule assemble from already-validated monomials
    of the same generator set skip it: they take their invariants from those
    parts through `_assembled`, and so do the shapes of `enumerate_basis`,
    which follow the colour rule by construction, and the one-vertex trees
    of `generator`, which take them from the spec that `GeneratorSet`
    validated.  Only this module calls `_assembled`; other modules
    assemble through `_element_of_shapes`.  The vertex count is read off
    the shape with the sort key, on first use.
    """

    __slots__ = ("gens", "shape", "signature", "degree", "_key")

    def __init__(self, gens: GeneratorSet, shape):
        out, leaves, degree = _validate_shape(gens, shape)
        self.gens = gens
        self.shape = shape
        self.signature = Signature(out, tuple(leaves))
        self.degree = degree
        self._key = None

    @classmethod
    def _assembled(cls, gens, shape, signature, degree) -> "TreeMonomial":
        """A tree built from validated parts, with the invariants the caller
        computed from them.  Nothing is checked here."""
        self = object.__new__(cls)
        self.gens = gens
        self.shape = shape
        self.signature = signature
        self.degree = degree
        self._key = None
        return self

    @classmethod
    def identity(cls, gens: GeneratorSet, color: str) -> "TreeMonomial":
        return cls(gens, color)

    @classmethod
    def generator(cls, gens: GeneratorSet, name: str) -> "TreeMonomial":
        spec = gens.spec(name)
        return cls._assembled(gens, (name, *spec.signature.inputs), spec.signature, spec.degree)

    @property
    def arity(self) -> int:
        return self.signature.arity

    def vertex_names(self):
        return [name for _, name, _ in _shape_walk(self.shape)]

    @property
    def sort_key(self):
        if self._key is None:
            self._key = (_shape_nvertices(self.shape), _render(self.shape, [1]))
        return self._key

    @property
    def nvertices(self) -> int:
        return self.sort_key[0]

    def compact(self) -> str:
        """The text form: `gen(child, ...)`, leaves `@i:Color`, a vertex over
        leaves alone by its name.  It determines the tree over one generator
        set.  It is output only; files are JSON, through `serialize`."""
        return _render_compact(self.shape, [1])

    def __eq__(self, other):
        if not isinstance(other, TreeMonomial):
            return NotImplemented
        return self.shape == other.shape and self.signature == other.signature

    def __hash__(self):
        # Equal monomials have equal shapes, and hashing the shape alone
        # skips the dataclass hash of the signature.
        return hash(self.shape)

    def __repr__(self):
        return f"TreeMonomial({self.compact()})"


def _validate_shape(gens, shape):
    if isinstance(shape, str):
        if shape not in gens.colors:
            raise ValueError(f"undeclared color {shape!r}")
        return shape, [shape], 0
    name = shape[0]
    spec = gens.spec(name)
    children = shape[1:]
    if len(children) != spec.signature.arity:
        raise ValueError(f"{name} has arity {spec.signature.arity}, got {len(children)} children")
    leaves = []
    degree = spec.degree
    for child, want in zip(children, spec.signature.inputs):
        out, sub_leaves, d = _validate_shape(gens, child)
        if out != want:
            raise ValueError(f"color mismatch under {name}: {out} into a {want} slot")
        leaves.extend(sub_leaves)
        degree += d
    return spec.signature.output, leaves, degree


def leaf_suffix_degrees(gens, shape):
    """For each leaf (planar order), the total degree of the vertices that
    come after it in the preorder of `shape`.

    These are the orientation weights: moving a graded block past those
    vertices to restore preorder costs the corresponding Koszul sign.
    """
    events = []

    def walk(s):
        if isinstance(s, str):
            events.append((True, 0))
            return
        events.append((False, gens.spec(s[0]).degree))
        for c in s[1:]:
            walk(c)

    walk(shape)
    suffix = 0
    out = []
    for is_leaf, d in reversed(events):
        if is_leaf:
            out.append(suffix)
        else:
            suffix += d
    out.reverse()
    return out


def _render(shape, counter):
    """The sort key's text of `shape`, leaves `~i:Color`: another mark would reorder bases."""
    if isinstance(shape, str):
        s = f"~{counter[0]}:{shape}"
        counter[0] += 1
        return s
    parts = [_render(c, counter) for c in shape[1:]]
    return f"{shape[0]}({','.join(parts)})"


def _render_compact(shape, counter):
    if isinstance(shape, str):
        s = f"@{counter[0]}:{shape}"
        counter[0] += 1
        return s
    if all(isinstance(c, str) for c in shape[1:]):
        counter[0] += len(shape) - 1
        return shape[0]
    parts = [_render_compact(c, counter) for c in shape[1:]]
    return f"{shape[0]}({', '.join(parts)})"


# The strings `exact` reads: "p/q" or a plain decimal, with an optional sign.
# Fraction alone would also read exponents ("1e400000000", whose digits it
# would expand) and underscores.
_EXACT_STRING = re.compile(r"[-+]?(?:[0-9]+/[0-9]+|[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")


def exact(c, what="coefficient"):
    """`c` in the coefficient normal form: an int when it is integral, else
    a Fraction.

    Accepts ints, rationals and exact strings: "p/q" or a plain decimal
    ("3", "-1/2", "0.25").  A float, or any other number that is not a
    rational, raises TypeError that calls `c` an inexact `what`; a string
    of another form (an exponent, an underscore) or with a zero denominator
    ("1/0") raises ValueError.
    """
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        if isinstance(c, str):
            if not _EXACT_STRING.fullmatch(c):
                raise ValueError(f"{c!r} is not an exact number: write 'p/q' or a plain decimal")
            try:
                c = Fraction(c)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {c!r}") from None
        elif isinstance(c, Rational):
            c = Fraction(int(c.numerator), int(c.denominator))
        else:
            raise TypeError(f"inexact {what} {c!r}: give an int, a Fraction or a 'p/q' string")
    return c.numerator if c.denominator == 1 else c


def integer(x) -> int:
    """The value of an integer field: a degree, a dimension, an arity.

    A string is parsed ("3"), as JSON keys are.  A float, a Fraction or a
    bool raises TypeError instead of being truncated or read as 0 or 1.
    """
    if x.__class__ is int:
        return x
    if isinstance(x, str):
        return int(x)
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def collect_terms(pairs) -> dict:
    """Merge (key, coeff) pairs into one term map.

    A key is a monomial, or a bare tree shape when every term lies in one
    known component (see `_element_of_shapes`).  The first occurrence of a
    key is stored as given and fixes its position; the coefficients of later
    occurrences are added to it.  Sums that cancel stay in the map as zeros,
    which the element constructors drop.
    """
    terms = {}
    for mono, coeff in pairs:
        old = terms.get(mono)
        terms[mono] = coeff if old is None else old + coeff
    return terms


class OperadElement:
    """A finite rational linear combination of tree monomials.

    Every element, a zero too, lies in one component: the `signature` and
    `degree` given to the constructor, which every stored monomial must
    share.  Adding elements of two different components raises ValueError.
    Coefficients are stored in the `exact` normal form and zero
    coefficients are never stored, and two elements are equal iff their term
    maps are equal (every zero element equals every other).

    The arithmetic reads only a monomial's `signature`, `degree`,
    `sort_key` and `compact()`, so `forests.ForestElement` reuses it over
    forest monomials.  Elements of two different classes never add and
    never compare equal.
    """

    __slots__ = ("gens", "signature", "degree", "terms")

    def __init__(self, gens, terms, signature, degree):
        self.gens = gens
        self.terms = {}
        for mono, coeff in terms.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            if mono.signature != signature or mono.degree != degree:
                raise ValueError(
                    f"inhomogeneous element: {_placed(mono)} is not in component {signature}, degree {degree}"
                )
            self.terms[mono] = coeff
        self.signature = signature
        self.degree = degree

    @classmethod
    def zero(cls, gens, signature, degree):
        return cls(gens, {}, signature, degree)

    @classmethod
    def monomial(cls, mono: TreeMonomial):
        return cls(mono.gens, {mono: 1}, mono.signature, mono.degree)

    @classmethod
    def from_generator(cls, gens, name):
        return cls.monomial(TreeMonomial.generator(gens, name))

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Term pairs in the fixed display order (largest trees first)."""
        return sorted(self.terms.items(), key=lambda mc: (-mc[0].nvertices, mc[0].sort_key[1]))

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.signature != other.signature or self.degree != other.degree:
            raise ValueError("cannot add elements from different components")
        terms = collect_terms(chain(self.terms.items(), other.terms.items()))
        return self.__class__(self.gens, terms, self.signature, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "OperadElement":
        c = exact(c)
        return self.__class__(self.gens, {m: c * v for m, v in self.terms.items()}, self.signature, self.degree)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{self.__class__.__name__}({self.text()})"

    def text(self) -> str:
        """Render as `coeff * monomial +- ...` in display order, monomials `compact()`."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            body = mono.compact()
            if not parts:
                parts.append(f"{coeff} * {body}")
            elif coeff > 0:
                parts.append(f"+ {coeff} * {body}")
            else:
                parts.append(f"- {-coeff} * {body}")
        return " ".join(parts)


def graft(outer: TreeMonomial, slot: int, inner: TreeMonomial) -> OperadElement:
    """Graft `inner` into leaf `slot` of `outer` (1-based planar position).

    Color mismatch gives the zero element, matching the colored-composition
    convention; an out-of-range slot is an error.
    """
    if not 1 <= slot <= outer.arity:
        raise ValueError(f"slot {slot} out of range 1..{outer.arity}")
    units = [OperadElement.monomial(TreeMonomial.identity(outer.gens, c)) for c in outer.signature.inputs]
    return compose_full(outer, units[: slot - 1] + [OperadElement.monomial(inner)] + units[slot:])


def _checked_over(gens: GeneratorSet, mono: TreeMonomial) -> TreeMonomial:
    """`mono` as a monomial over `gens`, ready for trusted assembly.

    A monomial validated over `gens` itself is returned as is.  One from any
    other generator set, even a look-alike with the same names, has its
    shape validated over `gens` and must keep its signature and degree.
    """
    if mono.gens is gens:
        return mono
    checked = TreeMonomial(gens, mono.shape)
    if (checked.signature, checked.degree) != (mono.signature, mono.degree):
        raise ValueError(f"{_placed(mono)} changes signature or degree over the target generators")
    return checked


def _placed(mono) -> str:  # the subject of an error message about `mono`'s component
    return f"{mono.compact()} in component {mono.signature}, degree {mono.degree}"


def _element_of_shapes(gens, shape_terms: dict, signature, degree) -> OperadElement:
    """The element with the shape -> coeff map `shape_terms`, in the
    component (signature, degree).

    A tree is assembled only for a nonzero coefficient, so sums that cancel
    cost no monomial.  Every shape must be a graft or splice of monomials
    validated over `gens` that lies in that component; nothing is checked.
    """
    terms = {
        TreeMonomial._assembled(gens, shape, signature, degree): c
        for shape, c in shape_terms.items()
        if c
    }
    return OperadElement(gens, terms, signature=signature, degree=degree)


def compose_full(outer: TreeMonomial, inners) -> OperadElement:
    """Multilinear simultaneous grafting into all slots of `outer`.

    `inners` holds one homogeneous OperadElement per slot; identity-strand
    monomials act as units (grafting one leaves the slot untouched).  Equals
    iterated graft in any order; no Koszul signs at the monomial level.
    """
    inners = list(inners)
    if len(inners) != outer.arity:
        raise ValueError(f"expected {outer.arity} arguments, got {len(inners)}")
    # every inner, a zero too, lies in one component, so the composite has one
    sig = Signature(outer.signature.output, tuple(chain.from_iterable(e.signature.inputs for e in inners)))
    degree = outer.degree + sum(e.degree for e in inners)
    if any(e.signature.output != c or e.is_zero() for c, e in zip(outer.signature.inputs, inners)):
        return OperadElement.zero(outer.gens, sig, degree)

    gens = outer.gens
    slots = ([(_checked_over(gens, m).shape, c) for m, c in e.terms.items()] for e in inners)
    terms = collect_terms(
        (_plug(outer.shape, (s for s, _ in combo)), prod(c for _, c in combo)) for combo in product(*slots)
    )
    return _element_of_shapes(gens, terms, sig, degree)


# ---------------------------------------------------------------------------
# Basis enumeration


def _weight_shift(gens: GeneratorSet) -> int:
    """The least s >= 0 that makes every generator of arity >= 2 weigh
    degree + s * (arity - 1) >= 0.  Raises UnboundedEnumerationError, naming
    the case, for the generator sets that `enumerate_basis` rejects."""
    shift = 0
    edges = {}  # the colour graph of the degree-0 unary generators
    for g in gens.generators:
        arity = g.signature.arity
        if arity > 1:
            shift = max(shift, -(g.degree // (arity - 1)))
        elif g.degree < 0:
            raise UnboundedEnumerationError(
                f"unary generator {g.name} has negative degree {g.degree}: components holding it may be infinite"
            )
        elif g.degree == 0:
            edges.setdefault(g.signature.inputs[0], set()).add(g.signature.output)
    while edges:  # drop the colours whose edges all lead out of the graph
        leaving = [c for c, outputs in edges.items() if not outputs & edges.keys()]
        if not leaving:
            raise UnboundedEnumerationError(
                "degree-0 unary generators form a cycle of colours: their words make components infinite"
            )
        for c in leaving:
            del edges[c]
    return shift


def enumerate_basis(gens: GeneratorSet, signature: Signature, degree: int, ideal=None):
    """All tree monomials in one (signature, degree) component, in canonical order.

    The order is (vertex count, serialization) ascending and is stable
    across runs.  Every component is finite, and listed whole, unless a
    unary generator has negative degree or the degree-0 unary generators
    form a cycle of colours (as in the iso resolution); then
    UnboundedEnumerationError is raised, for any component.

    With `ideal`, a collection of generator names, only the monomials with
    a vertex named in it are listed (the component's part of the ideal),
    in the same relative order; the others are dropped as shapes, before
    any monomial is built.  An entry that is not a generator raises
    ValueError.
    """
    ideal = None if ideal is None else _ideal_names(gens, ideal)
    shift = _weight_shift(gens)
    leaves = tuple(signature.inputs)
    shapes = _BasisEnumerator(gens, shift).shapes(signature.output, leaves, degree + shift * (len(leaves) - 1))
    if ideal is not None:
        shapes = [s for s in shapes if _mentions(s, ideal)]
    # The enumerator follows the colour rule by construction, and every
    # shape lies in the requested component.
    monos = [TreeMonomial._assembled(gens, s, signature, degree) for s in shapes]
    monos.sort(key=lambda t: t.sort_key)
    return monos


def _ideal_names(gens: GeneratorSet, ideal) -> frozenset:
    """`ideal` as a set of names of generators of `gens`, or ValueError."""
    ideal = frozenset(ideal)
    unknown = sorted(name for name in ideal if name not in gens)
    if unknown:
        raise ValueError(f"ideal entries {unknown} are not generators of the ambient set")
    return ideal


def _mentions(shape, names) -> bool:
    """Whether a vertex of `shape` carries one of `names`."""
    if shape.__class__ is str:
        return False
    if shape[0] in names:
        return True
    for c in shape[1:]:
        if c.__class__ is not str and _mentions(c, names):
            return True
    return False


class _BasisEnumerator:
    """The tree shapes over one generator set by output colour, leaf colours
    and weight, each list built once.

    A generator of arity k and degree d weighs d + shift * (k - 1), and a
    tree weighs the sum over its vertices, which is its degree plus
    shift * (leaves - 1).  With the shift of `_weight_shift` no generator
    weighs less than 0, so no subtree weighs more than its tree.  A split
    of the leaves, or a head weight, whose parts cannot weigh as much as
    the weight still needed (by `most`) is skipped before any list is built.
    """

    def __init__(self, gens: GeneratorSet, shift: int):
        self.by_output = {
            c: [(g.name, g.signature.inputs, g.degree + shift * (g.signature.arity - 1)) for g in gens.by_output(c)]
            for c in gens.colors
        }
        self._most = {}
        self._shapes = {}
        self._combos = {}

    def most(self, colors, n):
        """An upper bound on the weight of a row of shapes with output colours
        `colors` and `n` leaves in all: inf where positive-weight unary
        generators chain without end, and 0 where no such row exists."""
        key = (colors, n)
        out = self._most.get(key)
        if out is None:
            self._most[key] = inf  # read back only along a cycle of unary generators
            if len(colors) > 1:
                parts = (self.most(colors[:1], m) + self.most(colors[1:], n - m) for m in range(1, n - len(colors) + 2))
            else:
                parts = (w + self.most(inputs, n) for _, inputs, w in self.by_output[colors[0]] if len(inputs) <= n)
            out = self._most[key] = max(parts, default=0)
        return out

    def _splits(self, colors, leaves, need):
        """The splits of `leaves` into one consecutive nonempty block per
        colour in `colors` whose blocks' bounds add up to at least `need`."""
        if len(colors) == 1:
            if self.most(colors, len(leaves)) >= need:
                yield (leaves,)
            return
        rest = colors[1:]
        for first in range(1, len(leaves) - len(rest) + 1):
            head = self.most(colors[:1], first)
            if head + self.most(rest, len(leaves) - first) >= need:
                for tail in self._splits(rest, leaves[first:], need - head):
                    yield (leaves[:first],) + tail

    def shapes(self, color, leaves, weight):
        """The shapes with output `color`, leaf colours `leaves` and weight `weight`."""
        key = (color, leaves, weight)
        out = self._shapes.get(key)
        if out is None:
            out = self._shapes[key] = self._build_shapes(color, leaves, weight)
        return out

    def combos(self, colors, blocks, weight):
        """The tuples of one shape per input colour in `colors`, with the leaf
        colours in `blocks` and weights adding up to `weight`."""
        key = (colors, blocks, weight)
        out = self._combos.get(key)
        if out is None:
            out = self._combos[key] = self._build_combos(colors, blocks, weight)
        return out

    def _build_shapes(self, color, leaves, weight):
        out = [color] if weight == 0 and leaves == (color,) else []
        for name, inputs, w in self.by_output[color]:
            if w <= weight and len(inputs) <= len(leaves):
                for blocks in self._splits(inputs, leaves, weight - w):
                    out.extend((name,) + combo for combo in self.combos(inputs, blocks, weight - w))
        return out

    def _build_combos(self, colors, blocks, weight):
        if len(blocks) == 1:
            return [(s,) for s in self.shapes(colors[0], blocks[0], weight)]
        out = []
        low = weight - sum(self.most((c,), len(b)) for c, b in zip(colors[1:], blocks[1:]))
        for w in range(max(0, low), min(weight, self.most(colors[:1], len(blocks[0]))) + 1):
            heads = self.shapes(colors[0], blocks[0], w)
            if heads:
                for rest in self.combos(colors[1:], blocks[1:], weight - w):
                    out.extend((h,) + rest for h in heads)
        return out

