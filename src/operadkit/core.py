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
Ints, rationals and exact strings ("3", "-1/2") are accepted; a float is
rejected with TypeError, since it is already rounded.

A tree with zero vertices (a bare strand) is the operadic identity 1_c of
its color; it is a legitimate monomial and shows up, for instance, as the
constant term of differentials like d(f_1) = g_0 f_0 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import prod
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


class TreeMonomial:
    """A planar rooted tree with generator-labeled vertices and colored edges.

    The constructor validates the color rule (each child subtree's output
    color equals the matching input color of its parent's generator) and
    caches signature, degree and vertex count.  It is the trust boundary:
    JSON loading, `generator`, `enumerate_basis`, `normalize_bw` and
    renaming all go through it.  Trees that grafting and the Leibniz rule
    assemble from already-validated monomials of the same generator set skip
    it: they take their invariants from those parts through `_assembled`.
    Only this module calls it; other modules assemble through `_graft_word`
    and `_element_of_shapes`.
    """

    __slots__ = ("gens", "shape", "signature", "degree", "nvertices", "_key")

    def __init__(self, gens: GeneratorSet, shape):
        out, leaves, degree, nvert = _validate_shape(gens, shape)
        self.gens = gens
        self.shape = shape
        self.signature = Signature(out, tuple(leaves))
        self.degree = degree
        self.nvertices = nvert
        self._key = None

    @classmethod
    def _assembled(cls, gens, shape, signature, degree, nvertices) -> "TreeMonomial":
        """A tree built from validated parts, with the invariants the caller
        computed from them.  Nothing is checked here."""
        self = object.__new__(cls)
        self.gens = gens
        self.shape = shape
        self.signature = signature
        self.degree = degree
        self.nvertices = nvertices
        self._key = None
        return self

    @classmethod
    def identity(cls, gens: GeneratorSet, color: str) -> "TreeMonomial":
        return cls(gens, color)

    @classmethod
    def generator(cls, gens: GeneratorSet, name: str) -> "TreeMonomial":
        spec = gens.spec(name)
        return cls(gens, (name,) + tuple(spec.signature.inputs))

    @property
    def arity(self) -> int:
        return self.signature.arity

    def vertices(self):
        return _shape_walk(self.shape)

    def vertex_names(self):
        return [name for _, name, _ in _shape_walk(self.shape)]

    @property
    def sort_key(self):
        if self._key is None:
            self._key = (self.nvertices, _render(self.shape, [1], leaf_mark="~"))
        return self._key

    def canonical(self) -> str:
        """Unique text form: `gen(child,...)` with leaves as `@i:Color`.

        The text forms are output only (display, sort keys, error
        messages); files are JSON, written and read by `serialize`.
        """
        return _render(self.shape, [1], leaf_mark="@")

    def compact(self) -> str:
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
        return f"TreeMonomial({self.canonical()})"


def _validate_shape(gens, shape):
    if isinstance(shape, str):
        if shape not in gens.colors:
            raise ValueError(f"undeclared color {shape!r}")
        return shape, [shape], 0, 0
    name = shape[0]
    spec = gens.spec(name)
    children = shape[1:]
    if len(children) != spec.signature.arity:
        raise ValueError(f"{name} has arity {spec.signature.arity}, got {len(children)} children")
    leaves = []
    degree = spec.degree
    nvert = 1
    for child, want in zip(children, spec.signature.inputs):
        out, sub_leaves, d, v = _validate_shape(gens, child)
        if out != want:
            raise ValueError(f"color mismatch under {name}: {out} into a {want} slot")
        leaves.extend(sub_leaves)
        degree += d
        nvert += v
    return spec.signature.output, leaves, degree, nvert


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


def _render(shape, counter, leaf_mark):
    if isinstance(shape, str):
        s = f"{leaf_mark}{counter[0]}:{shape}"
        counter[0] += 1
        return s
    parts = [_render(c, counter, leaf_mark) for c in shape[1:]]
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


def exact(c):
    """`c` in the coefficient normal form: an int when it is integral, else
    a Fraction.

    Accepts ints, rationals and exact strings ("3", "-1/2", "0.25").  A
    float, or any other number that is not a rational, raises TypeError;
    a string with a zero denominator ("1/0") raises ValueError.
    """
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        if isinstance(c, str):
            try:
                c = Fraction(c)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {c!r}") from None
        elif isinstance(c, Rational):
            c = Fraction(int(c.numerator), int(c.denominator))
        else:
            raise TypeError(f"inexact coefficient {c!r}: give an int, a Fraction or a 'p/q' string")
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


def _combination_terms(parts):
    """The (monomial, coeff) pairs of the sum of c * elem over the (c, elem)
    parts, for operad or forest elements."""
    return ((m, c * v) for c, elem in parts for m, v in elem.terms.items())


class OperadElement:
    """A finite rational linear combination of tree monomials.

    Homogeneous: every stored monomial shares the element's signature and
    degree.  Coefficients are stored in the `exact` normal form and zero
    coefficients are never stored, and two elements are equal iff their term
    maps are equal (every zero element equals every other).
    """

    __slots__ = ("gens", "signature", "degree", "terms")

    def __init__(self, gens, terms, signature=None, degree=None):
        self.gens = gens
        self.terms = {}
        for mono, coeff in terms.items():
            coeff = exact(coeff)
            if not coeff:
                continue
            if signature is None:
                signature = mono.signature
                degree = mono.degree
            elif mono.signature != signature or mono.degree != degree:
                raise ValueError(
                    f"inhomogeneous element: {mono.canonical()} is not in "
                    f"component {signature}, degree {degree}"
                )
            self.terms[mono] = coeff
        self.signature = signature
        self.degree = degree

    @classmethod
    def zero(cls, gens, signature=None, degree=None):
        return cls(gens, {}, signature=signature, degree=degree)

    @classmethod
    def monomial(cls, mono: TreeMonomial, coeff=1):
        return cls(mono.gens, {mono: coeff})

    @classmethod
    def from_generator(cls, gens, name, coeff=1):
        return cls.monomial(TreeMonomial.generator(gens, name), coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Term pairs in the fixed display order (largest trees first)."""
        return sorted(self.terms.items(), key=lambda mc: (-mc[0].nvertices, mc[0].sort_key[1]))

    def coeff(self, mono) -> int | Fraction:
        """The coefficient of `mono`, in the `exact` normal form (0 if absent)."""
        return self.terms.get(mono, 0)

    def __add__(self, other):
        if not isinstance(other, OperadElement):
            return NotImplemented
        sig, deg = self._merged_component(other)
        terms = collect_terms(chain(self.terms.items(), other.terms.items()))
        return OperadElement(self.gens, terms, signature=sig, degree=deg)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "OperadElement":
        c = exact(c)
        return OperadElement(
            self.gens,
            {m: c * v for m, v in self.terms.items()},
            signature=self.signature,
            degree=self.degree,
        )

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, OperadElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"OperadElement({self.text()})"

    def text(self, compact=False) -> str:
        """Render as `coeff * monomial +- ...` in display order."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.items():
            body = mono.compact() if compact else mono.canonical()
            if not parts:
                parts.append(f"{coeff} * {body}")
            elif coeff > 0:
                parts.append(f"+ {coeff} * {body}")
            else:
                parts.append(f"- {-coeff} * {body}")
        return " ".join(parts)

    def _merged_component(self, other):
        if self.signature is None or (self.is_zero() and not other.is_zero()):
            return other.signature, other.degree
        if other.signature is None or (other.is_zero() and not self.is_zero()):
            return self.signature, self.degree
        if (self.signature, self.degree) != (other.signature, other.degree):
            if self.is_zero() and other.is_zero():
                return self.signature, self.degree
            raise ValueError("cannot add elements from different components")
        return self.signature, self.degree


def graft(outer: TreeMonomial, slot: int, inner: TreeMonomial) -> OperadElement:
    """Graft `inner` into leaf `slot` of `outer` (1-based planar position).

    Color mismatch gives the zero element, matching the colored-composition
    convention; an out-of-range slot is an error.
    """
    if not 1 <= slot <= outer.arity:
        raise ValueError(f"slot {slot} out of range 1..{outer.arity}")
    sig = _grafted_signature(outer.signature, slot, inner.signature)
    degree = outer.degree + inner.degree
    if inner.signature.output != outer.signature.inputs[slot - 1]:
        return OperadElement.zero(outer.gens, sig, degree)
    inner = _checked_over(outer.gens, inner)
    pieces = list(outer.signature.inputs)
    pieces[slot - 1] = inner.shape
    shape = _plug(outer.shape, iter(pieces))
    mono = TreeMonomial._assembled(outer.gens, shape, sig, degree, outer.nvertices + inner.nvertices)
    return OperadElement.monomial(mono)


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
        raise ValueError(f"{mono.canonical()} changes signature or degree over the target generators")
    return checked


def _grafted_signature(outer: Signature, slot: int, inner: Signature) -> Signature:
    return Signature(outer.output, outer.inputs[: slot - 1] + inner.inputs + outer.inputs[slot:])


def _slot_component(outer: TreeMonomial, parts):
    """(signature, degree, colors match) of `outer` with one part grafted
    into each slot.  A part is a monomial or an element; an element without
    a component (a bare zero) leaves its slot's color."""
    inputs = []
    degree = outer.degree
    match = True
    for slot_color, part in zip(outer.signature.inputs, parts):
        sig = part.signature
        if sig is None:
            inputs.append(slot_color)
            continue
        inputs.extend(sig.inputs)
        degree += part.degree
        match = match and sig.output == slot_color
    return Signature(outer.signature.output, tuple(inputs)), degree, match


def _graft_word(outer: TreeMonomial, inners) -> TreeMonomial | None:
    """`outer` with the monomial inners[i] grafted into slot i+1, or None on
    a color mismatch: one term of `compose_full`, with coefficient 1."""
    sig, degree, match = _slot_component(outer, inners)
    if not match:
        return None
    gens = outer.gens
    inners = [_checked_over(gens, m) for m in inners]
    shape = _plug(outer.shape, (m.shape for m in inners))
    return TreeMonomial._assembled(gens, shape, sig, degree, outer.nvertices + sum([m.nvertices for m in inners]))


def _shape_nvertices(shape) -> int:
    if shape.__class__ is str:
        return 0
    n = 1
    for c in shape[1:]:
        if c.__class__ is not str:
            n += _shape_nvertices(c)
    return n


def _element_of_shapes(gens, shape_terms: dict, signature, degree) -> OperadElement:
    """The element with the shape -> coeff map `shape_terms`, in the
    component (signature, degree).

    A tree is assembled only for a nonzero coefficient, so sums that cancel
    cost no monomial.  Every shape must be a graft or splice of monomials
    validated over `gens` that lies in that component; nothing is checked.
    """
    terms = {
        TreeMonomial._assembled(gens, shape, signature, degree, _shape_nvertices(shape)): c
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
    sig, degree, match = _slot_component(outer, inners)
    if not match:
        return OperadElement.zero(outer.gens, sig, degree)
    if any(e.is_zero() for e in inners):
        return OperadElement.zero(outer.gens, sig if all(e.signature for e in inners) else None)

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


def enumerate_basis(gens: GeneratorSet, signature: Signature, degree: int):
    """All tree monomials in one (signature, degree) component, in canonical order.

    The order is (vertex count, serialization) ascending and is stable
    across runs.  Every component is finite, and listed whole, unless a
    unary generator has negative degree or the degree-0 unary generators
    form a cycle of colours (as in the iso resolution); then
    UnboundedEnumerationError is raised, for any component.
    """
    shift = _weight_shift(gens)
    leaves = tuple(signature.inputs)
    shapes = _BasisEnumerator(gens, shift).shapes(signature.output, leaves, degree + shift * (len(leaves) - 1))
    monos = [TreeMonomial(gens, s) for s in shapes]
    monos.sort(key=lambda t: t.sort_key)
    return monos


class _BasisEnumerator:
    """The tree shapes over one generator set by output colour, leaf colours
    and weight, each list built once.

    A generator of arity k and degree d weighs d + shift * (k - 1), and a
    tree weighs the sum over its vertices, which is its degree plus
    shift * (leaves - 1).  With the shift of `_weight_shift` no generator
    weighs less than 0, so no subtree weighs more than its tree.
    """

    def __init__(self, gens: GeneratorSet, shift: int):
        self.by_output = {
            c: [(g.name, g.signature.inputs, g.degree + shift * (g.signature.arity - 1)) for g in gens.by_output(c)]
            for c in gens.colors
        }
        self._shapes = {}
        self._combos = {}

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
                for blocks in _splits(leaves, len(inputs)):
                    out.extend((name,) + combo for combo in self.combos(inputs, blocks, weight - w))
        return out

    def _build_combos(self, colors, blocks, weight):
        if len(blocks) == 1:
            return [(s,) for s in self.shapes(colors[0], blocks[0], weight)]
        out = []
        for w in range(weight + 1):
            heads = self.shapes(colors[0], blocks[0], w)
            if heads:
                for rest in self.combos(colors[1:], blocks[1:], weight - w):
                    out.extend((h,) + rest for h in heads)
        return out


def _splits(seq, k):
    """Partitions of seq into k consecutive nonempty blocks."""
    n = len(seq)
    if k == 1:
        yield (tuple(seq),)
        return
    for first in range(1, n - k + 2):
        head = tuple(seq[:first])
        for rest in _splits(seq[first:], k - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# The B->W rewriting system (f a_B -> a_W f^{(x)n})


@dataclass(frozen=True)
class BwRelations:
    """Naming data for the relation `f a_B = a_W f^{(x)arity}`.

    `w_of_b` maps each base generator's B-copy name to its W-copy name and
    `f_name` is the unary B->W generator.
    """

    f_name: str
    w_of_b: dict


def normalize_bw(elem: OperadElement, relations: BwRelations) -> OperadElement:
    """Normal form under the confluent rewrite f∘a_B -> a_W∘f^{(x)n}.

    Rewrites until no f sits directly above a B-copy vertex; in the normal
    form every f hangs directly above a leaf.  Coefficients are untouched
    (f has degree 0, so the rewrite carries no sign).
    """
    f, w_of_b = relations.f_name, relations.w_of_b

    def nf(shape):
        if isinstance(shape, str):
            return shape
        children = tuple(nf(c) for c in shape[1:])
        name = shape[0]
        if name == f and not isinstance(children[0], str) and children[0][0] in w_of_b:
            inner = children[0]
            return (w_of_b[inner[0]],) + tuple(nf((f, gc)) for gc in inner[1:])
        return (name,) + children

    terms = collect_terms((TreeMonomial(elem.gens, nf(m.shape)), c) for m, c in elem.terms.items())
    return OperadElement(elem.gens, terms, signature=elem.signature, degree=elem.degree)
