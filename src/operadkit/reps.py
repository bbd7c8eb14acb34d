"""Representations on finite-dimensional rational chain complexes.

A multilinear map is stored as one exact matrix per input multidegree.
Tensor products of maps follow the usual rule
(F (x) G)(x (x) y) = (-1)^(|G||x|) F(x) (x) G(y), the Hom-complex
differential is d(F) = d o F - (-1)^{|F|} F o d_(x), and trees evaluate
bottom-up through these signed compositions.  The conventions interlock
with the symbolic side: evaluating a derivation image equals the
Hom-differential of the evaluated generator whenever the representation
satisfies the generator axioms, and that statement is what the checkers
test, generator by generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import OperadElement, Signature, integer
from .differentials import DerivationDifferential, build_ainf_morphism
from .linalg import ChainComplex, RationalMatrix, kron_all
from .reports import Report


class MultilinearMap:
    """Degree-homogeneous map C_1 (x) ... (x) C_n -> T, blocks per multidegree."""

    __slots__ = ("sources", "target", "degree", "blocks")

    def __init__(self, sources, target, degree, blocks=None):
        self.sources = tuple(sources)
        self.target = target
        self.degree = integer(degree)
        self.blocks = {}
        for key, mat in (blocks or {}).items():
            key = tuple([integer(k) for k in key])
            if len(key) != self.arity:
                raise ValueError(f"block key {key} has {len(key)} degrees for an arity-{self.arity} map")
            if not isinstance(mat, RationalMatrix):
                mat = RationalMatrix(mat)
            rows, cols = self.block_shape(key)
            if (mat.rows, mat.cols) != (rows, cols):
                raise ValueError(f"block {key} has shape {(mat.rows, mat.cols)}, expected {(rows, cols)}")
            if rows and cols and not mat.is_zero():
                self.blocks[key] = mat

    @property
    def arity(self):
        return len(self.sources)

    def block_shape(self, key):
        cols = 1
        for c, k in zip(self.sources, key):
            cols *= c.dim(k)
        rows = self.target.dim(sum(key) + self.degree)
        return rows, cols

    def block(self, key) -> RationalMatrix:
        key = tuple(key)
        if key in self.blocks:
            return self.blocks[key]
        rows, cols = self.block_shape(key)
        return RationalMatrix.zero(rows, cols)

    def multidegrees(self):
        """All input multidegrees with nonzero domain and codomain."""
        for key in product(*(c.degrees() for c in self.sources)):
            rows, cols = self.block_shape(key)
            if rows and cols:
                yield key

    def is_zero(self):
        return not self.blocks

    def add(self, other):
        self._check_compatible(other)
        keys = set(self.blocks) | set(other.blocks)
        return MultilinearMap(
            self.sources, self.target, self.degree,
            {k: self.block(k).add(other.block(k)) for k in keys},
        )

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        return MultilinearMap(
            self.sources, self.target, self.degree,
            {k: m.scale(c) for k, m in self.blocks.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, MultilinearMap):
            return NotImplemented
        return (
            self.degree == other.degree
            and [c.dims for c in self.sources] == [c.dims for c in other.sources]
            and self.target.dims == other.target.dims
            and self.blocks == other.blocks
        )

    def __repr__(self):
        nz = {k: "..." for k in sorted(self.blocks)}
        return f"MultilinearMap(arity={self.arity}, degree={self.degree}, blocks={nz})"

    def _check_compatible(self, other):
        if self.degree != other.degree or len(self.sources) != len(other.sources):
            raise ValueError("incompatible multilinear maps")


def zero_map(sources, target, degree) -> MultilinearMap:
    return MultilinearMap(sources, target, degree, {})


def identity_map(c: ChainComplex) -> MultilinearMap:
    return MultilinearMap(
        (c,), c, 0, {(k,): RationalMatrix.identity(c.dim(k)) for k in c.degrees()}
    )


def compose_maps(outer: MultilinearMap, inners) -> MultilinearMap:
    """outer o (T_1 (x) ... (x) T_n) with the Koszul interchange signs.

    Applying the tensor of the T_i to homogeneous inputs costs
    (-1)^(sum_{i<j} |T_j| * deg(block_i)); the sign is constant per block.
    """
    inners = list(inners)
    if len(inners) != outer.arity:
        raise ValueError(f"expected {outer.arity} inner maps, got {len(inners)}")
    sources = tuple(c for t in inners for c in t.sources)
    degree = outer.degree + sum(t.degree for t in inners)
    blocks = {}
    deg_after = []
    acc = 0
    for t in reversed(inners):
        deg_after.append(acc)
        acc += t.degree
    deg_after.reverse()  # deg_after[i] = sum of |T_j| for j > i

    # Only stored blocks contribute: a block that is missing is zero.
    for parts in product(*(t.blocks.items() for t in inners)):
        key = ()
        mids = []
        sign = 0
        for (chunk, _), t, after in zip(parts, inners, deg_after):
            key += chunk
            mids.append(sum(chunk) + t.degree)
            sign += sum(chunk) * after
        fblock = outer.blocks.get(tuple(mids))
        if fblock is None:
            continue
        mat = fblock.mul(kron_all([block for _, block in parts]))
        if not mat.is_zero():
            blocks[key] = mat.scale(-1 if sign % 2 else 1)
    return MultilinearMap(sources, outer.target, degree, blocks)


def hom_differential_terms(sources, degree, src):
    """The terms of -(-1)^{|F|} F o (sum_i 1...d_i...1) on the block of F at `src`.

    F has the given sources and degree.  Each term is (key, factors, sign):
    F's block at `src` times kron_all(factors), which is d_i in slot i and
    identities elsewhere, times `sign`, lands in the block `key`: `src` with
    index i raised by one.  The sign is the Koszul rule
    -(-1)^{|F|} (-1)^{src[0] + ... + src[i-1]}; this is the one place it is
    written.
    """
    sign_f = -1 if degree % 2 else 1
    prefix = 0
    for i, c in enumerate(sources):
        # ChainComplex.d holds only the nonzero differentials.
        d_i = c.d.get(src[i] + 1)
        if d_i is not None:
            key = src[:i] + (src[i] + 1,) + src[i + 1 :]
            factors = [
                d_i if j == i else RationalMatrix.identity(cj.dim(key[j]))
                for j, cj in enumerate(sources)
            ]
            yield key, factors, -sign_f * (-1 if prefix % 2 else 1)
        prefix += src[i]


def hom_differential(f: MultilinearMap) -> MultilinearMap:
    """d(F) = d_target o F - (-1)^{|F|} F o (sum_i 1...d_i...1), degree -1."""
    blocks = {}

    def bump(key, mat):
        if key in blocks:
            blocks[key] = blocks[key].add(mat)
        else:
            blocks[key] = mat

    for src, fblock in f.blocks.items():
        # ChainComplex.d holds only the nonzero differentials.
        left = f.target.d.get(sum(src) + f.degree)
        if left is not None:
            bump(src, left.mul(fblock))
        for key, factors, sign in hom_differential_terms(f.sources, f.degree, src):
            bump(key, fblock.mul(kron_all(factors)).scale(sign))
    clean = {k: m for k, m in blocks.items() if not m.is_zero()}
    return MultilinearMap(f.sources, f.target, f.degree - 1, clean)


@dataclass
class Representation:
    """Generator images for a model, over one chain complex per color.

    Each image must be built over the very complexes in ``complexes``:
    its sources are ``complexes[c]`` for the generator's input colors and
    its target is ``complexes[output]``, compared by identity, because the
    evaluators compose every tree over those objects.  One complex may
    serve several colors (the identity morphism puts V in both B and W).
    """

    model: DerivationDifferential
    complexes: dict
    images: dict

    def __post_init__(self):
        unknown = sorted(name for name in self.images if name not in self.model.base)
        if unknown:
            raise ValueError(f"images for names that are not generators: {', '.join(unknown)}")
        self.images = dict(self.images)
        for g in self.model.base.generators:
            img = self.images.get(g.name)
            if img is None:
                sources = tuple(self.complexes[c] for c in g.signature.inputs)
                self.images[g.name] = zero_map(sources, self.complexes[g.signature.output], g.degree)
                continue
            if img.degree != g.degree or img.arity != g.signature.arity:
                raise ValueError(f"image of {g.name} has wrong degree or arity")
            for src, color in zip(img.sources, g.signature.inputs):
                if src is not self.complexes[color]:
                    raise ValueError(f"image of {g.name}: source not the complex colored {color}")
            if img.target is not self.complexes[g.signature.output]:
                raise ValueError(f"image of {g.name}: target not the complex colored {g.signature.output}")

    def image(self, name):
        return self.images[name]

    def sources_for(self, signature: Signature):
        return tuple(self.complexes[c] for c in signature.inputs)


def evaluate_element(rep: Representation, elem: OperadElement) -> MultilinearMap:
    """Evaluate a symbolic element to a multilinear map (bottom-up, signed)."""
    if elem.signature is None:
        raise ValueError("cannot evaluate a zero element with no declared signature")
    sources = rep.sources_for(elem.signature)
    target = rep.complexes[elem.signature.output]
    total = zero_map(sources, target, 0 if elem.degree is None else elem.degree)

    def eval_shape(shape) -> MultilinearMap:
        if isinstance(shape, str):
            return identity_map(rep.complexes[shape])
        outer = rep.image(shape[0])
        return compose_maps(outer, [eval_shape(c) for c in shape[1:]])

    for mono, coeff in elem.terms.items():
        total = total.add(eval_shape(mono.shape).scale(coeff))
    return total


def check_representation(rep: Representation) -> Report:
    """Per generator: Hom-differential of the image equals the evaluated image of D."""
    report = Report("representation axioms")
    for g in rep.model.base.generators:
        lhs = hom_differential(rep.image(g.name))
        rhs_elem = rep.model.of(g.name)
        if rhs_elem.is_zero():
            sources = rep.sources_for(g.signature)
            rhs = zero_map(sources, rep.complexes[g.signature.output], g.degree - 1)
        else:
            rhs = evaluate_element(rep, rhs_elem)
        residual = lhs.sub(rhs)
        ok = residual.is_zero()
        report.add(g.name, ok, "" if ok else f"residual on blocks {sorted(residual.blocks)}")
    return report


def _first_failure(report: Report, classify):
    worst = None
    for e in report.entries:
        if e.ok:
            continue
        key = classify(e.name)
        if key is not None and (worst is None or key < worst[0]):
            worst = (key, e.name)
    return worst


def check_sh_morphism(rep: Representation) -> Report:
    """Axiom check over the two-colored morphism model, ordered by arity.

    The report's `first_failure` names the lowest-arity failing level and
    whether it sits in the source algebra (mu), target algebra (nu) or the
    morphism family (f).
    """
    base = check_representation(rep)
    report = Report("sh-morphism axioms")
    report.entries = sorted(base.entries, key=lambda e: _morphism_sort_key(e.name))
    worst = _first_failure(report, _morphism_classify)
    if worst is not None:
        (arity, kind), name = worst
        labels = {0: "source algebra", 1: "target algebra", 2: "morphism"}
        report.first_failure = (labels[kind], arity, name)
    return report


def _morphism_classify(name):
    fam, _, idx = name.partition("_")
    try:
        k = int(idx)
    except ValueError:
        return None
    order = {"mu": 0, "nu": 1, "f": 2}
    if fam not in order:
        return None
    return (k, order[fam])


def _morphism_sort_key(name):
    key = _morphism_classify(name)
    return key if key is not None else (10**9, 9)


def restrict_homotopy_to_morphism(rep: Representation, letter: str) -> Representation:
    """The p- or q-side of a homotopy representation, as a morphism representation."""
    max_arity = max(g.signature.arity for g in rep.model.base.generators)
    model = build_ainf_morphism(max_arity)
    images = {}
    for g in model.base.generators:
        fam, _, idx = g.name.partition("_")
        source_name = {"mu": f"mu_{idx}", "nu": f"nu_{idx}", "f": f"{letter}_{idx}"}[fam]
        images[g.name] = rep.images[source_name]
    return Representation(model, rep.complexes, images)


def check_homotopy(rep: Representation) -> Report:
    """Full axiom check for a homotopy-through-morphisms representation.

    Requires both endpoint morphisms to pass on their own; the report then
    isolates the lowest failing arity of the h family.
    """
    report = Report("homotopy axioms")
    for letter in ("p", "q"):
        side = check_sh_morphism(restrict_homotopy_to_morphism(rep, letter))
        report.add(f"{letter}-side morphism", side.ok, "" if side.ok else str(side.first_failure))
    full = check_representation(rep)
    report.entries.extend(sorted(full.entries, key=lambda e: _homotopy_sort_key(e.name)))
    for e in report.entries:
        if not e.ok and "_" in e.name:
            report.first_failure = e.name
            break
    return report


def _homotopy_sort_key(name):
    fam, _, idx = name.partition("_")
    try:
        k = int(idx)
    except ValueError:
        return (10**9, 9, name)
    order = {"mu": 0, "nu": 1, "p": 2, "q": 3, "h": 4}
    return (k, order.get(fam, 8), name)


def check_sh_equivalence(rep: Representation, a_images=None, b_images=None) -> Report:
    """Axioms for an iso-resolution representation, plus the two restrictions.

    `a_images` / `b_images`, when given, are the generator images of the two
    underlying algebras; the representation must restrict to them on the B-
    and W-copies.
    """
    report = Report("sh-equivalence axioms")
    for e in check_representation(rep).entries:
        report.entries.append(e)
    for label, wanted, suffix in (("A", a_images, "_B"), ("B", b_images, "_W")):
        if wanted is None:
            continue
        for base_name, image in sorted(wanted.items()):
            copy = f"{base_name}{suffix}"
            ok = copy in rep.images and rep.images[copy] == image
            report.add(f"restriction {label}: {copy}", ok)
    return report

