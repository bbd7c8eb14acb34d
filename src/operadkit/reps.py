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
from itertools import accumulate, product

from .core import OperadElement, Signature, integer
from .differentials import DerivationDifferential
from .linalg import ChainComplex, RationalMatrix, kron_all
from .reports import Report, index_key


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
        """All input multidegrees with nonzero domain and codomain, in
        lexicographic order: the column order of every system built on them.

        A prefix is dropped as soon as no choice of the remaining degrees
        sums to one where the target is nonzero, so the walk visits only
        prefixes of keys that are yielded.
        """
        degrees = [c.degrees() for c in self.sources]
        # reachable[i]: the prefix sums over sources 0..i-1 that some choice
        # of the remaining degrees completes to a degree of the target.
        reachable = [{k - self.degree for k in self.target.dims}]
        for ds in reversed(degrees):
            reachable.append({t - k for t in reachable[-1] for k in ds})
        reachable.reverse()

        def walk(i, prefix, total):
            if i == len(degrees):
                rows, cols = self.block_shape(prefix)
                if rows and cols:
                    yield prefix
                return
            for k in degrees[i]:
                if total + k in reachable[i + 1]:
                    yield from walk(i + 1, prefix + (k,), total + k)

        if 0 in reachable[0]:
            yield from walk(0, (), 0)

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
    """outer o (T_1 (x) ... (x) T_n) with the Koszul interchange signs of
    `composition_terms`."""
    inners = list(inners)
    if len(inners) != outer.arity:
        raise ValueError(f"expected {outer.arity} inner maps, got {len(inners)}")
    sources = tuple(c for t in inners for c in t.sources)
    degree = outer.degree + sum(t.degree for t in inners)
    blocks = {}
    # Only stored blocks contribute: a block that is missing is zero.
    for mids, key, factors, sign in composition_terms(inners, outer.blocks):
        mat = outer.blocks[mids].mul(kron_all(factors))
        if not mat.is_zero():
            blocks[key] = mat.scale(-1) if sign < 0 else mat
    return MultilinearMap(sources, outer.target, degree, blocks)


def composition_terms(inners, keys):
    """The terms of X o (T_1 (x) ... (x) T_n) on X's blocks at `keys`.

    For X's block at `mids` it yields (mids, key, factors, sign) per choice
    of stored blocks of the T_i landing in those degrees: the block times
    kron_all(factors), times sign, lands in the block `key`.  The sign is
    the Koszul interchange sign (-1)^(sum_{i<j} |T_j| deg(block_i)); this
    is the one place it is written.  Each T_i's blocks are grouped by the
    degree they land in once, so only combinations that meet `mids` are visited.
    """
    deg_after = list(accumulate((t.degree for t in reversed(inners[1:])), initial=0))[::-1]
    landing = []
    for t in inners:
        groups = {}
        for chunk, block in t.blocks.items():
            groups.setdefault(sum(chunk) + t.degree, []).append((chunk, block))
        landing.append(groups)
    for mids in keys:
        choices = [groups.get(m) for groups, m in zip(landing, mids)]
        if None in choices:
            continue
        for parts in product(*choices):
            key = ()
            sign = 0
            for (chunk, _), after in zip(parts, deg_after):
                key += chunk
                sign += sum(chunk) * after
            yield mids, key, [block for _, block in parts], -1 if sign % 2 else 1


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
    for src, fblock in f.blocks.items():
        # ChainComplex.d holds only the nonzero differentials.
        left = f.target.d.get(sum(src) + f.degree)
        if left is not None:
            _bump(blocks, src, left.mul(fblock))
        for key, factors, sign in hom_differential_terms(f.sources, f.degree, src):
            _bump(blocks, key, fblock.mul(kron_all(factors)).scale(sign))
    return MultilinearMap(f.sources, f.target, f.degree - 1, blocks)


def _bump(blocks: dict, key, mat: RationalMatrix):
    """Add `mat` into the block of `blocks` at `key`."""
    if key in blocks:
        blocks[key] = blocks[key].add(mat)
    else:
        blocks[key] = mat


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
        extra = sorted(set(self.complexes).difference(self.model.base.colors))
        if extra:
            raise ValueError(f"complexes for colors the model does not have: {', '.join(extra)}")
        missing = sorted(set(self.model.base.colors).difference(self.complexes))
        if missing:
            raise ValueError(f"no complex for colors of the model: {', '.join(missing)}")
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
    sources = rep.sources_for(elem.signature)
    target = rep.complexes[elem.signature.output]

    def eval_shape(shape) -> MultilinearMap:
        if isinstance(shape, str):
            return identity_map(rep.complexes[shape])
        outer = rep.image(shape[0])
        children = shape[1:]
        if all(c.__class__ is str for c in children):
            # identities have degree 0 (no Koszul sign) and stored blocks are nonzero
            return outer
        return compose_maps(outer, [eval_shape(c) for c in children])

    blocks = {}
    for mono, coeff in elem.terms.items():
        for key, mat in eval_shape(mono.shape).blocks.items():
            _bump(blocks, key, mat.scale(coeff))
    return MultilinearMap(sources, target, elem.degree, blocks)


def check_representation(rep: Representation) -> Report:
    """Per generator: Hom-differential of the image equals the evaluated image of D.

    The entries are in a stable sort of the generators by their trailing
    index (`reports.index_key`), so each arity's axioms come together.
    """
    report = Report("representation axioms")
    for g in sorted(rep.model.base.generators, key=lambda g: index_key(g.name)):
        lhs = hom_differential(rep.image(g.name))
        residual = lhs.sub(evaluate_element(rep, rep.model.of(g.name)))
        ok = residual.is_zero()
        report.add(g.name, ok, "" if ok else f"residual on blocks {sorted(residual.blocks)}")
    return report


def check_sh_morphism(rep: Representation) -> Report:
    """The axiom check over the two-colored morphism model (mu, nu, f)."""
    return Report("sh-morphism axioms", check_representation(rep).entries)


def check_homotopy(rep: Representation) -> Report:
    """The axiom check for a homotopy-through-morphisms representation.

    The p- and q-side lines, read off the one axiom pass, say whether each
    endpoint is a morphism on its own; a failing side names its lowest
    failure.  The endpoints p, q are the model's two unary degree-0
    generators between its colours, in generator order (other counts raise
    ValueError), and the p (q) side holds the entries whose D images,
    followed down, never reach q (p).
    """
    unary = [g for g in rep.model.base.generators if (g.signature.arity, g.degree) == (1, 0)]
    ends = [g.name for g in unary if g.signature.inputs[0] != g.signature.output]
    if len(ends) != 2:
        raise ValueError(f"a homotopy model has two endpoints, unary degree-0 maps between colours; found {ends}")
    full = check_representation(rep)
    report = Report("homotopy axioms")
    for letter, other in (("p", ends[1]), ("q", ends[0])):
        side = Report("", [e for e in full.entries if other not in _reached(rep.model, e.name)])
        report.add(f"{letter}-side morphism", side.ok, side.first_failure or "")
    report.entries.extend(full.entries)
    return report


def _reached(model: DerivationDifferential, name) -> set:
    """`name` and every generator that following D images from it reaches."""
    seen, todo = set(), [name]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo += [v for mono in model.of(n).terms for v in mono.vertex_names()]
    return seen


def check_sh_equivalence(rep: Representation) -> Report:
    """The axiom check over the iso-resolution model (f, g)."""
    return Report("sh-equivalence axioms", check_representation(rep).entries)
