"""Derivation differentials on free colored operads, and the concrete models.

A differential is recorded on generators only and extended to tree monomials
by the signed Leibniz rule: when the derivation acts on a vertex it picks up
(-1)^(sum of the degrees of the generators preceding that vertex in planar
preorder).  This single convention is the only sign locus on the symbolic
side, and squares to zero on every model built here, which is the working
consistency certificate for it.

A `DerivationDifferential` keeps its images in a read-only mapping and
builds the splice table of each generator (image shapes, the leaves whose
orientation sign is odd, coefficients) once, on first use; every Leibniz
extension on that differential reuses it.  The tail builders of `tails`
grow one differential: each solved image is set by `_replace`, which
validates it as the constructor does and drops that generator's table.

Model builders cover the associahedron-type operad (structure maps mu_n with
the classical quadratic differential), its two-colored morphism version
(mu, nu, f families), the homotopy-through-homomorphisms operad (p, q, h
families), and the resolution of the two-mutually-inverse-maps operad
(unary f_k, g_k with alternating colors).  They write each image term's
shape directly, grafting generators' one-vertex shapes with a colour check
per slot.  There, as in the Leibniz extension, terms merge by bare shape
and a monomial is built only for a sum that survives: a D^2 = 0 check
builds none.
"""

from __future__ import annotations

from itertools import chain, combinations
from types import MappingProxyType

from .core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    _checked_over,
    _element_of_shapes,
    _plug,
    collect_terms,
    leaf_suffix_degrees,
)
from .reports import Report

B, W = "B", "W"


class DerivationDifferential:
    """A degree -1 derivation, given by its generator images.

    `images` is a read-only mapping with one image per generator (a missing
    one is zero).  The Leibniz rule splices each image through a table built
    from it once and cached; `_replace` drops the table of the image it sets.
    """

    def __init__(self, base: GeneratorSet, images: dict):
        unknown = sorted(name for name in images if name not in base)
        if unknown:
            raise ValueError(f"images for names that are not generators: {', '.join(unknown)}")
        self.base = base
        self._table = {g.name: self._checked(g, images.get(g.name)) for g in base.generators}
        self.images = MappingProxyType(self._table)
        self._splices = {}

    def _checked(self, g: GeneratorSpec, img):
        """`img` as D(g), over the base (zero for None), or raise ValueError."""
        base = self.base
        if img is None:
            return OperadElement.zero(base, g.signature, g.degree - 1)
        if img.signature != g.signature:
            raise ValueError(f"D({g.name}) lives in {img.signature}, expected {g.signature}")
        if img.degree != g.degree - 1:
            raise ValueError(f"D({g.name}) has degree {img.degree}, expected {g.degree - 1}")
        if img.gens is not base or any(m.gens is not base for m in img.terms):
            terms = {_checked_over(base, m): c for m, c in img.terms.items()}
            img = OperadElement(base, terms, signature=img.signature, degree=img.degree)
        return img

    def _replace(self, name: str, image: OperadElement):
        """Set D(name) to `image`, checked as in __init__, and drop its splice
        table.  Only a builder calls this, before it returns the model."""
        self._table[name] = self._checked(self.base.spec(name), image)
        self._splices.pop(name, None)

    def of(self, name: str) -> OperadElement:
        try:
            return self.images[name]
        except KeyError:
            raise KeyError(f"no differential image for generator {name!r}") from None

    def _splice(self, name: str):
        """The splice table of generator `name`, built on first use."""
        table = self._splices.get(name)
        if table is None:
            table = self._splices[name] = self._splice_table(name)
        return table

    def _splice_table(self, name: str):
        """(degree of `name`, one row per monomial u of its image, the
        derivative terms of the bare generator).

        A row holds u's shape, the leaves of u whose suffix degree is odd
        (only they change the orientation sign) and u's coefficient.  The
        bare generator's terms are (u's shape, even sign, u's coefficient):
        its children are leaves, which carry no degree and are u's leaves."""
        image = self.of(name).terms.items()
        rows = [
            (m.shape, [i for i, s in enumerate(leaf_suffix_degrees(self.base, m.shape)) if s % 2], c)
            for m, c in image
        ]
        return self.base.spec(name).degree, rows, [(m.shape, 0, c) for m, c in image]


def extend_derivation(diff: DerivationDifferential, elem: OperadElement) -> OperadElement:
    """Leibniz extension of the generator images to a whole element."""
    terms = leibniz_shapes(diff, elem.terms.items())
    return _element_of_shapes(diff.base, terms, elem.signature, elem.degree - 1)


def leibniz_shapes(diff: DerivationDifferential, pairs) -> dict:
    """The derivative of the sum of the (monomial, coeff) `pairs`, as a
    shape -> coeff map; sums that cancel stay in it as zeros.

    The derivation visits vertices in planar preorder; hitting vertex v
    costs the sign (-1)^(total degree of the vertices before v).  Splicing
    an image monomial u in place of v carries the additional orientation
    sign prod_i (-1)^(|c_i| * suffix_u(i)), where c_i is the i-th child
    subtree of v and suffix_u(i) is the total degree of u's vertices that
    follow u's i-th leaf in preorder: the child blocks have to move past
    those vertices to restore preorder.  Without this factor no sign
    convention at all makes the quadratic differentials square to zero
    (two root-replacement terms with a pair of odd generators would always
    survive), so D^2 = 0 across the models pins the convention.

    Terms are merged by bare shape, and no monomial is built.
    """
    base = diff.base
    splice = diff._splice

    def derive(shape):
        """(degree of `shape`, the terms (shape', sign parity, coeff) of its
        derivative), with the hit vertex in preorder and the sign counted
        from the root of `shape`."""
        degree, rows, bare = splice(shape[0])
        children = shape[1:]
        for c in children:
            if c.__class__ is not str:
                break
        else:
            return degree, bare  # shared with the table: callers only read it
        subs = [(0, ()) if c.__class__ is str else derive(c) for c in children]
        out = []
        for im_shape, odd_leaves, c in rows:
            reorder = 0
            for i in odd_leaves:
                reorder += subs[i][0]
            out.append((_plug(im_shape, iter(children)), reorder % 2, c))
        for i, (d, terms) in enumerate(subs, 1):
            if terms:
                head, tail = shape[:i], shape[i + 1 :]
                for new, odd, c in terms:
                    out.append((head + (new,) + tail, (odd + degree) % 2, c))
            degree += d
        return degree, out

    def terms():
        for mono, coeff in pairs:
            shape = _checked_over(base, mono).shape
            if shape.__class__ is str:
                continue  # an identity strand has no vertex to differentiate
            for new, odd, c in derive(shape)[1]:
                c = coeff * c
                yield new, (-c if odd else c)

    return collect_terms(terms())


def compositions(n: int, k: int):
    """Ordered tuples of k positive integers summing to n."""
    for cuts in combinations(range(1, n), k - 1):
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(n - prev)
        yield tuple(parts)


def _grafted(gens, outer: str, inners):
    """The shape of generator `outer` with the one-vertex tree of generator
    inners[i] grafted into leaf i+1, the leaf kept where inners[i] is None;
    None where a grafted generator's output is not its slot's colour (the
    graft is zero).  Such a shape may go to `_element_of_shapes`."""
    children = []
    for color, inner in zip(gens.spec(outer).signature.inputs, inners):
        sig = None if inner is None else gens.spec(inner).signature
        if sig is not None and sig.output != color:
            return None
        children.append(color if sig is None else (inner, *sig.inputs))
    return (outer, *children)


def _image(gens, name: str, terms) -> OperadElement:
    """The sum of the (shape, coeff) `terms` in the component of D(name); a
    None shape (a zero graft) is dropped."""
    spec = gens.spec(name)
    shapes = collect_terms((s, c) for s, c in terms if s is not None)
    return _element_of_shapes(gens, shapes, spec.signature, spec.degree - 1)


def _insertions(gens, outer: str, inner: str, m: int, first: int, sign=1):
    """The (shape, coeff) terms of sign * the sum over i+j = m+1, i >= first,
    j >= 2 of (-1)^(i+s(j+1)) outer_i(1^s (x) inner_j (x) 1^(i-s-1))."""
    for i in range(first, m):
        j = m + 1 - i
        for s in range(0, m - j + 1):
            inners = (None,) * s + (f"{inner}_{j}",) + (None,) * (i - s - 1)
            yield _grafted(gens, f"{outer}_{i}", inners), (-sign if (i + s * (j + 1)) % 2 else sign)


def _quadratic_sum(gens, family, m: int) -> OperadElement:
    """The classical quadratic differential of family_m."""
    return _image(gens, f"{family}_{m}", _insertions(gens, family, family, m, 2))


def build_ainf(max_arity: int) -> DerivationDifferential:
    """The minimal structure-map model: generators mu_2..mu_n of degree n-2."""
    if max_arity < 2:
        raise ValueError("max_arity must be >= 2")
    gens = GeneratorSet(
        (B,),
        [GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2) for k in range(2, max_arity + 1)],
    )
    images = {f"mu_{m}": _quadratic_sum(gens, "mu", m) for m in range(2, max_arity + 1)}
    return DerivationDifferential(gens, images)


def _nu_sign(r) -> int:
    """epsilon(r) = (-1)^(sum_{i<j} r_i (r_j+1)): the sign of the term of the
    composition r in the nu_k sums of D(f_m) and D(h_m)."""
    return (-1) ** sum(r[i] * (r[j] + 1) for i in range(len(r)) for j in range(i + 1, len(r)))


def _morphism_image(gens, m, f_family) -> OperadElement:
    """The two-colored morphism differential of f_family_m (f, or p and q
    in the homotopy model) over the mu and nu families.

    D(f_m) = - sum_k sum_{r1+..+rk=m} epsilon(r) nu_k(f_{r_1},..,f_{r_k})
             - sum_{i+j=m+1, i>=1, j>=2} (-1)^(i+s(j+1)) f_i(1^s (x) mu_j (x) 1^(i-s-1)).
    """

    def nu_terms():
        for k in range(2, m + 1):
            for r in compositions(m, k):
                word = [f"{f_family}_{ri}" for ri in r]
                yield _grafted(gens, f"nu_{k}", word), -_nu_sign(r)

    insertions = _insertions(gens, f_family, "mu", m, 1, sign=-1)
    return _image(gens, f"{f_family}_{m}", chain(nu_terms(), insertions))


def build_ainf_morphism(max_arity: int) -> DerivationDifferential:
    """Minimal model of the morphism operad: mu_k, nu_k (deg k-2), f_k (deg k-1)."""
    if max_arity < 1:
        raise ValueError("max_arity must be >= 1")
    specs = []
    for k in range(2, max_arity + 1):
        specs.append(GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2))
        specs.append(GeneratorSpec(f"nu_{k}", Signature(W, (W,) * k), k - 2))
    for k in range(1, max_arity + 1):
        specs.append(GeneratorSpec(f"f_{k}", Signature(W, (B,) * k), k - 1))
    gens = GeneratorSet((B, W), specs)
    images = {}
    for m in range(2, max_arity + 1):
        images[f"mu_{m}"] = _quadratic_sum(gens, "mu", m)
        images[f"nu_{m}"] = _quadratic_sum(gens, "nu", m)
    for m in range(1, max_arity + 1):
        images[f"f_{m}"] = _morphism_image(gens, m, "f")
    return DerivationDifferential(gens, images)


def _homotopy_image(gens, m) -> OperadElement:
    """D(h_m) = p_m - q_m + the nu_k(p..p h q..q) sum + the h_i(mu_j) sum; the
    nu_k term with h in slot s+1 has the sign epsilon(r) (-1)^(r_1+..+r_s + k + s)."""

    def terms():
        yield _grafted(gens, f"p_{m}", (None,) * m), 1
        yield _grafted(gens, f"q_{m}", (None,) * m), -1
        for k in range(2, m + 1):
            for r in compositions(m, k):
                eps = _nu_sign(r)
                for s in range(0, k):
                    # s leading p's, then h at slot s+1, then q's
                    word = [f"p_{ri}" for ri in r[:s]] + [f"h_{r[s]}"] + [f"q_{ri}" for ri in r[s + 1 :]]
                    yield _grafted(gens, f"nu_{k}", word), eps * (-1) ** (sum(r[:s]) + k + s)
        yield from _insertions(gens, "h", "mu", m, 1)

    return _image(gens, f"h_{m}", terms())


def build_homotopy_model(max_arity: int) -> DerivationDifferential:
    """The homotopy-through-homomorphisms operad, written on p, q, h families.

    p_k, q_k: B^k -> W of degree k-1 carry the morphism differential; h_k of
    degree k interpolates between them.
    """
    if max_arity < 1:
        raise ValueError("max_arity must be >= 1")
    specs = []
    for k in range(2, max_arity + 1):
        specs.append(GeneratorSpec(f"mu_{k}", Signature(B, (B,) * k), k - 2))
        specs.append(GeneratorSpec(f"nu_{k}", Signature(W, (W,) * k), k - 2))
    for k in range(1, max_arity + 1):
        specs.append(GeneratorSpec(f"p_{k}", Signature(W, (B,) * k), k - 1))
        specs.append(GeneratorSpec(f"q_{k}", Signature(W, (B,) * k), k - 1))
        specs.append(GeneratorSpec(f"h_{k}", Signature(W, (B,) * k), k))
    gens = GeneratorSet((B, W), specs)
    images = {}
    for m in range(2, max_arity + 1):
        images[f"mu_{m}"] = _quadratic_sum(gens, "mu", m)
        images[f"nu_{m}"] = _quadratic_sum(gens, "nu", m)
    for m in range(1, max_arity + 1):
        images[f"p_{m}"] = _morphism_image(gens, m, "p")
        images[f"q_{m}"] = _morphism_image(gens, m, "q")
        images[f"h_{m}"] = _homotopy_image(gens, m)
    return DerivationDifferential(gens, images)


def iso_generator_specs(max_index: int):
    """f_k: B->W (k even) or B->B (k odd); g_k: W->B (k even) or W->W (k odd)."""
    specs = []
    for k in range(0, max_index + 1):
        f_sig = Signature(W if k % 2 == 0 else B, (B,))
        g_sig = Signature(B if k % 2 == 0 else W, (W,))
        specs.append(GeneratorSpec(f"f_{k}", f_sig, k))
        specs.append(GeneratorSpec(f"g_{k}", g_sig, k))
    return specs


def build_iso_resolution(max_index: int) -> DerivationDifferential:
    """Resolution of the two-mutually-inverse-maps operad, indices 0..max_index."""
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    gens = GeneratorSet((B, W), iso_generator_specs(max_index))

    def comp(a, b):
        return _grafted(gens, a, (b,))

    images = {}
    for fam, other, home in (("f", "g", B), ("g", "f", W)):
        if max_index >= 1:
            # the identity strand of `home` is the shape `home`
            images[f"{fam}_1"] = _image(gens, f"{fam}_1", [(comp(f"{other}_0", f"{fam}_0"), 1), (home, -1)])
        for k in range(2, max_index + 1):
            if k % 2 == 0:
                m = k // 2
                words = []
                for i in range(0, m):
                    words.append((comp(f"{fam}_{2 * i}", f"{fam}_{2 * (m - i) - 1}"), 1))
                    words.append((comp(f"{other}_{2 * (m - i) - 1}", f"{fam}_{2 * i}"), -1))
            else:
                m = (k - 1) // 2
                words = [(comp(f"{other}_{2 * j}", f"{fam}_{2 * (m - j)}"), 1) for j in range(0, m + 1)]
                words += [(comp(f"{fam}_{2 * j + 1}", f"{fam}_{2 * (m - j) - 1}"), -1) for j in range(0, m)]
            images[f"{fam}_{k}"] = _image(gens, f"{fam}_{k}", words)
    return DerivationDifferential(gens, images)


# ---------------------------------------------------------------------------
# Verification


def verify_d_squared(diff: DerivationDifferential) -> Report:
    """Compute D(D(g)) for every generator exactly."""
    report = Report("D^2 = 0")
    for g in diff.base.generators:
        residual = extend_derivation(diff, diff.of(g.name))
        ok = residual.is_zero()
        report.add(g.name, ok, "" if ok else f"D^2({g.name}) = {residual.text()}")
    return report


# ---------------------------------------------------------------------------
# Renaming (color copies, theta-substitutions)


def rename_element(elem: OperadElement, target: GeneratorSet, name_map: dict, color_map=None) -> OperadElement:
    """Transport an element along a generator renaming and an optional edge
    recoloring (unmapped names and colors stay).  The signature is recolored
    too, also for a zero element."""
    colors = color_map or {}

    def rename_shape(shape):
        if isinstance(shape, str):
            return colors.get(shape, shape)
        return (name_map.get(shape[0], shape[0]),) + tuple(rename_shape(c) for c in shape[1:])

    sig = elem.signature
    if colors:
        sig = Signature(colors.get(sig.output, sig.output), tuple(colors.get(c, c) for c in sig.inputs))
    terms = collect_terms((TreeMonomial(target, rename_shape(m.shape)), c) for m, c in elem.terms.items())
    return OperadElement(target, terms, signature=sig, degree=elem.degree)
