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
extension on that differential reuses it.  The extension merges its terms
by bare shape and builds a monomial only for each sum that survives, so a
D^2 = 0 check builds none.

Model builders cover the associahedron-type operad (structure maps mu_n with
the classical quadratic differential), its two-colored morphism version
(mu, nu, f families), the homotopy-through-homomorphisms operad (p, q, h
families), and the resolution of the two-mutually-inverse-maps operad
(unary f_k, g_k with alternating colors).
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
    _combination_terms,
    _element_of_shapes,
    _plug,
    collect_terms,
    compose_full,
    graft,
    leaf_suffix_degrees,
)
from .reports import Report

B, W = "B", "W"


class DerivationDifferential:
    """A degree -1 derivation, given by its generator images.

    `images` is a read-only mapping with one image per generator (a missing
    one is zero).  The Leibniz rule splices each image through a table built
    from it once and cached, which a later write would leave stale.
    """

    def __init__(self, base: GeneratorSet, images: dict):
        unknown = sorted(name for name in images if name not in base)
        if unknown:
            raise ValueError(f"images for names that are not generators: {', '.join(unknown)}")
        self.base = base
        table = {}
        for g in base.generators:
            img = images.get(g.name)
            if img is None or img.is_zero():
                img = OperadElement.zero(base, g.signature, g.degree - 1)
            else:
                if img.signature != g.signature:
                    raise ValueError(f"D({g.name}) lives in {img.signature}, expected {g.signature}")
                if img.degree != g.degree - 1:
                    raise ValueError(f"D({g.name}) has degree {img.degree}, expected {g.degree - 1}")
                if any(m.gens is not base for m in img.terms):
                    terms = {_checked_over(base, m): c for m, c in img.terms.items()}
                    img = OperadElement(base, terms, signature=img.signature, degree=img.degree)
            table[g.name] = img
        self.images = MappingProxyType(table)
        self._splices = {}

    def of(self, name: str) -> OperadElement:
        try:
            return self.images[name]
        except KeyError:
            raise KeyError(f"no differential image for generator {name!r}") from None

    def __call__(self, elem: OperadElement) -> OperadElement:
        return extend_derivation(self, elem)

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
    """Leibniz extension of the generator images to a whole element.

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

    Terms are merged by shape, and a monomial is built only for each sum
    that does not cancel.
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

    def pairs():
        for mono, coeff in elem.terms.items():
            shape = _checked_over(base, mono).shape
            if shape.__class__ is str:
                continue  # an identity strand has no vertex to differentiate
            for new, odd, c in derive(shape)[1]:
                c = coeff * c
                yield new, (-c if odd else c)

    deg = None if elem.degree is None else elem.degree - 1
    return _element_of_shapes(base, collect_terms(pairs()), elem.signature, deg)


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


def _letter_over(gens, letter: str, inner_name: str) -> OperadElement:
    """The generator `inner_name` grafted into the first leaf of `letter`."""
    return graft(TreeMonomial.generator(gens, letter), 1, TreeMonomial.generator(gens, inner_name))


def _image(gens, name: str, parts) -> OperadElement:
    """The sum of c * elem over the (c, elem) parts, in the component of D(name)."""
    spec = gens.spec(name)
    terms = collect_terms(_combination_terms(parts))
    return OperadElement(gens, terms, signature=spec.signature, degree=spec.degree - 1)


def _insertions(gens, outer: str, inner: str, m: int, first: int, sign=1):
    """The (c, elem) parts of sign * the sum over i+j = m+1, i >= first,
    j >= 2 of (-1)^(i+s(j+1)) outer_i(1^s (x) inner_j (x) 1^(i-s-1))."""
    for i in range(first, m):
        j = m + 1 - i
        gi = TreeMonomial.generator(gens, f"{outer}_{i}")
        gj = TreeMonomial.generator(gens, f"{inner}_{j}")
        for s in range(0, m - j + 1):
            yield (-sign if (i + s * (j + 1)) % 2 else sign), graft(gi, s + 1, gj)


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


def _morphism_image(gens, m, f_family, mu_family, nu_family) -> OperadElement:
    """The two-colored morphism differential at arity m.

    D(f_m) = - sum_k sum_{r1+..+rk=m} (-1)^(sum_{i<j} r_i (r_j+1)) nu_k(f_{r_1},..,f_{r_k})
             - sum_{i+j=m+1, i>=1, j>=2} (-1)^(i+s(j+1)) f_i(1^s (x) mu_j (x) 1^(i-s-1)).
    """

    def nu_parts():
        for k in range(2, m + 1):
            nu_k = TreeMonomial.generator(gens, f"{nu_family}_{k}")
            for r in compositions(m, k):
                e = sum(r[i] * (r[j] + 1) for i in range(k) for j in range(i + 1, k))
                word = [OperadElement.from_generator(gens, f"{f_family}_{ri}") for ri in r]
                yield (-1 if e % 2 == 0 else 1), compose_full(nu_k, word)

    insertions = _insertions(gens, f_family, mu_family, m, 1, sign=-1)
    return _image(gens, f"{f_family}_{m}", chain(nu_parts(), insertions))


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
        images[f"f_{m}"] = _morphism_image(gens, m, "f", "mu", "nu")
    return DerivationDifferential(gens, images)


def _homotopy_image(gens, m) -> OperadElement:
    """D(h_m) = p_m - q_m + the signed nu_k(p..p h q..q) sum + the h_i(mu_j) sum."""

    def parts():
        yield 1, OperadElement.from_generator(gens, f"p_{m}")
        yield -1, OperadElement.from_generator(gens, f"q_{m}")
        for k in range(2, m + 1):
            nu_k = TreeMonomial.generator(gens, f"nu_{k}")
            for r in compositions(m, k):
                base = sum(r[i] * (r[j] + 1) for i in range(k) for j in range(i + 1, k))
                for s in range(0, k):
                    # s leading p's, then h at slot s+1, then q's
                    eps = base + sum(r[:s]) + k + s
                    word = [OperadElement.from_generator(gens, f"p_{ri}") for ri in r[:s]]
                    word.append(OperadElement.from_generator(gens, f"h_{r[s]}"))
                    word.extend(OperadElement.from_generator(gens, f"q_{ri}") for ri in r[s + 1 :])
                    yield (-1 if eps % 2 else 1), compose_full(nu_k, word)
        yield from _insertions(gens, "h", "mu", m, 1)

    return _image(gens, f"h_{m}", parts())


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
        images[f"p_{m}"] = _morphism_image(gens, m, "p", "mu", "nu")
        images[f"q_{m}"] = _morphism_image(gens, m, "q", "mu", "nu")
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
        return _letter_over(gens, a, b)

    def unit(color):
        return OperadElement.monomial(TreeMonomial.identity(gens, color))

    images = {}
    for fam, other, home in (("f", "g", B), ("g", "f", W)):
        images[f"{fam}_0"] = OperadElement.zero(gens)
        if max_index >= 1:
            images[f"{fam}_1"] = comp(f"{other}_0", f"{fam}_0") - unit(home)
        for k in range(2, max_index + 1):
            if k % 2 == 0:
                m = k // 2
                words = []
                for i in range(0, m):
                    words.append((1, comp(f"{fam}_{2 * i}", f"{fam}_{2 * (m - i) - 1}")))
                    words.append((-1, comp(f"{other}_{2 * (m - i) - 1}", f"{fam}_{2 * i}")))
            else:
                m = (k - 1) // 2
                words = [(1, comp(f"{other}_{2 * j}", f"{fam}_{2 * (m - j)}")) for j in range(0, m + 1)]
                words += [(-1, comp(f"{fam}_{2 * j + 1}", f"{fam}_{2 * (m - j) - 1}")) for j in range(0, m)]
            images[f"{fam}_{k}"] = _image(gens, f"{fam}_{k}", words)
    return DerivationDifferential(gens, images)


# ---------------------------------------------------------------------------
# Verification


def verify_d_squared(diff: DerivationDifferential) -> Report:
    """Compute D(D(g)) for every generator exactly."""
    report = Report("D^2 = 0")
    for g in diff.base.generators:
        residual = diff(diff.of(g.name))
        ok = residual.is_zero()
        report.add(g.name, ok, "" if ok else f"D^2({g.name}) = {residual.text(compact=True)}", residual)
    return report


def verify_minimality(diff: DerivationDifferential) -> Report:
    """Check that every image monomial is decomposable (>= 2 vertices).

    Constant terms (zero vertices, the identity strand) and linear terms
    (a single bare generator) are reported separately.
    """
    report = Report("minimality (decomposable differentials)")
    for g in diff.base.generators:
        bad = []
        for mono, coeff in diff.of(g.name).items():
            if mono.nvertices == 0:
                bad.append(f"constant term {coeff} * {mono.compact()}")
            elif mono.nvertices == 1:
                bad.append(f"linear term {coeff} * {mono.compact()}")
        report.add(g.name, not bad, "; ".join(bad))
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
    if sig is not None and colors:
        sig = Signature(colors.get(sig.output, sig.output), tuple(colors.get(c, c) for c in sig.inputs))
    terms = collect_terms((TreeMonomial(target, rename_shape(m.shape)), c) for m, c in elem.terms.items())
    return OperadElement(target, terms, signature=sig, degree=elem.degree)
