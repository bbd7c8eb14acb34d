"""Seeded input generators for the benchmark jobs.

Each generator builds its input from a ``random.Random(seed)`` through the
public ``operadkit`` API only, and validates it before returning, so that a
bad input is reported as a set-up error and is never timed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from operadkit import (
    ChainComplex,
    DerivationDifferential,
    MultilinearMap,
    OperadElement,
    RationalMatrix,
    build_ainf,
    compose_maps,
    hom_differential,
    identity_map,
    verify_d_squared,
)

# Numerators and denominators of the rescaling constants c_k.  Small values
# keep the cost of the tail solve close to that of the unscaled base, so the
# seed changes the denominators of the answer but not the size of the work.
_SCALES = (1, 2, 3, 5)


def scaled_ainf(seed: int, max_arity: int) -> DerivationDifferential:
    """The A-infinity base with mu_k replaced by c_k * mu_k for seeded c_k != 0.

    If mu'_k = c_k mu_k then D(mu'_k) = c_k D(mu_k), and a monomial whose
    vertices are mu_i, mu_j, ... becomes (1 / (c_i c_j ...)) times the same
    monomial in the mu' names.  The rescaled model is isomorphic to the base,
    but its solved tails carry denominators.
    """
    rng = random.Random(seed)
    base = build_ainf(max_arity)
    scale = {}
    for g in base.base.generators:
        sign = rng.choice((-1, 1))
        scale[g.name] = Fraction(sign * rng.choice(_SCALES), rng.choice(_SCALES))
    images = {}
    for g in base.base.generators:
        terms = {}
        for mono, coeff in base.of(g.name).terms.items():
            c = coeff * scale[g.name]
            for v in mono.vertex_names():
                c /= scale[v]
            terms[mono] = c
        img = base.of(g.name)
        images[g.name] = OperadElement(base.base, terms, signature=img.signature, degree=img.degree)
    model = DerivationDifferential(base.base, images)
    if not verify_d_squared(model).ok:
        raise ValueError(f"seed {seed}: rescaled A-infinity base fails D^2 = 0")
    return model


# The Koszul dga U = k[x,y]/(x^2, y^2) (x) Lambda(z), |x| = |y| = -2,
# |z| = -3, dz = xy.  Basis per degree, in this order:
_KOSZUL_BASIS = {
    0: ("1",),
    -2: ("x", "y"),
    -3: ("z",),
    -4: ("xy",),
    -5: ("xz", "yz"),
    -7: ("xyz",),
}
# Products of basis elements that are nonzero (1 is the unit).  The algebra
# is graded commutative and x, y are even, so every listed product is
# symmetric and no Koszul sign appears.
_KOSZUL_PRODUCTS = {
    frozenset(("x", "y")): "xy",
    frozenset(("x", "z")): "xz",
    frozenset(("y", "z")): "yz",
    frozenset(("x", "yz")): "xyz",
    frozenset(("y", "xz")): "xyz",
    frozenset(("z", "xy")): "xyz",
}


def _koszul_product(a: str, b: str):
    if a == "1":
        return b
    if b == "1":
        return a
    return _KOSZUL_PRODUCTS.get(frozenset((a, b)))


def _unimodular(rng: random.Random, n: int):
    """(P, P^-1) for a seeded integer matrix of determinant +-1."""
    p = RationalMatrix.identity(n)
    p_inv = RationalMatrix.identity(n)
    for i in range(n):
        if rng.random() < 0.5:
            flip = RationalMatrix.identity(n)
            flip.entries[i][i] = Fraction(-1)
            p, p_inv = p.mul(flip), flip.mul(p_inv)
    for _ in range(2 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rng.choice((-1, 1))
        e = RationalMatrix.identity(n)
        e_inv = RationalMatrix.identity(n)
        e.entries[i][j] = Fraction(a)
        e_inv.entries[i][j] = Fraction(-a)
        p, p_inv = p.mul(e), e_inv.mul(p_inv)
    return p, p_inv


def koszul_dga(seed: int):
    """(U, mu): the Koszul dga above in a seeded unimodular basis per degree.

    Returns the complex, coloured ``W`` as the transfer target, and its
    product.  Checks that the product is a chain map and strictly
    associative.
    """
    rng = random.Random(seed)
    degrees = sorted(_KOSZUL_BASIS, reverse=True)
    change = {k: _unimodular(rng, len(_KOSZUL_BASIS[k])) for k in degrees}
    index = {k: {name: i for i, name in enumerate(names)} for k, names in _KOSZUL_BASIS.items()}

    # d_{-3}: z -> xy, conjugated: d' = P_{-4}^-1 d P_{-3}
    d = RationalMatrix([[1]])
    d = change[-4][1].mul(d).mul(change[-3][0])
    u = ChainComplex({k: len(v) for k, v in _KOSZUL_BASIS.items()}, {-3: d}, "W")

    blocks = {}
    for k1 in degrees:
        for k2 in degrees:
            target = k1 + k2
            if target not in _KOSZUL_BASIS:
                continue
            n1, n2 = len(_KOSZUL_BASIS[k1]), len(_KOSZUL_BASIS[k2])
            mat = RationalMatrix.zero(len(_KOSZUL_BASIS[target]), n1 * n2)
            for i, a in enumerate(_KOSZUL_BASIS[k1]):
                for j, b in enumerate(_KOSZUL_BASIS[k2]):
                    prod = _koszul_product(a, b)
                    if prod is not None:
                        mat.entries[index[target][prod]][i * n2 + j] = Fraction(1)
            mat = change[target][1].mul(mat).mul(change[k1][0].kron(change[k2][0]))
            blocks[(k1, k2)] = mat
    mu = MultilinearMap((u, u), u, 0, blocks)

    if not hom_differential(mu).is_zero():
        raise ValueError(f"seed {seed}: Koszul product is not a chain map")
    one = identity_map(u)
    if not compose_maps(mu, [mu, one]).sub(compose_maps(mu, [one, mu])).is_zero():
        raise ValueError(f"seed {seed}: Koszul product is not associative")
    return u, mu
