import random
from fractions import Fraction

import pytest

from operadkit.linalg import (
    ChainComplex,
    ComplexValidationError,
    RationalMatrix,
    homology_dims,
    kernel_basis,
    rank,
    solve_linear,
)


def test_solve_identity():
    a = RationalMatrix.identity(3)
    assert solve_linear(a, [1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]


def test_solve_underdetermined_zeroes_free_variables():
    a = RationalMatrix([[1, 1]])
    assert solve_linear(a, [5]) == [Fraction(5), Fraction(0)]


def test_solve_inconsistent():
    a = RationalMatrix([[1], [1]])
    assert solve_linear(a, [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(RationalMatrix([[1, 2]]), [1, 2])


def test_kernel_examples():
    assert kernel_basis(RationalMatrix([[1, 1]])) == [[Fraction(-1), Fraction(1)]]
    assert kernel_basis(RationalMatrix.identity(2)) == []
    assert len(kernel_basis(RationalMatrix.zero(2, 2))) == 2


def test_rank_nullity_on_random_matrices():
    rng = random.Random(0)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert rank(a) + len(kernel_basis(a)) == cols


def test_solutions_verified_post_hoc():
    rng = random.Random(1)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = RationalMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        seed = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = a.mul_vec(seed)
        x = solve_linear(a, b)
        assert x is not None
        assert a.mul_vec(x) == b


def test_homology_acyclic_two_term():
    c = ChainComplex({0: 1, 1: 1}, {1: [[1]]})
    assert homology_dims(c) == {0: 0, 1: 0}


def test_homology_zero_differential():
    c = ChainComplex({0: 2, 1: 3})
    assert homology_dims(c) == {0: 2, 1: 3}


def test_homology_two_step_exact():
    # Q -> Q^2 -> Q with d_2 = (1,1)^T and d_1 = (1,-1): exact everywhere.
    c = ChainComplex({0: 1, 1: 2, 2: 1}, {1: [[1, -1]], 2: [[1], [1]]})
    assert homology_dims(c) == {0: 0, 1: 0, 2: 0}


def test_graded_complex_rejects_nonzero_square():
    with pytest.raises(ComplexValidationError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {1: [[1]], 2: [[1]]})


def test_homology_invariant_under_change_of_basis():
    rng = random.Random(2)
    c = ChainComplex({0: 2, 1: 3, 2: 2}, {1: [[1, 0, 0], [0, 0, 0]], 2: [[0, 0], [1, 0], [0, 0]]})
    base = homology_dims(c)
    for _ in range(10):
        # conjugate each differential by random invertible matrices
        p = {}
        for k, n in c.dims.items():
            while True:
                m = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                if rank(m) == n:
                    p[k] = m
                    break
        inv = {k: _inverse(m) for k, m in p.items()}
        d = {k: p[k - 1].mul(c.differential(k)).mul(inv[k]) for k in (1, 2)}
        conj = ChainComplex(dict(c.dims), d)
        assert homology_dims(conj) == base


def _inverse(m):
    n = m.rows
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(solve_linear(m, e))
    return RationalMatrix.from_columns(cols, n)


def test_kron_index_order():
    a = RationalMatrix([[1, 2]])
    b = RationalMatrix([[3], [4]])
    k = a.kron(b)
    assert k.entries == RationalMatrix([[3, 6], [4, 8]]).entries


def _conjugated_complex(rng):
    """(complex, expected homology dims): a sum of lone classes and pieces
    Q -> Q, conjugated degree by degree by random invertible matrices."""
    top = rng.randint(1, 4)
    lone = {k: rng.randint(0, 2) for k in range(top + 1)}
    pieces = {k: rng.randint(0, 2) for k in range(1, top + 1)}  # Q_k -> Q_{k-1}
    dims = {k: lone[k] + pieces.get(k, 0) + pieces.get(k + 1, 0) for k in range(top + 1)}
    d = {}
    for k, n in pieces.items():
        # basis of degree k: lone classes, piece sources, then piece targets
        m = RationalMatrix.zero(dims[k - 1], dims[k])
        for j in range(n):
            m.entries[lone[k - 1] + pieces.get(k - 1, 0) + j][lone[k] + j] = Fraction(1)
        d[k] = m
    p = {}
    for k, n in dims.items():
        while True:
            m = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if rank(m) == n:
                p[k] = m
                break
    conj = {k: p[k - 1].mul(m).mul(_inverse(p[k])) for k, m in d.items() if dims[k] and dims[k - 1]}
    expected = {k: h for k, h in lone.items() if dims[k]}
    return ChainComplex(dims, conj), expected


def test_homology_dims_match_sympy_on_conjugated_complexes():
    # independent route: dim ker d_k - rank d_{k+1}, with sympy's exact rank
    sympy = pytest.importorskip("sympy")

    def sympy_rank(m):
        flat = [sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row]
        return sympy.Matrix(m.rows, m.cols, flat).rank()

    rng = random.Random(3)
    for _ in range(30):
        c, expected = _conjugated_complex(rng)
        oracle = {
            k: c.dim(k) - sympy_rank(c.differential(k)) - sympy_rank(c.differential(k + 1))
            for k in c.degrees()
        }
        assert homology_dims(c) == oracle == expected
