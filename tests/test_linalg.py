import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadkit.linalg import (
    ChainComplex,
    ComplexValidationError,
    RationalMatrix,
    _back_substitute,
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


# ---------------------------------------------------------------------------
# Independent oracles: sympy's exact rank, rref and nullspace


def _random_sparse_matrix(rng):
    """Seeded sparse integer or rational matrices, half of them of low rank."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.random()
    if rows and cols and rng.random() < 0.5:
        inner = rng.randint(1, 3)
        left = [[rng.randint(-2, 2) if rng.random() < density else 0 for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(cols)] for _ in range(inner)]
        entries = [[sum(l[t] * right[t][j] for t in range(inner)) for j in range(cols)] for l in left]
    else:
        entries = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
    return RationalMatrix(entries, cols=cols)


def _to_sympy(sympy, m):
    flat = [sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row]
    return sympy.Matrix(m.rows, m.cols, flat)


def _from_sympy(vector):
    return [Fraction(int(x.p), int(x.q)) for x in vector]


def test_rank_kernel_and_solve_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    shapes = [RationalMatrix([], cols=3), RationalMatrix([[], []]), RationalMatrix([], cols=0)]
    mats = shapes + [_random_sparse_matrix(rng) for _ in range(200)]
    inconsistent = 0
    for a in mats:
        s = _to_sympy(sympy, a)
        assert rank(a) == s.rank()
        assert kernel_basis(a) == [_from_sympy(v) for v in s.nullspace()]
        pivots = s.rref()[1]
        for _ in range(2):
            if rng.random() < 0.5:  # consistent by construction
                b = a.mul_vec([Fraction(rng.randint(-3, 3)) for _ in range(a.cols)])
            else:
                b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(a.rows)]
            x = solve_linear(a, b)
            augmented = s.row_join(_to_sympy(sympy, RationalMatrix([[v] for v in b], cols=1)))
            if augmented.rank() > s.rank():
                assert x is None
                inconsistent += 1
                continue
            assert x is not None and a.mul_vec(x) == b
            assert all(x[j] == 0 for j in range(a.cols) if j not in pivots)
    assert inconsistent > 20


def test_int_written_entries_give_exact_fraction_answers():
    # from_rows stores int entries as given; the eliminator must still
    # invert its pivots exactly and answer in Fractions.
    a = RationalMatrix.from_rows([{0: 3, 1: 1}], 2)
    x = solve_linear(a, [1])
    assert x == [Fraction(1, 3), Fraction(0)]
    assert kernel_basis(a) == [[Fraction(-1, 3), Fraction(1)]]
    assert rank(a) == 1

    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.choice((0, 0, 1, -1, 2, 3, -5)) for _ in range(cols)] for _ in range(rows)]
        a = RationalMatrix.from_rows([dict(enumerate(row)) for row in dense], cols)
        b = [rng.randint(-3, 3) for _ in range(rows)]
        s = sympy.Matrix(dense)
        assert rank(a) == s.rank()
        kernel = kernel_basis(a)
        assert kernel == [_from_sympy(v) for v in s.nullspace()]
        x = solve_linear(a, b)
        if s.row_join(sympy.Matrix(b)).rank() > s.rank():
            assert x is None
            continue
        assert a.mul_vec(x) == b
        assert all(type(v) is Fraction for v in x + [v for vec in kernel for v in vec])


_small = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3))


@st.composite
def _system_with_row_order(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.lists(st.lists(_small, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    b = draw(st.lists(_small, min_size=rows, max_size=rows))
    order = draw(st.permutations(range(rows)))
    return RationalMatrix(entries, cols=cols), b, order


@settings(max_examples=100, deadline=None)
@given(_system_with_row_order())
def test_row_order_is_free(system):
    a, b, order = system
    permuted = RationalMatrix([a.entries[i] for i in order], cols=a.cols)
    assert solve_linear(permuted, [b[i] for i in order]) == solve_linear(a, b)
    assert kernel_basis(permuted) == kernel_basis(a)
    assert rank(permuted) == rank(a)


# ---------------------------------------------------------------------------
# Sparse against dense: the list-of-lists arithmetic and the dense-scan
# solve path (every entry tested, rows eliminated in their given order)
# that the sparse rows replaced, kept as the reference


def _ref_mul(a, b, cols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(cols)] for row in a]


def _ref_kron(a, b):
    # Leftmost factor most significant, in rows and in columns.
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _ref_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scan_echelon(dense):
    pivots = {}
    for row in ({j: x for j, x in enumerate(r) if x} for r in dense):
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = {j: Fraction(x) / row[col] for j, x in row.items()}
                break
            f = row.pop(col)
            for j, y in prow.items():
                if j != col:
                    x = row.get(j, 0) - f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
    return pivots


def _scan_answers(dense, cols, b):
    """(rank, solution, kernel basis) by the dense-scan path."""
    pivots = _scan_echelon(dense)
    kernel = []
    for free in range(cols):
        if free not in pivots:
            v = [Fraction(0)] * cols
            v[free] = Fraction(1)
            kernel.append(_back_substitute(pivots, v))
    augmented = _scan_echelon([row + [rhs] for row, rhs in zip(dense, b)])
    x = None
    if cols not in augmented:
        x = _back_substitute(augmented, [Fraction(0)] * cols + [Fraction(-1)])[:cols]
    return len(pivots), x, kernel


@st.composite
def _dense_case(draw):
    """Dense r x c matrices A and B, a c x k matrix M, a vector of length c,
    a right-hand side of length r and a scalar, with explicit zeros and int
    or Fraction entries; A, B and M also as matrices, stored from the dense
    lists by the constructor (Fractions) or by from_rows (as given)."""
    r, c, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 4))

    def dense(rows, cols):
        return draw(st.lists(st.lists(_small, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    def matrix(d, cols):
        if draw(st.booleans()):
            return RationalMatrix(d, cols=cols)
        return RationalMatrix.from_rows([dict(enumerate(row)) for row in d], cols)

    da, db, dm = dense(r, c), dense(r, c), dense(c, k)
    vec, rhs, scalar = draw(st.lists(_small, min_size=c, max_size=c)), dense(1, r)[0], draw(_small)
    return (da, db, dm, vec, rhs, scalar), (matrix(da, c), matrix(db, c), matrix(dm, k))


def _agrees(m, dense, shape):
    # == compares the stored rows, so a stored zero shows here.
    return (m.rows, m.cols) == shape and m.entries == dense and m == RationalMatrix(dense, cols=shape[1])


@settings(max_examples=100, deadline=None)
@given(_dense_case())
def test_sparse_rows_agree_with_dense_reference(case):
    (da, db, dm, vec, rhs, scalar), (a, b, m) = case
    r, c, k = a.rows, a.cols, m.cols
    assert _agrees(a, da, (r, c))
    assert _agrees(a.mul(m), _ref_mul(da, dm, k), (r, k))
    assert _agrees(a.kron(m), _ref_kron(da, dm), (r * c, c * k))
    assert _agrees(a.add(b), _ref_add(da, db), (r, c))
    assert _agrees(a.sub(b), _ref_add(da, db, -1), (r, c))
    assert _agrees(a.scale(scalar), [[scalar * x for x in row] for row in da], (r, c))
    assert a.mul_vec(vec) == [sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in da]
    assert a.is_zero() == all(x == 0 for row in da for x in row)
    assert (a == b) == (da == db)
    assert a.sub(b).add(b) == a
    assert (rank(a), solve_linear(a, rhs), kernel_basis(a)) == _scan_answers(da, c, rhs)
    with_zeros = RationalMatrix.from_rows([dict(enumerate(row)) for row in da], c)
    without = RationalMatrix.from_rows([{j: x for j, x in enumerate(row) if x} for row in da], c)
    assert with_zeros == without == a


def test_entries_item_writes_land_in_the_matrix():
    # Seeded generators outside the package set entries this way.
    m = RationalMatrix.identity(3)
    m.entries[0][1] = Fraction(2)
    assert m == RationalMatrix([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert m.mul(m) == RationalMatrix([[1, 4, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m) == 3
    z = RationalMatrix.zero(2, 2)
    z.entries[1][0] = Fraction(1)
    assert z == RationalMatrix([[0, 0], [1, 0]])
    assert z.mul(z).is_zero() and rank(z) == 1
    z.entries[1][-2] = 0  # a zero write removes the entry
    assert z == RationalMatrix.zero(2, 2) and rank(z) == 0
    with pytest.raises(TypeError):
        z.entries[0] = [1, 1]  # the view is rebuilt on each read: whole rows would be lost
    with pytest.raises(TypeError):
        z.entries[0][0] = 0.5
    with pytest.raises(IndexError):
        z.entries[0][2] = 1


def test_hot_paths_never_build_the_dense_view(monkeypatch):
    import operadkit.transfer as transfer
    from operadkit.differentials import build_ainf
    from operadkit.tails import build_model_btow
    from test_transfer import koszul_dga

    state = transfer.scenario_symmetrization(*koszul_dga(), 2)

    def dense_view(m):
        raise AssertionError("a solve path built the dense entries view")

    monkeypatch.setattr(RationalMatrix, "entries", property(dense_view))
    build_model_btow(build_ainf(5), 5)
    assert transfer.extend_to_arity(state, 4).k == 4


# ---------------------------------------------------------------------------
# Old against new: the dense Gauss-Jordan elimination the sparse eliminator
# replaced, kept as the reference on recorded systems


def _dense_rref(rows, ncols):
    """Reduce dense rows in place; return the pivot column list."""
    pivots = []
    piv_r = 0
    nrows = len(rows)
    for col in range(ncols):
        sel = None
        for r in range(piv_r, nrows):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        inv = 1 / rows[piv_r][col]
        rows[piv_r] = [x * inv for x in rows[piv_r]]
        for r in range(nrows):
            if r != piv_r and rows[r][col] != 0:
                f = rows[r][col]
                prow = rows[piv_r]
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
        pivots.append(col)
        piv_r += 1
        if piv_r == nrows:
            break
    return pivots


def _dense_answers(a, b):
    """(rank, solution, kernel basis) of the dense reference."""
    aug = [row[:] + [Fraction(x)] for row, x in zip(a.entries, b)]
    pivots = _dense_rref(aug, a.cols + 1)
    x = None
    if not (pivots and pivots[-1] == a.cols):
        x = [Fraction(0)] * a.cols
        for r, col in enumerate(pivots):
            x[col] = aug[r][a.cols]
    rows = [row[:] for row in a.entries]
    pivots = _dense_rref(rows, a.cols)
    kernel = []
    for free in range(a.cols):
        if free not in pivots:
            v = [Fraction(0)] * a.cols
            v[free] = Fraction(1)
            for r, col in enumerate(pivots):
                v[col] = -rows[r][free]
            kernel.append(v)
    return len(pivots), x, kernel


def test_sparse_eliminator_matches_dense_reference_on_recorded_systems(monkeypatch):
    import operadkit.tails as tails
    import operadkit.transfer as transfer
    from operadkit.differentials import build_ainf
    from test_transfer import four_dim_dga, three_dim_dga

    recorded = []

    def recording(a, b):
        recorded.append((a, list(b)))
        return solve_linear(a, b)

    monkeypatch.setattr(tails, "solve_linear", recording)
    monkeypatch.setattr(transfer, "solve_linear", recording)
    tails.build_model_btow(build_ainf(5), 5)
    tail_systems = len(recorded)
    for dga in (three_dim_dga, four_dim_dga):
        transfer.scenario_symmetrization(*dga(), 3)
    assert tail_systems == 3 and len(recorded) == 7
    assert any(a.cols > rank(a) for a, _ in recorded[tail_systems:])  # free variables occur
    for a, b in recorded:
        assert (rank(a), solve_linear(a, b), kernel_basis(a)) == _dense_answers(a, b)
