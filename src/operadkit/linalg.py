"""Exact dense linear algebra over the rationals.

Plain fraction arithmetic with a fixed elimination order: pivots are chosen
leftmost-column-first, topmost-row-first, and underdetermined systems are
resolved by pinning every free variable to zero.  The fixed choices make all
downstream computations (tail solving, transfer steps) reproducible bit for
bit across runs.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalMatrix:
    """A dense matrix with Fraction entries, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = [[_frac(x) for x in row] for row in entries]
        self.rows = len(entries)
        if entries:
            self.cols = len(entries[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix")
        self.entries = entries

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls.zero(n, n)
        for i in range(n):
            m.entries[i][i] = Fraction(1)
        return m

    @classmethod
    def from_columns(cls, columns, rows: int) -> "RationalMatrix":
        m = cls.zero(rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, x in enumerate(col):
                m.entries[i][j] = _frac(x)
        return m

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def __repr__(self):
        return f"RationalMatrix({self.entries!r})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix([[c * x for x in row] for row in self.entries], cols=self.cols)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = RationalMatrix.zero(self.rows, other.cols)
        for i in range(self.rows):
            srow = self.entries[i]
            orow = out.entries[i]
            for k in range(self.cols):
                a = srow[k]
                if a == 0:
                    continue
                brow = other.entries[k]
                for j in range(other.cols):
                    if brow[j] != 0:
                        orow[j] += a * brow[j]
        return out

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((row[j] * v[j] for j in range(self.cols)), Fraction(0)) for row in self.entries]

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        # Leftmost tensor factor is the most significant index.
        out = RationalMatrix.zero(self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i][j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    for l in range(other.cols):
                        b = other.entries[k][l]
                        if b != 0:
                            out.entries[i * other.rows + k][j * other.cols + l] = a * b
        return out

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def kron_all(mats) -> RationalMatrix:
    out = None
    for m in mats:
        out = m if out is None else out.kron(m)
    if out is None:
        return RationalMatrix.identity(1)
    return out


def _rref(rows, ncols):
    """Reduce rows in place; return the pivot column list.

    Pivot order is fixed: scan columns left to right, take the topmost
    not-yet-used row with a nonzero entry.
    """
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


def rank(a: RationalMatrix) -> int:
    rows = [row[:] for row in a.entries]
    return len(_rref(rows, a.cols))


def solve_linear(a: RationalMatrix, b):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    aug = [row[:] + [_frac(b[i])] for i, row in enumerate(a.entries)]
    pivots = _rref(aug, a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [Fraction(0)] * a.cols
    for r, col in enumerate(pivots):
        x[col] = aug[r][a.cols]
    return x


def kernel_basis(a: RationalMatrix):
    """Exact basis of the null space of A, in a fixed order.

    Each basis vector has one free coordinate equal to 1 (the others zero),
    with free columns taken left to right.
    """
    rows = [row[:] for row in a.entries]
    pivots = _rref(rows, a.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * a.cols
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        basis.append(v)
    return basis


class ComplexValidationError(ValueError):
    """The per-degree data does not form a chain complex (d∘d != 0)."""


class ChainComplex:
    """Graded rational vector space with a square-zero degree -1 differential.

    ``dims`` maps degree -> dimension; ``d`` maps degree k to the matrix of
    d_k : degree k -> degree k-1 (shape dims[k-1] x dims[k]).  Missing
    matrices are zero.  ``color`` is a display label only; no check reads
    it.  A complex gets its color from the key it has in
    ``Representation.complexes``.
    """

    def __init__(self, dims: dict, d: dict | None = None, color: str | None = None):
        self.color = color
        self.dims = {int(k): int(n) for k, n in dims.items() if n}
        self.d = {}
        for k, mat in (d or {}).items():
            k = int(k)
            if not isinstance(mat, RationalMatrix):
                mat = RationalMatrix(mat)
            expected = (self.dim(k - 1), self.dim(k))
            if (mat.rows, mat.cols) != expected:
                raise ValueError(f"d_{k} has shape {(mat.rows, mat.cols)}, expected {expected}")
            if not mat.is_zero():
                self.d[k] = mat
        for k in self.d:
            if k - 1 in self.d and not self.d[k - 1].mul(self.d[k]).is_zero():
                raise ComplexValidationError(f"differential does not square to zero at degree {k}")

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def degrees(self):
        return sorted(self.dims)

    def differential(self, k: int) -> RationalMatrix:
        mat = self.d.get(k)
        return RationalMatrix.zero(self.dim(k - 1), self.dim(k)) if mat is None else mat

    def __repr__(self):
        return f"ChainComplex(dims={self.dims}, color={self.color!r})"


def cycle_basis(c: ChainComplex, k: int):
    return kernel_basis(c.differential(k))


def boundary_basis(c: ChainComplex, k: int):
    """A basis of the boundaries in degree k: the pivot columns of d_{k+1}."""
    d = c.differential(k + 1)
    pivots = _rref([row[:] for row in d.entries], d.cols)
    return [[row[j] for row in d.entries] for j in pivots]


def homology_representatives(c: ChainComplex, k: int):
    """Cycle vectors spanning H_k, and the boundary basis they complement.

    A cycle is kept when it is not in the span of the boundaries and the
    cycles before it: exactly the cycles that are pivot columns of the
    matrix [boundaries | cycles].
    """
    cycles = cycle_basis(c, k)
    bounds = boundary_basis(c, k)
    cols = bounds + cycles
    rows = [[v[i] for v in cols] for i in range(c.dim(k))]
    pivots = _rref(rows, len(cols))
    reps = [cols[j] for j in pivots if j >= len(bounds)]
    return reps, bounds


def homology_coordinates(c: ChainComplex, k: int, vector):
    """Coordinates of a cycle's class in the fixed representative basis."""
    reps, bounds = homology_representatives(c, k)
    cols = bounds + reps
    a = RationalMatrix.from_columns(cols, c.dim(k)) if cols else RationalMatrix.zero(c.dim(k), 0)
    x = solve_linear(a, vector)
    if x is None:
        raise ValueError("vector is not a cycle (or not in the chain space)")
    return x[len(bounds):]


def homology_dims(c: ChainComplex) -> dict:
    """dim H_k for every degree with chains."""
    return {k: len(homology_representatives(c, k)[0]) for k in c.degrees()}
