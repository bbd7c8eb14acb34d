"""Exact linear algebra over the rationals.

Matrices are dense (``RationalMatrix``); elimination is sparse.  This is
the one module that knows a matrix's dense layout: other modules build a
matrix from sparse rows with ``RationalMatrix.from_rows`` (or from columns
or lists) and only read ``entries``.  One eliminator, ``_echelon``, brings
rows held as dicts of their nonzero Fraction entries to row echelon form,
and ``rank``, ``solve_linear``, ``kernel_basis``, ``boundary_basis`` and
``homology_representatives`` all go through it.  Its answers are canonical:

- the pivot columns are the columns not in the span of the columns to
  their left;
- ``solve_linear`` pins every free variable to zero, so its answer is the
  unique solution supported on the pivot columns;
- ``kernel_basis`` has one vector per free column, equal to 1 there and 0
  at the other free columns (the rows of the reduced row echelon form).

None of these depend on the order in which rows are eliminated, so every
downstream computation (tail solving, transfer steps) is reproducible bit
for bit.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _frac(x) -> Fraction:
    """`x` as a Fraction.  Ints, rationals and exact strings are accepted; a
    float, or any other number that is not a rational, raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (Rational, str)):
        return Fraction(x)
    raise TypeError(f"inexact matrix entry {x!r}: give an int, a Fraction or a 'p/q' string")


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
        # Filled directly: the entries are Fractions and the rows even by
        # construction, so __init__'s conversion and checks are not needed.
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.entries = [[Fraction(0)] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows([{i: Fraction(1)} for i in range(n)], n)

    @classmethod
    def from_rows(cls, rows, cols: int) -> "RationalMatrix":
        """The matrix whose row i holds the dict rows[i] (column -> entry),
        zero elsewhere.  Entries are stored as given, so they must already
        be Fractions."""
        m = cls.zero(len(rows), cols)
        for dense, row in zip(m.entries, rows):
            for j, x in row.items():
                dense[j] = x
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


def _sparse_rows(a: RationalMatrix):
    return [{j: x for j, x in enumerate(row) if x} for row in a.entries]


def _echelon(rows) -> dict:
    """Row echelon form of sparse rows, as {pivot column: row}.

    Each row is a dict column -> nonzero rational (int or Fraction) and is
    consumed.  It is reduced left to right against the pivot rows found so
    far; its leftmost surviving column becomes a new pivot, and the row is
    scaled so that its entry there is 1.  The pivot is inverted as a
    Fraction, so the pivot rows, and everything derived from them, are
    Fractions even when the input entries are ints.  A row that reduces to
    nothing is dropped.
    """
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = Fraction(1) / row[col]
                pivots[col] = {j: x * inv for j, x in row.items()}
                break
            f = row.pop(col)
            for j, y in prow.items():
                if j == col:
                    continue
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                else:
                    x -= f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
    return pivots


def _back_substitute(pivots: dict, x: list) -> list:
    """Set x at every pivot column, right to left, so that each pivot row
    annihilates x; the other entries of x are kept as given."""
    for col in sorted(pivots, reverse=True):
        x[col] = -sum((y * x[j] for j, y in pivots[col].items() if j != col), Fraction(0))
    return x


def rank(a: RationalMatrix) -> int:
    return len(_echelon(_sparse_rows(a)))


def solve_linear(a: RationalMatrix, b):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    rows = _sparse_rows(a)
    for row, rhs in zip(rows, b):
        if rhs:
            row[a.cols] = _frac(rhs)
    pivots = _echelon(rows)
    if a.cols in pivots:
        return None
    # The right-hand side is column a.cols with x = -1 there.
    x = _back_substitute(pivots, [Fraction(0)] * a.cols + [Fraction(-1)])
    return x[: a.cols]


def kernel_basis(a: RationalMatrix):
    """Exact basis of the null space of A, in a fixed order.

    Each basis vector has one free coordinate equal to 1 (the others zero),
    with free columns taken left to right.
    """
    pivots = _echelon(_sparse_rows(a))
    basis = []
    for free in range(a.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * a.cols
        v[free] = Fraction(1)
        basis.append(_back_substitute(pivots, v))
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
        if any(n < 0 for n in self.dims.values()):
            raise ValueError(f"negative dimension in {self.dims}")
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
    return [[row[j] for row in d.entries] for j in sorted(_echelon(_sparse_rows(d)))]


def homology_representatives(c: ChainComplex, k: int):
    """Cycle vectors spanning H_k, and the boundary basis they complement.

    A cycle is kept when it is not in the span of the boundaries and the
    cycles before it: exactly the cycles that are pivot columns of the
    matrix [boundaries | cycles].
    """
    cycles = cycle_basis(c, k)
    bounds = boundary_basis(c, k)
    cols = bounds + cycles
    rows = [{j: v[i] for j, v in enumerate(cols) if v[i]} for i in range(c.dim(k))]
    reps = [cols[j] for j in sorted(_echelon(rows)) if j >= len(bounds)]
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
