"""Exact linear algebra over the rationals.

A matrix (``RationalMatrix``) stores one dict of its nonzero entries per
row, column -> entry, and nothing else: arithmetic and every solve touch
only stored entries.  Other modules build a matrix with
``RationalMatrix.from_rows`` (or from columns or lists) and read it with
``row_items``; ``entries`` is a dense view built when read, for
serialization and display.  Entries that enter a matrix (through the
constructor, ``from_columns``, an ``entries`` item write, the factor of
``scale`` or the right-hand side of ``solve_linear``) are put in the
coefficient normal form of ``core.exact``: an int when the value is
integral, else a Fraction, so the arithmetic on integral data is on ints.
``from_rows`` stores its ints and Fractions as given.

One eliminator, ``_echelon``, brings the rows to row echelon form, taking
them sparsest first, and ``rank``, ``solve_linear``, ``kernel_basis``,
``boundary_basis`` and ``homology_representatives`` all go through it.
Its answers are canonical:

- the pivot columns are the columns not in the span of the columns to
  their left;
- ``solve_linear`` pins every free variable to zero, so its answer is the
  unique solution supported on the pivot columns;
- ``kernel_basis`` has one vector per free column, equal to 1 there and 0
  at the other free columns (the rows of the reduced row echelon form).

None of these depend on the order in which rows are eliminated, so the
sparsest-first order changes only the cost, and every downstream
computation (tail solving, transfer steps) is reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from .core import exact, integer


class _DenseRow(list):
    """One row of the dense ``entries`` view.  An item write also lands in
    the matrix's sparse row, so ``m.entries[i][j] = x`` sets an entry."""

    __slots__ = ("_sparse",)

    def __init__(self, values, sparse: dict):
        super().__init__(values)
        self._sparse = sparse

    def __setitem__(self, j, x):
        x = exact(x, "matrix entry")
        super().__setitem__(j, x)  # checks the index
        j %= len(self)
        if x:
            self._sparse[j] = x
        else:
            self._sparse.pop(j, None)


class _DenseView(list):
    """The dense ``entries`` view: a whole row cannot be assigned, since
    the view is rebuilt on every read and the write would be lost."""

    __slots__ = ()

    def __setitem__(self, i, row):
        raise TypeError("set matrix entries one at a time: m.entries[i][j] = x")


class RationalMatrix:
    """A matrix with rational entries, stored as one dict per row of its
    nonzero entries (column -> entry, never a stored zero)."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, entries, cols=None):
        entries = [[exact(x, "matrix entry") for x in row] for row in entries]
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else cols or 0
        if any(len(row) != self.cols for row in entries):
            raise ValueError("ragged rows in matrix")
        self._rows = [{j: x for j, x in enumerate(row) if x} for row in entries]

    @classmethod
    def _of(cls, rows: list, cols: int) -> "RationalMatrix":
        """The matrix holding `rows`, dicts without zeros, as its storage."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._rows = len(rows), cols, rows
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of([{i: 1} for i in range(n)], n)

    @classmethod
    def from_rows(cls, rows, cols: int) -> "RationalMatrix":
        """The matrix whose row i holds the dict rows[i] (column -> entry),
        zero elsewhere.  Zero values are dropped; the others are stored as
        given, so they must be ints or Fractions."""
        return cls._of([{j: x for j, x in row.items() if x} for row in rows], cols)

    @classmethod
    def from_columns(cls, columns, rows: int) -> "RationalMatrix":
        m = cls.zero(rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for row, x in zip(m._rows, col):
                x = exact(x, "matrix entry")
                if x:
                    row[j] = x
        return m

    def row_items(self, i: int):
        """The (column, entry) pairs of row i's nonzero entries."""
        return self._rows[i].items()

    @property
    def entries(self) -> list:
        """The dense rows, built on each read; item writes set entries."""
        dense = _DenseView()
        for row in self._rows:
            values = [0] * self.cols
            for j, x in row.items():
                values[j] = x
            dense.append(_DenseRow(values, row))
        return dense

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._rows == other._rows

    def __repr__(self):
        return f"RationalMatrix({self.entries!r})"

    def is_zero(self) -> bool:
        return not any(self._rows)

    def add(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            row = dict(r1)
            for j, y in r2.items():
                x = row.get(j, 0) + y
                if x:
                    row[j] = x
                else:
                    del row[j]
            out.append(row)
        return RationalMatrix._of(out, self.cols)

    def sub(self, other: "RationalMatrix") -> "RationalMatrix":
        return self.add(other.scale(-1))

    def scale(self, c) -> "RationalMatrix":
        c = exact(c, "matrix entry")
        if not c:
            return RationalMatrix.zero(self.rows, self.cols)
        return RationalMatrix._of([{j: c * x for j, x in row.items()} for row in self._rows], self.cols)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for srow in self._rows:
            row = {}
            for k, a in srow.items():
                for j, b in other._rows[k].items():
                    row[j] = row.get(j, 0) + a * b
            out.append({j: x for j, x in row.items() if x})
        return RationalMatrix._of(out, other.cols)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum((x * v[j] for j, x in row.items()), 0) for row in self._rows]

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        # Leftmost tensor factor is the most significant index.  A product
        # of nonzero rationals is nonzero, so no zero is ever stored.
        width = other.cols
        out = [
            {j * width + l: a * b for j, a in srow.items() for l, b in orow.items()}
            for srow in self._rows
            for orow in other._rows
        ]
        return RationalMatrix._of(out, self.cols * width)

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


def _copy_rows(a: RationalMatrix) -> list:
    return [dict(row) for row in a._rows]


def _echelon(rows) -> dict:
    """Row echelon form of sparse rows, as {pivot column: row}.

    Each row is a dict column -> nonzero rational (int or Fraction) and is
    consumed.  Rows are taken sparsest first, ties in their given order
    (the structural pivot order of sparse eliminators, Markowitz 1957).
    Each is reduced left to right against the pivot rows found so far; its
    leftmost surviving column becomes a new pivot, and the row is scaled so
    that its entry there is 1.  The pivot is inverted as a Fraction, so the
    pivot rows, and everything derived from them, are Fractions even when
    the input entries are ints.  A row that reduces to nothing is dropped.
    """
    pivots = {}
    for row in sorted(rows, key=len):
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
    return len(_echelon(_copy_rows(a)))


def solve_linear(a: RationalMatrix, b):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    rows = _copy_rows(a)
    for row, rhs in zip(rows, b):
        if rhs:
            row[a.cols] = exact(rhs, "matrix entry")
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
    pivots = _echelon(_copy_rows(a))
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
        dims = {integer(k): integer(n) for k, n in dims.items()}
        self.dims = {k: n for k, n in dims.items() if n}
        if any(n < 0 for n in self.dims.values()):
            raise ValueError(f"negative dimension in {self.dims}")
        self.d = {}
        for k, mat in (d or {}).items():
            k = integer(k)
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
    return [[row.get(j, 0) for row in d._rows] for j in sorted(_echelon(_copy_rows(d)))]


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
    x = solve_linear(RationalMatrix.from_columns(cols, c.dim(k)), vector)
    if x is None:
        raise ValueError("vector is not a cycle (or not in the chain space)")
    return x[len(bounds):]


def homology_dims(c: ChainComplex) -> dict:
    """dim H_k for every degree with chains."""
    return {k: len(homology_representatives(c, k)[0]) for k in c.degrees()}
