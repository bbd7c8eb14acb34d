"""Exact linear algebra over the rationals.

A matrix (``RationalMatrix``) stores one dict of its nonzero entries per
row, column -> entry, and nothing else: arithmetic and every solve touch
only stored entries.  Other modules build a matrix with
``RationalMatrix.from_rows`` (or from columns or lists) and read it with
``row_items``; ``entries`` is a dense view built when read, for
serialization and display.  Every stored entry is in the coefficient
normal form of ``core.exact``: an int when the value is integral, else a
Fraction, so the arithmetic on integral data is on ints.  Each way in
(the constructor, ``from_rows``, ``from_columns``, an ``entries`` item
write, the factor of ``scale``, the right-hand side of ``solve_linear``)
puts its entries in that form, and ``add``, ``scale``, ``mul`` and
``kron`` keep it: an integral sum or product is stored as an int.  On
int data this costs no function call per entry.

One eliminator, ``_echelon``, brings the rows to row echelon form, taking
them sparsest first, and ``rank``, ``solve_linear``, ``kernel_basis`` and
``homology_retract`` all go through it.
It is fraction free: each row is made integral as it is taken in, rows
are combined with integer factors, and each pivot row is stored
primitive, so the elimination runs on ints whatever the entries were.
``_back_substitute`` divides by the pivot entries, and the answers are in
the normal form of ``core.exact``: ints where they are integral, and a
Fraction only where a value is not.  The answers are canonical:

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
from math import gcd, lcm

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
        if cols is None:
            cols = len(entries[0]) if entries else 0
        self.cols = cols
        if any(len(row) != cols for row in entries):
            raise ValueError(f"matrix rows of lengths {sorted({len(row) for row in entries})}, expected {cols}")
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
        zero elsewhere.  The values must be ints or Fractions: zeros are
        dropped, and an integral Fraction is stored as an int."""
        return cls._of([_normal(row) for row in rows], cols)

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
                    row[j] = x if x.__class__ is int else exact(x)
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
        rows = [{j: c * x for j, x in row.items()} for row in self._rows]
        if c.__class__ is not int or not _is_int(self):
            rows = [_normal(row) for row in rows]
        return RationalMatrix._of(rows, self.cols)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for srow in self._rows:
            row = {}
            for k, a in srow.items():
                for j, b in other._rows[k].items():
                    row[j] = row.get(j, 0) + a * b
            out.append({j: x if x.__class__ is int else exact(x) for j, x in row.items() if x})
        return RationalMatrix._of(out, other.cols)

    def kron(self, other: "RationalMatrix") -> "RationalMatrix":
        # Leftmost tensor factor is the most significant index.  A product
        # of nonzero rationals is nonzero, so no zero is ever stored.
        width = other.cols
        out = [
            {j * width + l: a * b for j, a in srow.items() for l, b in orow.items()}
            for srow in self._rows
            for orow in other._rows
        ]
        if not (_is_int(self) and _is_int(other)):
            out = [_normal(row) for row in out]
        return RationalMatrix._of(out, self.cols * width)

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _is_int(m: RationalMatrix) -> bool:
    """Are all of m's entries ints?  Then its products are ints too."""
    return all(x.__class__ is int for row in m._rows for x in row.values())


def _normal(row: dict) -> dict:
    """`row` without its zeros, and each entry in the normal form of
    ``core.exact``."""
    return {j: x if x.__class__ is int else exact(x) for j, x in row.items() if x}


def kron_all(mats) -> RationalMatrix:
    out = None
    for m in mats:
        out = m if out is None else out.kron(m)
    if out is None:
        return RationalMatrix.identity(1)
    return out


def _integral(row: dict) -> dict:
    """`row` times the lcm of the denominators of its entries: a new row of
    ints with the same span.  A row of ints is copied."""
    dens = {x.denominator for x in row.values() if x.__class__ is not int}
    if not dens:
        return dict(row)
    m = lcm(*dens)
    return {j: x.numerator * (m // x.denominator) for j, x in row.items()}


def _primitive(row: dict, col: int) -> dict:
    """`row` divided by the gcd of its entries, signed so that its entry at
    `col` is positive."""
    lead = row[col]
    if lead == 1:
        return row
    if lead == -1:
        return {j: -x for j, x in row.items()}
    g = gcd(*row.values())
    if lead < 0:
        g = -g
    if g == 1:
        return row
    return {j: x // g for j, x in row.items()}


def _echelon(rows) -> dict:
    """Row echelon form of sparse rows, as {pivot column: row}.

    Each row is a dict column -> nonzero rational (int or Fraction) and is
    left as it is: a row is copied as it is taken in, so only one working
    row exists at a time besides the pivot rows, and callers pass a
    matrix's own rows.  Rows are taken sparsest first, ties in their given
    order (the structural pivot order of sparse eliminators, Markowitz
    1957).  The elimination is fraction free (after Bareiss 1968): a row is
    taken in as ints, multiplied by the lcm of its denominators, and reduced left
    to right against the pivot rows found so far as row <- a*row - f*prow,
    where a : f is the ratio of the pivot entry to the row's entry, in
    lowest terms.  Its leftmost surviving column becomes a new pivot, and
    the row is stored primitive: divided by the gcd of its entries, with a
    positive entry at the pivot.  So every pivot row holds ints, and no
    Fraction is built.  A row that reduces to nothing is dropped.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        row = _integral(row)
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = _primitive(row, col)
                break
            f = row.pop(col)
            p = prow[col]
            if p != 1:
                g = gcd(f, p)
                f //= g
                p //= g
                if p != 1:
                    for j in row:
                        row[j] *= p
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


def _quotient(s, p):
    """s / p in the coefficient normal form of ``core.exact``."""
    if s.__class__ is int and p.__class__ is int:
        q, r = divmod(s, p)
        return Fraction(s, p) if r else q
    return exact(s / p)


def _back_substitute(pivots: dict, x: list) -> list:
    """Set x at every pivot column, right to left, so that each pivot row
    annihilates x; the other entries of x are kept as given.

    The value at a pivot column is the row's other terms divided by the
    pivot entry, kept in the normal form of ``core.exact``: integral data
    over pivot rows of ints gives ints, and a Fraction is built only where
    a quotient is not integral.
    """
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        x[col] = _quotient(-sum([y * x[j] for j, y in row.items() if j != col]), row[col])
    return x


def rank(a: RationalMatrix) -> int:
    return len(_echelon(a._rows))


def solve_linear(a: RationalMatrix, b):
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    # The matrix's rows are shared; a row with a nonzero right-hand side
    # is a new dict that holds it in column a.cols.
    rows = list(a._rows)
    for i, rhs in enumerate(b):
        if rhs:
            rows[i] = {**rows[i], a.cols: exact(rhs, "matrix entry")}
    pivots = _echelon(rows)
    if a.cols in pivots:
        return None
    # The right-hand side is column a.cols with x = -1 there.
    x = _back_substitute(pivots, [0] * a.cols + [-1])
    return x[: a.cols]


def kernel_basis(a: RationalMatrix):
    """Exact basis of the null space of A, in a fixed order.

    Each basis vector has one free coordinate equal to 1 (the others zero),
    with free columns taken left to right.
    """
    pivots = _echelon(a._rows)
    basis = []
    for free in range(a.cols):
        if free in pivots:
            continue
        v = [0] * a.cols
        v[free] = 1
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


def homology_retract(c: ChainComplex, k: int):
    """(iota_k, p_k): the retract of degree k onto its homology H_k.

    The columns of iota_k (dims[k] x h_k) are fixed representative cycles:
    the cycles of ``kernel_basis(d_k)`` that are not in the span of the
    boundaries and the cycles before them, i.e. the cycles that are pivot
    columns of [bounds | cycles], where the boundary basis ``bounds`` is
    the pivot columns of d_{k+1}.  p_k (h_k x dims[k]) sends each boundary
    basis vector to 0 and representative j to e_j, so on a cycle it gives
    the coordinates of its class, p_k o d_{k+1} = 0 and p_k o iota_k = 1.
    Row j of p_k is the canonical answer of [bounds | reps]^T y = e_{b+j}.
    """
    n = c.dim(k)
    d = c.differential(k + 1)
    bounds = [[row.get(j, 0) for row in d._rows] for j in sorted(_echelon(d._rows))]
    cols = bounds + kernel_basis(c.differential(k))
    rows = [{j: v[i] for j, v in enumerate(cols) if v[i]} for i in range(n)]
    reps = [cols[j] for j in sorted(_echelon(rows)) if j >= len(bounds)]
    transposed = RationalMatrix(bounds + reps, cols=n)
    m = transposed.rows
    p = [solve_linear(transposed, [int(i == j) for i in range(m)]) for j in range(len(bounds), m)]
    return RationalMatrix.from_columns(reps, n), RationalMatrix(p, cols=n)
