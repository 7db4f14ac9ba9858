"""Dense exact matrices and column vectors over one field.

Provides elimination (RREF, kernels, inverses), characteristic and Krylov
minimal polynomials, and eigenvalue / diagonalizability tests over the
ground field.  All operations are pure and matrices are immutable, so values
can be shared freely.

Entries are native numbers (canonical residues for GF(p), Fractions for Q)
that the constructors coerce, so arithmetic uses Python's operators and every
product and linear combination goes through the one kernel `_matmul`.

Char polys and eigenvalues take one path for both fields: the int rows of
L*M from `clear_denominators` (L the lcm of the denominators, which is 1
for residues mod p), one division-free Berkowitz on plain ints
(`char_poly_rows`, reduced mod p over GF(p)) and the one root finder
`polys._roots` (roots mod p, or integer roots, which are L times the
rational eigenvalues).  `rref_rows` is the one elimination, on plain ints
mod p or on Fractions.  `_diagonalizable_rows` is the one diagonalizability
test, on the same int rows: over GF(p) M is diagonalizable when M^p = M;
over Q when the product of L*M - rI over the roots r is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import FieldMismatch, ShapeMismatch, Singular
from .fields import Field, PrimeField, Scalar
from .polys import Poly, _inv, _linear_part_mod, _roots


class Vector:
    """Column vector over an exact field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: Iterable):
        self.field = field
        self.entries = tuple(field.coerce(x) for x in entries)

    @classmethod
    def zero(cls, field: Field, n: int) -> "Vector":
        return cls(field, (field.zero(),) * n)

    @classmethod
    def basis(cls, field: Field, n: int, i: int) -> "Vector":
        """Standard basis vector e_{i+1} (0-based index i)."""
        e = [field.zero()] * n
        e[i] = field.one()
        return cls(field, e)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def _check(self, other: "Vector"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.dim != other.dim:
            raise ShapeMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, map(add, self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(self.field, map(sub, self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(self.field, [-a for a in self.entries])

    def scale(self, c) -> "Vector":
        c = self.field.coerce(c)
        return Vector(self.field, [c * a for a in self.entries])

    def dot(self, other: "Vector") -> Scalar:
        self._check(other)
        return self.field.coerce(sum(map(mul, self.entries, other.entries)))

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Vector({list(self.entries)})"


class Matrix:
    """Immutable dense matrix; rows are tuples of canonical scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence]):
        rows = tuple(tuple(field.coerce(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ShapeMismatch("ragged rows")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int | None = None) -> "Matrix":
        ncols = nrows if ncols is None else ncols
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, field: Field, n: int, i: int, j: int) -> "Matrix":
        """Matrix unit with a single 1 at the (i, j) spot (0-based)."""
        rows = [[field.zero()] * n for _ in range(n)]
        rows[i][j] = field.one()
        return cls(field, rows)

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence) -> "Matrix":
        n = len(entries)
        rows = [[field.zero()] * n for _ in range(n)]
        for i, d in enumerate(entries):
            rows[i][i] = field.coerce(d)
        return cls(field, rows)

    # -- shape and structure ----------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.rows))) if self.rows else self

    def trace(self) -> Scalar:
        return self.field.coerce(sum(self.diagonal_entries()))

    def vec(self) -> tuple:
        """Row-major flattening to an n*m coordinate tuple."""
        return tuple(x for r in self.rows for x in r)

    def diagonal_entries(self) -> list:
        self._need_square()
        return [self.rows[i][i] for i in range(self.nrows)]

    def _need_square(self):
        if not self.is_square:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} matrix is not square")

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------------

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols} entrywise")
        return Matrix(self.field, [list(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, [[c * x for x in r] for r in self.rows])

    __rmul__ = scale

    def __mul__(self, other):
        F = self.field
        if isinstance(other, Matrix):
            self._check(other)
            if self.ncols != other.nrows:
                raise ShapeMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            return Matrix(F, _matmul(self.rows, other.rows, F.cardinality or 0))
        if isinstance(other, Vector):
            if other.field != F:
                raise FieldMismatch(f"{F} vs {other.field}")
            if self.ncols != other.dim:
                raise ShapeMismatch("matrix-vector shape mismatch")
            column = _matmul(self.rows, list(zip(other.entries)), F.cardinality or 0)
            return Vector(F, [r[0] for r in column])
        return self.scale(other)

    __matmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]})"


# -- elimination ------------------------------------------------------------


def rref_rows(field: Field, rows: Iterable) -> tuple[list, list[int]]:
    """RREF of a copy of the coefficient rows; returns (rows, pivot columns).

    The one row reduction: GF(p) rows run on plain ints mod p, and Q rows on
    the Fractions (or ints) themselves, so a Q pivot is inverted as
    1 / Fraction(x), never 1 / int, which is a float.
    """
    rows = [list(r) for r in rows]
    p = field.p if isinstance(field, PrimeField) else 0
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _inv(rows[r][c], p)
        if inv != 1:
            rows[r] = [inv * v % p for v in rows[r]] if p else [inv * v for v in rows[r]]
        prow = rows[r]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                if p:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
                else:
                    rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rref(M: Matrix) -> tuple[Matrix, int, list[int]]:
    """Unique reduced row-echelon form, with rank and pivot columns."""
    rows, pivots = rref_rows(M.field, M.rows)
    return Matrix(M.field, rows), len(pivots), pivots


def kernel_rows(field: Field, rows: Iterable, ncols: int) -> list[list]:
    """Basis of the right kernel in RREF-derived canonical form."""
    red, pivots = rref_rows(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero()] * ncols
        v[f] = field.one()
        for r_idx, pc in enumerate(pivots):
            v[pc] = field.neg(red[r_idx][f])
        basis.append(v)
    return basis


def kernel_basis(M: Matrix) -> list[Vector]:
    """Basis of {X : MX = 0}; size is ncols - rank."""
    return [Vector(M.field, v) for v in kernel_rows(M.field, M.rows, M.ncols)]


def solve_columns(field: Field, cols: list, target: list):
    """Solve sum_i x_i * cols[i] = target; returns coefficient list or None."""
    m = len(target)
    k = len(cols)
    aug = [[cols[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    red, pivots = rref_rows(field, aug)
    if k in pivots:
        return None
    x = [field.zero()] * k
    for r_idx, pc in enumerate(pivots):
        x[pc] = red[r_idx][k]
    return x


def invert(M: Matrix) -> Matrix:
    """Exact inverse via Gauss-Jordan; raises Singular when rank < n."""
    M._need_square()
    n = M.nrows
    F = M.field
    aug = [list(M.rows[i]) + [F.one() if j == i else F.zero() for j in range(n)] for i in range(n)]
    red, pivots = rref_rows(F, aug)
    if pivots != list(range(n)):
        raise Singular(f"matrix of rank {len([p for p in pivots if p < n])} is not invertible")
    return Matrix(F, [r[n:] for r in red])


def det(M: Matrix) -> Scalar:
    """Determinant, read off the characteristic polynomial's constant term."""
    M._need_square()
    c0 = char_poly(M).coeffs[0]
    return M.field.coerce(-c0 if M.nrows % 2 else c0)


# -- characteristic and minimal polynomials ---------------------------------


def char_poly_rows(rows: list, p: int = 0) -> list[int]:
    """Coefficients of det(tI - M), low degree first, for an int matrix M.

    The division-free Berkowitz iteration, on plain ints: the char poly of
    each trailing principal submatrix is extended by one row and column,
    from the bottom-right corner up.  With p != 0 the coefficients are
    reduced mod p at the end.
    """
    n = len(rows)
    chi = [1]  # char poly of the trailing block, highest degree first
    for k in range(n - 1, -1, -1):
        # The block [[a, R], [C, S]] starting at (k, k) has the Toeplitz
        # column 1, -a, -(R C), -(R S C), ...
        m = n - k
        R = rows[k][k + 1 :]
        sub = [r[k + 1 :] for r in rows[k + 1 :]]
        col = [1, -rows[k][k]]
        w = [r[k] for r in rows[k + 1 :]]  # C, then S C, S^2 C, ...
        for j in range(2, m + 1):
            s = 0
            for x, y in zip(R, w):
                if x and y:
                    s += x * y
            col.append(-s)
            if j < m:
                nw = []
                for sub_row in sub:
                    s = 0
                    for x, y in zip(sub_row, w):
                        if x and y:
                            s += x * y
                    nw.append(s)
                w = nw
        out = []
        for i in range(m + 1):
            s = 0
            for j in range(min(i, m - 1) + 1):
                c, d = col[i - j], chi[j]
                if c and d:
                    s += c * d
            out.append(s)
        chi = out
    chi.reverse()
    return [c % p for c in chi] if p else chi


def char_poly(M: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - M).

    Berkowitz runs on the integer matrix L*M (L the lcm of the denominators,
    1 for residues mod p), reduced mod p over GF(p), and the coefficient of
    t^i is divided by L^(n-i).
    """
    M._need_square()
    p, n = M.field.cardinality or 0, M.nrows
    L, rows = clear_denominators(M.rows)
    return Poly(M.field, [Fraction(c, L ** (n - i)) for i, c in enumerate(char_poly_rows(rows, p))])


def min_poly(M: Matrix) -> Poly:
    """Monic minimal polynomial, found as the first linear dependency among
    I, M, M^2, ... viewed as coordinate vectors."""
    M._need_square()
    F = M.field
    n = M.nrows
    if not n:
        return Poly.one(F)  # the 0x0 identity is zero; char_poly agrees
    power = Matrix.identity(F, n)
    vecs = [list(power.vec())]
    for k in range(1, n + 1):
        power = power * M
        target = list(power.vec())
        coeffs = solve_columns(F, vecs, target)
        if coeffs is not None:
            # t^k - sum_i coeffs[i] t^i
            return Poly(F, [-c for c in coeffs] + [1])
        vecs.append(target)
    raise AssertionError("no dependency up to degree n; Cayley-Hamilton violated")


# -- eigenvalues and diagonalizability ---------------------------------------


def eigenvalues_in_field(M: Matrix) -> list:
    """Distinct roots of the characteristic polynomial lying in the ground field, ascending.

    `polys._roots` on the int char poly of L*M (L the lcm of the
    denominators, 1 for residues mod p): its roots mod p, with their count
    checked against deg gcd(chi, t^p - t), or its integer roots, which are
    L times the rational eigenvalues.
    """
    M._need_square()
    F, p = M.field, M.field.cardinality or 0
    L, rows = clear_denominators(M.rows)
    chi = char_poly_rows(rows, p)
    roots = _roots(chi, p)
    if p and len(roots) != len(_linear_part_mod(chi, p)) - 1:
        raise AssertionError("root finder and gcd eigenvalue counts disagree")
    return [F.coerce(Fraction(r, L)) for r in roots]


def clear_denominators(rows) -> tuple[int, list[list[int]]]:
    """L, the lcm of every entry's denominator, and the integer rows of L * rows."""
    L = lcm(*(x.denominator for r in rows for x in r))
    return L, [[x.numerator * (L // x.denominator) for x in r] for r in rows]


def _matmul(A: Sequence, B: Sequence, p: int = 0) -> list[list]:
    """The one product kernel, on row lists of ints or Fractions, reduced mod p if p != 0.

    The loop is chosen by field.  Mod p, dense residue rows gain less from
    skipping zero terms than the test costs; over Q (p = 0) a Fraction
    product costs far more than the test.  One Xeon core, Python 3.11: a
    dense GF(101) 3x3 product took 9.7 us with map(mul) and 17.4 us with the
    skip; a Q 3x3 product, 60 % zeros, took 162 us and 25 us.  An empty sum
    is the int 0, which the Matrix and Vector constructors coerce.
    """
    cols = list(zip(*B))
    if p:
        return [[sum(map(mul, row, col)) % p for col in cols] for row in A]
    return [[sum([x * y for x, y in zip(row, col) if x and y]) for col in cols] for row in A]


def _diagonalizable_rows(rows: list, p: int = 0) -> bool:
    """Whether the square int matrix `rows` (a list of int lists) is diagonalizable.

    The one diagonalizability test.  GF(p), rows reduced mod p: M^p = M,
    that is the minimal polynomial divides t^p - t (squarefree and split),
    with M^p by repeated squaring mod p.  Q (p = 0), rows the integer
    matrix A = L*M (L the lcm of the denominators): M is diagonalizable
    over Q exactly when the product of A - rI over the distinct roots r
    (`polys._roots`) of A's char poly is zero.  That product would decide
    GF(p) too, but M^p = M is kept there because it is faster on the small
    members that censuses test: on a random GF(3) 3x3 member, 13.6 us
    against 37 us (one Xeon core, Python 3.11).
    """
    if not rows:
        return True
    if p:
        power, base, e = None, rows, p
        while e:
            if e & 1:
                power = base if power is None else _matmul(power, base, p)
            e >>= 1
            if e:
                base = _matmul(base, base, p)
        return power == rows
    n = len(rows)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for r in _roots(char_poly_rows(rows), 0):
        P = _matmul(P, [[x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)])
    return not any(map(any, P))


def is_diagonalizable(M: Matrix) -> bool:
    """Whether M is diagonalizable over its own ground field (`_diagonalizable_rows`)."""
    M._need_square()
    return _diagonalizable_rows(clear_denominators(M.rows)[1], M.field.cardinality or 0)
