"""Linear subspaces of Mat_n(F) and of F^n in canonical RREF form.

A MatSpace stores the reduced row-echelon basis of the row-major vectorized
subspace, so equality of subspaces is structural equality of bases.  The
trace bilinear form tr(AB) drives the orthogonal complement: with row-major
vectorization, tr(AB) = vec(A^T) . vec(B), so the orthogonality kernel uses
the transposed-index rearrangement and plain dot products realize the form.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    InfiniteField,
    ShapeMismatch,
    Singular,
)
from .fields import Field
from .matrices import Matrix, Vector, invert, kernel_rows, rref_rows

DEFAULT_BUDGET = 10**7

STANDARD_KINDS = ("sym", "alt", "strict_upper", "diagonal", "scalar", "full")


def _canonical(field: Field, rows: Iterable) -> tuple:
    red, pivots = rref_rows(field, [list(r) for r in rows])
    return tuple(tuple(r) for r in red[: len(pivots)])


class VecSpace:
    """Subspace of F^n held as a canonical RREF row basis."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, n: int, rows: tuple):
        self.field = field
        self.n = n
        self.rows = rows

    @classmethod
    def from_vectors(cls, field: Field, n: int, vectors: Sequence[Vector]) -> "VecSpace":
        for v in vectors:
            if v.field != field:
                raise FieldMismatch(f"{v.field} vs {field}")
            if v.dim != n:
                raise ShapeMismatch(f"vector of dim {v.dim} in F^{n}")
        return cls(field, n, _canonical(field, [v.entries for v in vectors]))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return self.dim == self.n

    def vectors(self) -> list[Vector]:
        return [Vector(self.field, r) for r in self.rows]

    def contains(self, v: Vector) -> bool:
        if v.field != self.field or v.dim != self.n:
            raise ShapeMismatch("vector does not live in this ambient space")
        red, pivots = rref_rows(self.field, [list(r) for r in self.rows] + [list(v.entries)])
        return len(pivots) == self.dim

    def with_vector(self, v: Vector) -> "VecSpace":
        return VecSpace(
            self.field, self.n, _canonical(self.field, list(self.rows) + [v.entries])
        )

    def __eq__(self, other):
        return (
            isinstance(other, VecSpace)
            and other.field == self.field
            and other.n == self.n
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.n, self.rows))

    def __repr__(self):
        return f"VecSpace(dim {self.dim} of F^{self.n})"


class MatSpace:
    """Linear subspace of Mat_n(F) with a canonical vectorized RREF basis."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, n: int, rows: tuple):
        self.field = field
        self.n = n
        self.rows = rows

    # -- construction -------------------------------------------------------

    @classmethod
    def span(cls, mats: Sequence[Matrix], field: Field | None = None, n: int | None = None) -> "MatSpace":
        """Canonical span of a list of square matrices (possibly empty)."""
        if mats:
            field = mats[0].field if field is None else field
            n = mats[0].nrows if n is None else n
        if field is None or n is None:
            raise ShapeMismatch("empty span needs explicit field and n")
        for M in mats:
            if M.field != field:
                raise FieldMismatch(f"{M.field} vs {field}")
            if not M.is_square or M.nrows != n:
                raise ShapeMismatch(f"expected {n}x{n} matrix, got {M.nrows}x{M.ncols}")
        return cls(field, n, _canonical(field, [M.vec() for M in mats]))

    @classmethod
    def zero(cls, field: Field, n: int) -> "MatSpace":
        return cls(field, n, ())

    @classmethod
    def from_canonical_rows(cls, field: Field, n: int, rows: Sequence[Sequence]) -> "MatSpace":
        """Trusted constructor for rows already in RREF (census stream output)."""
        return cls(field, n, tuple(tuple(field.coerce(x) for x in r) for r in rows))

    @classmethod
    def standard(cls, kind: str, n: int, field: Field) -> "MatSpace":
        """One of the named spaces: sym, alt, strict_upper, diagonal, scalar, full.

        Alternating means A^T = -A with zero diagonal in every characteristic,
        so its dimension is n(n-1)/2 even over GF(2).
        """
        if kind not in STANDARD_KINDS:
            raise ShapeMismatch(f"unknown standard space {kind!r}")
        E = Matrix.unit
        mats: list[Matrix] = []
        if kind == "sym":
            mats = [E(field, n, i, i) for i in range(n)]
            mats += [
                E(field, n, i, j) + E(field, n, j, i)
                for i in range(n)
                for j in range(i + 1, n)
            ]
        elif kind == "alt":
            mats = [
                E(field, n, i, j) - E(field, n, j, i)
                for i in range(n)
                for j in range(i + 1, n)
            ]
        elif kind == "strict_upper":
            mats = [E(field, n, i, j) for i in range(n) for j in range(i + 1, n)]
        elif kind == "diagonal":
            mats = [E(field, n, i, i) for i in range(n)]
        elif kind == "scalar":
            mats = [Matrix.identity(field, n)]
        elif kind == "full":
            mats = [E(field, n, i, j) for i in range(n) for j in range(n)]
        return cls.span(mats, field=field, n=n)

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def basis(self) -> list[Matrix]:
        return [self._unvec(r) for r in self.rows]

    def _unvec(self, flat: Sequence) -> Matrix:
        n = self.n
        return Matrix(self.field, [flat[i * n : (i + 1) * n] for i in range(n)])

    def _check_ambient(self, other: "MatSpace"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.n != other.n:
            raise ShapeMismatch(f"Mat_{self.n} vs Mat_{other.n}")

    def contains(self, M: Matrix) -> bool:
        """Membership by residual elimination against the canonical basis."""
        if M.field != self.field:
            raise FieldMismatch(f"{M.field} vs {self.field}")
        if not M.is_square or M.nrows != self.n:
            raise ShapeMismatch(f"expected {self.n}x{self.n} matrix")
        red, pivots = rref_rows(self.field, [list(r) for r in self.rows] + [list(M.vec())])
        return len(pivots) == self.dim

    def coordinates(self, M: Matrix):
        """Coefficients of M over the canonical basis, or None when M is outside."""
        from .matrices import solve_columns

        if not self.contains(M):
            return None
        cols = [list(r) for r in self.rows]
        return solve_columns(self.field, cols, list(M.vec()))

    # -- lattice operations --------------------------------------------------

    def sum(self, other: "MatSpace") -> "MatSpace":
        self._check_ambient(other)
        return MatSpace(
            self.field, self.n, _canonical(self.field, list(self.rows) + list(other.rows))
        )

    __add__ = sum

    def intersect(self, other: "MatSpace") -> "MatSpace":
        """Intersection via the kernel of the stacked coordinate systems."""
        self._check_ambient(other)
        F = self.field
        k, l = self.dim, other.dim
        if k == 0 or l == 0:
            return MatSpace.zero(F, self.n)
        m = self.n * self.n
        # unknowns (a_1..a_k, b_1..b_l); rows: per ambient coordinate.
        eq_rows = []
        for j in range(m):
            row = [self.rows[i][j] for i in range(k)]
            row += [F.neg(other.rows[i][j]) for i in range(l)]
            eq_rows.append(row)
        members = []
        for ker in kernel_rows(F, eq_rows, k + l):
            flat = [F.zero()] * m
            for i in range(k):
                c = ker[i]
                if c != 0:
                    row = self.rows[i]
                    flat = [F.add(x, F.mul(c, y)) for x, y in zip(flat, row)]
            members.append(flat)
        return MatSpace(F, self.n, _canonical(F, members))

    __and__ = intersect

    def __eq__(self, other):
        return (
            isinstance(other, MatSpace)
            and other.field == self.field
            and other.n == self.n
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.n, self.rows))

    # -- trace form -----------------------------------------------------------

    def orth(self) -> "MatSpace":
        """Orthogonal complement under the trace form (A, B) -> tr(AB).

        Kernel of the dim x n^2 matrix whose rows are the transposed-index
        rearrangements of the basis, so dim V + dim V-perp = n^2 always.
        """
        F = self.field
        n = self.n
        if self.dim == 0:
            return MatSpace.standard("full", n, F)
        rows = []
        for flat in self.rows:
            # vec(A^T): entry (i, j) of A^T is A[j][i]
            rows.append([flat[j * n + i] for i in range(n) for j in range(n)])
        ker = kernel_rows(F, rows, n * n)
        return MatSpace(F, n, _canonical(F, ker))

    # -- transformations -------------------------------------------------------

    def transform(self, P: Matrix, mode: str = "conjugate") -> "MatSpace":
        """Image of the subspace under conjugation or one-sided multiplication."""
        if P.field != self.field:
            raise FieldMismatch(f"{P.field} vs {self.field}")
        if not P.is_square or P.nrows != self.n:
            raise ShapeMismatch(f"expected {self.n}x{self.n} transform")
        if mode == "conjugate":
            try:
                Pinv = invert(P)
            except Singular:
                raise Singular("conjugation requires an invertible matrix")
            mats = [P * B * Pinv for B in self.basis()]
        elif mode == "left":
            mats = [P * B for B in self.basis()]
        elif mode == "right":
            mats = [B * P for B in self.basis()]
        else:
            raise ShapeMismatch(f"unknown transform mode {mode!r}")
        return MatSpace.span(mats, field=self.field, n=self.n)

    def conjugate(self, P: Matrix) -> "MatSpace":
        return self.transform(P, "conjugate")

    # -- enumeration ------------------------------------------------------------

    def element_count(self) -> int:
        if not self.field.is_finite:
            raise InfiniteField(f"{self.field} is infinite")
        return self.field.cardinality**self.dim

    def elements(self, budget: int = DEFAULT_BUDGET) -> Iterator[Matrix]:
        """All q^dim members, first basis coefficient varying fastest."""
        for flat in self.element_rows(budget):
            yield self._unvec(flat)

    def element_rows(self, budget: int = DEFAULT_BUDGET) -> Iterator[list]:
        total = self.element_count()
        if total > budget:
            raise BudgetExceeded(total, budget)
        F = self.field
        q = F.cardinality
        m = self.n * self.n
        d = self.dim
        basis = [list(r) for r in self.rows]
        for k in range(total):
            flat = [F.zero()] * m
            kk = k
            for i in range(d):
                c = kk % q
                kk //= q
                if c:
                    row = basis[i]
                    flat = [F.add(x, F.mul(c, y)) for x, y in zip(flat, row)]
            yield flat

    def __repr__(self):
        return f"MatSpace(dim {self.dim} of Mat_{self.n}({self.field}))"
