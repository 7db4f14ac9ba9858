"""Linear subspaces of Mat_n(F) and of F^n in canonical RREF form.

A MatSpace stores the reduced row-echelon basis of the row-major vectorized
subspace, so equality of subspaces is structural equality of bases.  The
trace bilinear form tr(AB) drives the orthogonal complement and the
multiplier spaces: with row-major vectorization, tr(AB) = vec(A^T) . vec(B),
so their kernels use the transposed-index rearrangement and plain dot
products realize the form.  The products of basis members that the
multiplier spaces and `transform` need come from the one product kernel
`matrices._matmul`, and canonical forms from the one elimination `rref_rows`.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    InfiniteField,
    ShapeMismatch,
    Singular,
)
from .fields import Field
from .matrices import Matrix, Vector, _matmul, invert, kernel_rows, rref_rows, solve_columns

DEFAULT_BUDGET = 10**7

STANDARD_KINDS = ("sym", "alt", "strict_upper", "diagonal", "scalar", "full")


def _canonical(field: Field, rows: Iterable) -> tuple:
    red, pivots = rref_rows(field, rows)
    return tuple(tuple(r) for r in red[: len(pivots)])


def _annihilator(field: Field, n: int, flats: Sequence[Sequence]) -> "MatSpace":
    """Canonical space of all X with tr(C*X) = 0 for every row-major C in flats.

    With row-major vectorization tr(C*X) = vec(C^T) . vec(X), so each C
    contributes its transposed-index rearrangement as one kernel row.
    """
    rows = [[C[j * n + i] for i in range(n) for j in range(n)] for C in flats]
    return MatSpace(field, n, _canonical(field, kernel_rows(field, rows, n * n)))


def _unflatten(n: int, flat: Sequence) -> list:
    return [flat[i * n : (i + 1) * n] for i in range(n)]


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
        red, pivots = rref_rows(self.field, [*self.rows, v.entries])
        return len(pivots) == self.dim

    def with_vector(self, v: Vector) -> "VecSpace":
        return VecSpace(self.field, self.n, _canonical(self.field, [*self.rows, v.entries]))

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
        """Trusted constructor for rows of canonical residues already in RREF (census output)."""
        return cls(field, n, tuple(map(tuple, rows)))

    @classmethod
    @cache
    def standard(cls, kind: str, n: int, field: Field) -> "MatSpace":
        """One of the named spaces: sym, alt, strict_upper, diagonal, scalar, full.

        Alternating means A^T = -A with zero diagonal in every characteristic,
        so its dimension is n(n-1)/2 even over GF(2).  Spaces are immutable,
        so each (kind, n, field) is built once and then shared.
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
        return Matrix(self.field, _unflatten(self.n, flat))

    def _check_ambient(self, other: "MatSpace"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.n != other.n:
            raise ShapeMismatch(f"Mat_{self.n} vs Mat_{other.n}")

    def _check_member(self, M: Matrix):
        if M.field != self.field:
            raise FieldMismatch(f"{M.field} vs {self.field}")
        if not M.is_square or M.nrows != self.n:
            raise ShapeMismatch(f"expected {self.n}x{self.n} matrix")

    def contains(self, M: Matrix) -> bool:
        """Membership by residual elimination against the canonical basis."""
        self._check_member(M)
        red, pivots = rref_rows(self.field, [*self.rows, M.vec()])
        return len(pivots) == self.dim

    def coordinates(self, M: Matrix):
        """Coefficients of M over the canonical basis, or None when M is outside.

        One elimination answers both: `solve_columns` returns None exactly
        when M is not in the span.
        """
        self._check_member(M)
        return solve_columns(self.field, self.rows, M.vec())

    # -- lattice operations --------------------------------------------------

    def sum(self, other: "MatSpace") -> "MatSpace":
        self._check_ambient(other)
        return MatSpace(self.field, self.n, _canonical(self.field, self.rows + other.rows))

    __add__ = sum

    def intersect(self, other: "MatSpace") -> "MatSpace":
        """Intersection as the complement of the sum of the complements."""
        self._check_ambient(other)
        return (self.orth() + other.orth()).orth()

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
        return _annihilator(self.field, self.n, self.rows)

    def multipliers(self, target: "MatSpace", side: str) -> "MatSpace":
        """All X with X*V inside target (side "left") or V*X inside target ("right").

        M lies in target exactly when tr(A*M) = 0 for every A in target.orth().
        As tr(A*X*B) = tr(B*A*X), each pair of a complement basis matrix A and
        a basis matrix B of V is one linear condition on X: its coefficient
        matrix is B*A for side "left" and A*B for side "right".
        """
        self._check_ambient(target)
        if side not in ("left", "right"):
            raise ShapeMismatch(f"unknown multiplier side {side!r}")
        F, n, p = self.field, self.n, self.field.cardinality or 0
        products = []
        for A in target.orth().rows:
            for B in self.rows:
                X, Y = (B, A) if side == "left" else (A, B)
                products.append([x for r in _matmul(_unflatten(n, X), _unflatten(n, Y), p) for x in r])
        return _annihilator(F, n, products)

    # -- transformations -------------------------------------------------------

    def transform(self, P: Matrix, mode: str = "conjugate") -> "MatSpace":
        """Image of the subspace under conjugation or one-sided multiplication."""
        if P.field != self.field:
            raise FieldMismatch(f"{P.field} vs {self.field}")
        if not P.is_square or P.nrows != self.n:
            raise ShapeMismatch(f"expected {self.n}x{self.n} transform")
        if mode == "conjugate":
            try:
                left, right = P.rows, invert(P).rows
            except Singular:
                raise Singular("conjugation requires an invertible matrix")
        elif mode == "left":
            left, right = P.rows, None
        elif mode == "right":
            left, right = None, P.rows
        else:
            raise ShapeMismatch(f"unknown transform mode {mode!r}")
        F, n, p = self.field, self.n, self.field.cardinality or 0
        images = [_unflatten(n, flat) for flat in self.rows]
        if left is not None:
            images = [_matmul(left, B, p) for B in images]
        if right is not None:
            images = [_matmul(B, right, p) for B in images]
        return MatSpace(F, n, _canonical(F, [[x for r in B for x in r] for B in images]))

    def conjugate(self, P: Matrix) -> "MatSpace":
        return self.transform(P, "conjugate")

    # -- enumeration ------------------------------------------------------------

    def element_count(self) -> int:
        if not self.field.is_finite:
            raise InfiniteField(f"{self.field} is infinite")
        return self.field.cardinality**self.dim

    def elements(self, budget: int = DEFAULT_BUDGET) -> Iterator[Matrix]:
        """All q^dim members, first basis coefficient varying fastest.

        The exhaustive predicates scan `projective_rows` instead, which keeps
        one member of each projective class.
        """
        for flat in self.element_rows(budget):
            yield self._unvec(flat)

    def element_rows(self, budget: int = DEFAULT_BUDGET) -> Iterator[list]:
        """All q^dim members as row-major int lists mod p, in `elements` order:
        member k takes the base-q digits of k, lowest first, as coefficients."""
        total = self.element_count()
        if total > budget:
            raise BudgetExceeded(total, budget)
        p = self.field.cardinality
        m = self.n * self.n
        d = self.dim
        basis = self.rows
        for k in range(total):
            flat = [0] * m
            kk = k
            for i in range(d):
                c = kk % p
                kk //= p
                if c:
                    flat = [(x + c * y) % p for x, y in zip(flat, basis[i])]
            yield flat

    def projective_rows(self, budget: int = DEFAULT_BUDGET) -> Iterator[list]:
        """The members of `element_rows` whose last nonzero coefficient is 1.

        Member k is kept when the leading base-q digit of k is 1, that is
        when q^j <= k < 2*q^j for some j: one member per projective class,
        (q^dim - 1)/(q - 1) of them.  A nonzero member c*M (M kept, c != 1)
        comes after M, so for a test that c*M passes exactly when M does the
        first failing member of `element_rows` is a kept one.  The budget
        check is that of `element_rows`, on all q^dim members.
        """
        q = self.field.cardinality
        lead = 1  # q^j for the current k
        for k, flat in enumerate(self.element_rows(budget)):
            if k >= q * lead:
                lead *= q
            if lead <= k < 2 * lead:
                yield flat

    def __repr__(self):
        return f"MatSpace(dim {self.dim} of Mat_{self.n}({self.field}))"
