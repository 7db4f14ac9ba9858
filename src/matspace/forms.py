"""Symmetric bilinear forms over GF(p) and Q: congruence and square classes.

V * P = Sym_n gives V = S * Sym_n * S^-1 exactly when P is congruent to c*I.
So recovery diagonalizes P by congruence (Q * P * Q^T = D, an LDL^T
elimination) and scales D into one square class.  Over a finite field of odd
characteristic mismatched classes are repaired in pairs, or a violated class
yields a non-diagonalizable member of V.  Over Q the signs of D decide
definiteness (Sylvester's law of inertia) for `predicates.non_isotropic`.
Everything runs on native numbers, as `matrices._matmul` does: residues mod
p (p = 0 stands for Q) and Fractions; the field supplies only square roots,
square tests and coercion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Char2AlternatingResidual, NotSymmetric, ShapeMismatch
from .errors import SquareClassNotViolated, ZeroDiagonalEntry
from .fields import Scalar
from .matrices import Matrix, _matmul, char_poly
from .polys import Poly, _inv


@dataclass
class ScaleNormalization:
    scales: list | None
    c: Scalar | None
    offending_index: int | None

    @property
    def ok(self) -> bool:
        return self.scales is not None


def congruence_diagonalize(P: Matrix) -> tuple[Matrix, Matrix]:
    """Invertible Q and diagonal D with Q * P * Q^T = D, exactly.

    Symmetric elimination: swap a nonzero diagonal entry into the pivot; when
    the whole residual diagonal vanishes but an off-diagonal entry survives,
    characteristic != 2 repairs it by the replacement e_i <- e_i + e_j
    (creating the diagonal entry 2*P_ij).  In characteristic 2 the repair does
    not exist and the elimination fails; a non-isotropic input never gets there.
    """
    P._need_square()
    if not P.is_symmetric:
        raise NotSymmetric("congruence diagonalization needs a symmetric matrix")
    F = P.field
    n = P.nrows
    p = F.cardinality or 0
    A = [list(r) for r in P.rows]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]

    def plus(x, y, f):
        # x + f*y entrywise, reduced mod p (f need not be)
        if p:
            return [(a + f * b) % p for a, b in zip(x, y)]
        return [a + f * b for a, b in zip(x, y)]

    def add_multiple(i, j, f):
        # row_i += f * row_j, then the matching column operation
        A[i] = plus(A[i], A[j], f)
        column = plus([r[i] for r in A], [r[j] for r in A], f)
        for r in range(n):
            A[r][i] = column[r]
        Q[i] = plus(Q[i], Q[j], f)

    def swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        Q[i], Q[j] = Q[j], Q[i]

    for k in range(n):
        if A[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if A[j][j] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j] != 0), None)
                if off is None:
                    break  # residual block is zero; already diagonal
                if F.characteristic == 2:
                    raise Char2AlternatingResidual("zero-diagonal nonzero residual in characteristic 2")
                i, j = off
                add_multiple(i, j, 1)  # diagonal entry becomes 2*A[i][j]
                if i != k:
                    swap(k, i)
        inv_p = _inv(A[k][k], p)
        for i in range(k + 1, n):
            if A[i][k] != 0:
                add_multiple(i, k, -A[i][k] * inv_p)

    d = [A[i][i] for i in range(n)]
    QPQt = _matmul(_matmul(Q, P.rows, p), list(zip(*Q)), p)
    if QPQt != [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]:
        raise AssertionError("congruence elimination lost exactness")
    return Matrix(F, Q), Matrix.diagonal(F, d)


def square_class_normalize(D: Matrix) -> ScaleNormalization:
    """Scales with diag(mu) * D * diag(mu) = d_1 * I when every d_i/d_1 is a square.

    Returns the scales and c = d_1, or the first offending 0-based index when
    some ratio is a non-square.
    """
    D._need_square()
    if not D.nrows:
        raise ShapeMismatch("square-class normalization needs a nonempty diagonal")
    F = D.field
    p = F.cardinality or 0
    d = D.diagonal_entries()
    for i, di in enumerate(d):
        if di == 0:
            raise ZeroDiagonalEntry(i)
    scales = [F.one()]
    for i in range(1, len(d)):
        root = F.sqrt(d[0] * _inv(d[i], p))
        if root is None:
            return ScaleNormalization(None, None, i)
        scales.append(root)
    c = d[0]
    for mu, di in zip(scales, d):
        if F.coerce(mu * mu * di) != c:
            raise AssertionError("square-class scaling lost exactness")
    return ScaleNormalization(scales, c, None)


def nondiag_witness(P_diag: Matrix, i: int) -> Matrix:
    """Constructive falsifier for a violated square class (0-based index i >= 1).

    Returns (E_{1,i+1} + E_{i+1,1}) * P_diag^-1, whose characteristic
    polynomial is t^(n-2) * (t^2 - r) with r = d_i^-1 * d_1^-1 a non-square,
    hence not diagonalizable over a finite field.
    """
    P_diag._need_square()
    F = P_diag.field
    n = P_diag.nrows
    p = F.cardinality or 0
    if not 1 <= i < n:
        raise ShapeMismatch(f"index {i} outside 1..{n - 1}")
    d = P_diag.diagonal_entries()
    for k in (0, i):
        if d[k] == 0:
            raise ZeroDiagonalEntry(k)
    r = F.coerce(_inv(d[i], p) * _inv(d[0], p))
    if F.is_square(r):
        raise SquareClassNotViolated(f"d_{i+1}^-1 * d_1^-1 = {r} is a square")
    rows = [[0] * n for _ in range(n)]
    rows[0][i], rows[i][0] = _inv(d[i], p), _inv(d[0], p)
    M = Matrix(F, rows)
    if char_poly(M) != Poly(F, [0] * (n - 2) + [-r, 0, 1]):
        raise AssertionError("witness characteristic polynomial mismatch")
    return M


def _single_class_rediagonalize(D: Matrix):
    """Congruence R with R * D * R^T diagonal in one square class, or None.

    Over a finite field of odd characteristic, D is congruent to a scalar
    multiple of the identity iff n is odd (target class: the discriminant) or
    the discriminant is a square (n even).  Mismatched diagonal entries come
    in pairs and every binary diagonal form represents each nonzero value, so
    one 2x2 congruence repairs two entries at a time.
    """
    F = D.field
    n = D.nrows
    p = F.cardinality
    d = D.diagonal_entries()
    disc = math.prod(d) % p
    if n % 2 == 0 and not F.is_square(disc):
        return None
    tau = d[0] if n % 2 == 0 else next(di for di in d if F.is_square(di * disc))
    mismatched = [i for i, di in enumerate(d) if not F.is_square(di * tau)]
    if len(mismatched) % 2 != 0:
        raise AssertionError("odd number of square-class mismatches")
    R = Matrix.identity(F, n)
    values = list(d)
    for a, b in zip(mismatched[0::2], mismatched[1::2]):
        da, db = values[a], values[b]
        inv_db = pow(db, -1, p)
        for x in range(p):
            y = F.sqrt((tau - da * x * x) * inv_db)
            if y is not None:
                break
        else:
            raise AssertionError("binary form failed to represent the target value")
        rows = [list(r) for r in Matrix.identity(F, n).rows]
        rows[a][a], rows[a][b] = x, y
        rows[b][a], rows[b][b] = -db * y % p, da * x % p
        R = Matrix(F, rows) * R
        values[a] = tau
        values[b] = da * db * tau % p
    D2 = Matrix.diagonal(F, values)
    if R * D * R.transpose() != D2:
        raise AssertionError("square-class repair lost exactness")
    return R, D2
