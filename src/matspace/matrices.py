"""Dense exact matrices and column vectors over one field.

Provides elimination (RREF, kernels, inverses), characteristic and Krylov
minimal polynomials, and eigenvalue / diagonalizability tests over the
ground field.  All operations are pure and matrices are immutable, so values
can be shared freely.

Entries are native numbers (canonical residues for GF(p), Fractions for Q)
that the constructors coerce, so arithmetic uses Python's operators and every
product and linear combination goes through the one kernel `_matmul`.

Char polys come from one division-free Berkowitz on plain ints
(`char_poly_rows`): over GF(p) on the canonical residues, reduced mod p;
over Q on L*M, L the lcm of the denominators.  `rref_rows`, the one
elimination, packs GF(2) rows for `gf2.rref_bits`.  Over GF(p) elimination
and the diagonalizability test (M^p = M) run on plain ints mod p, and small
helpers on int coefficient lists compute gcds and powers, find the roots
(`_roots_mod`: a scan up to SCAN_LIMIT, gcd with t^p - t and seeded
splitting above it) and find an irreducible factor of multiplicity 1, for
the irreducibility test.  Over Q, eigenvalues are the integer roots of L*M's
char poly divided by L, from a small-prime sieve and Hensel lifting modulo
a prime, and M is diagonalizable when the product of L*M - rI over those
roots r is zero.  The same int-list division and gcd, with p = 0 for Q,
give the squarefree part that the lifting starts from.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from . import gf2
from .errors import FieldMismatch, ShapeMismatch, Singular
from .fields import Field, PrimeField, Scalar, is_prime
from .polys import Poly

# Root finding mod p scans every residue only up to this prime; larger
# primes use the gcd/splitting path.
SCAN_LIMIT = 10**4


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

    def __pow__(self, k: int) -> "Matrix":
        self._need_square()
        if k < 0:
            return invert(self) ** (-k)
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

    The one row reduction, dispatched per field.  GF(2) rows are packed into
    int bitsets for `gf2.rref_bits`, other GF(p) rows run on plain ints mod
    p, and Q rows on the Fractions (or ints) themselves.  The pivot is
    inverted by the field, as Q rows may hold ints and 1 / int is a float.
    """
    rows = [list(r) for r in rows]
    p = field.p if isinstance(field, PrimeField) else 0
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if p == 2:
        packed, pivots = gf2.rref_bits(gf2.pack_rows(rows, ncols), ncols)
        return [gf2.unpack_row(b, ncols) for b in packed], pivots
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
        inv = pow(rows[r][c], -1, p) if p else field.inv(rows[r][c])
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
    F = M.field
    chi = char_poly(M)
    c0 = chi.eval(F.zero())
    return F.neg(c0) if M.nrows % 2 else c0


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

    Over Q, Berkowitz runs on the integer matrix L*M (L the lcm of the
    denominators), and the coefficient of t^i is divided by L^(n-i).
    """
    M._need_square()
    F = M.field
    if F.is_finite:
        return Poly(F, char_poly_rows(M.rows, F.cardinality))
    L, rows = clear_denominators(M.rows)
    n = M.nrows
    return Poly(F, [Fraction(c, L ** (n - i)) for i, c in enumerate(char_poly_rows(rows))])


def min_poly(M: Matrix) -> Poly:
    """Monic minimal polynomial, found as the first linear dependency among
    I, M, M^2, ... viewed as coordinate vectors."""
    M._need_square()
    F = M.field
    n = M.nrows
    power = Matrix.identity(F, n)
    vecs = [list(power.vec())]
    for k in range(1, n + 1):
        power = power * M
        target = list(power.vec())
        coeffs = solve_columns(F, vecs, target)
        if coeffs is not None:
            # t^k - sum_i coeffs[i] t^i
            cs = [F.neg(c) for c in coeffs] + [F.one()]
            return Poly(F, cs)
        vecs.append(target)
    raise AssertionError("no dependency up to degree n; Cayley-Hamilton violated")


# -- eigenvalues and diagonalizability ---------------------------------------


def eigenvalues_in_field(M: Matrix) -> list:
    """Distinct roots of the characteristic polynomial lying in the ground field, ascending.

    GF(p): `_roots_mod` on the int char poly, with its count checked against
    deg gcd(chi, t^p - t).  Rationals: Berkowitz on the integer matrix L*M
    (L the lcm of the denominators), whose integer roots are L times the
    rational eigenvalues.
    """
    M._need_square()
    F = M.field
    if F.is_finite:
        p = F.cardinality
        chi = char_poly_rows(M.rows, p)
        roots = _roots_mod(chi, p)
        if len(roots) != len(_linear_part_mod(chi, p)) - 1:
            raise AssertionError("root finder and gcd eigenvalue counts disagree")
        return roots
    L, rows = clear_denominators(M.rows)
    return [Fraction(r, L) for r in _integer_roots(char_poly_rows(rows))]


def clear_denominators(rows) -> tuple[int, list[list[int]]]:
    """L, the lcm of every entry's denominator, and the integer rows of L * rows."""
    L = lcm(*(x.denominator for r in rows for x in r))
    return L, [[x.numerator * (L // x.denominator) for x in r] for r in rows]


# A polynomial without a root modulo one of these has no nonzero integer root.
_SIEVE_PRIMES = (3, 5, 7, 11, 13)


def _integer_roots(g: list[int]) -> list[int]:
    """Distinct integer roots, ascending, of a monic integer polynomial (low degree first).

    Zero roots are pulled off first, and the sieve rejects most of the rest.
    Every other root r has |r| <= B, the Cauchy bound.  The roots of the
    squarefree part h modulo a prime p where h stays squarefree are simple,
    so each lifts uniquely (Hensel) to a root modulo p^k > 2B; the centred
    residues that pass an exact check are the integer roots.
    """
    k = 0
    while g[k] == 0:
        k += 1
    roots = [0] if k else []
    g = g[k:]
    if len(g) == 1 or not all(_roots_mod(g, p) for p in _SIEVE_PRIMES):
        return roots
    h = _squarefree_part(g)
    bound = 1 + max(abs(c) for c in h[:-1])
    p = _separable_prime(h)
    dh = _derivative(h)
    lifted, m = _roots_mod(h, p), p
    while m <= 2 * bound:
        # Newton step: a root mod m becomes the unique root mod m^2 above it.
        lifted = [(r - _horner(h, r) * pow(_horner(dh, r), -1, m)) % (m * m) for r in lifted]
        m *= m
    centred = (r if 2 * r <= m else r - m for r in lifted)
    return sorted(roots + [r for r in centred if _horner(g, r) == 0])


def _horner(g: list[int], x: int) -> int:
    out = 0
    for c in reversed(g):
        out = out * x + c
    return out


def _derivative(g: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(g)][1:]


def _squarefree_part(g: list[int]) -> list[int]:
    """g / gcd(g, g') for a monic g, monic over Z by Gauss's lemma."""
    d = _gcd_mod(g, _derivative(g), 0)
    return g if len(d) == 1 else [c.numerator for c in _divmod_mod(g, d, 0)[0]]


def _separable_prime(h: list[int]) -> int:
    """The smallest prime modulo which the squarefree monic h stays squarefree."""
    p = 2
    while True:
        if is_prime(p):
            dh = _trim([c % p for c in _derivative(h)])
            if dh and len(_gcd_mod([c % p for c in h], dh, p)) == 1:
                return p
        p += 1


# Polynomials over GF(p) as plain int lists, low degree first, canonical
# residues and no trailing zeros (the zero polynomial is []).  The division
# and the gcd also take p = 0 for Q, on lists of ints and Fractions.


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod_mod(f: list, g: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of f by a nonzero g over GF(p), or over Q when p = 0."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p) if p else 1 / Fraction(g[-1])
    quo = [0] * max(0, len(r) - dg)
    for i in range(len(quo) - 1, -1, -1):
        c = r[i + dg] * inv % p if p else r[i + dg] * inv
        if c:
            quo[i] = c
            for j, x in enumerate(g):
                r[i + j] = (r[i + j] - c * x) % p if p else r[i + j] - c * x
    return _trim(quo), _trim(r[:dg])


def _gcd_mod(f: list, g: list, p: int) -> list:
    """Monic gcd over GF(p), or over Q when p = 0, of two polynomials, not both zero."""
    while g:
        f, g = g, _divmod_mod(f, g, p)[1]
    inv = pow(f[-1], -1, p) if p else 1 / Fraction(f[-1])
    return [c * inv % p for c in f] if p else [c * inv for c in f]


def _mulmod_mod(f: list[int], g: list[int], m: list[int], p: int) -> list[int]:
    """f * g reduced modulo m over GF(p)."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _divmod_mod([c % p for c in out], m, p)[1]


def _powmod_mod(f: list[int], e: int, m: list[int], p: int) -> list[int]:
    """f^e reduced modulo m over GF(p), for e >= 1, by square-and-multiply."""
    base, out = f, [1]
    while e:
        if e & 1:
            out = _mulmod_mod(out, base, m, p)
        base = _mulmod_mod(base, base, m, p)
        e >>= 1
    return out


def _minus_t(f: list[int], p: int) -> list[int]:
    """f - t over GF(p)."""
    f = f + [0] * (2 - len(f))
    f[1] = (f[1] - 1) % p
    return _trim(f)


def _linear_part_mod(f: list[int], p: int) -> list[int]:
    """gcd(f, t^p - t) for a monic f over GF(p): the product of its distinct linear factors."""
    return _gcd_mod(f, _minus_t(_powmod_mod([0, 1], p, f, p), p), p)


def _roots_mod(g: list[int], p: int) -> list[int]:
    """Distinct roots, ascending, modulo p of an integer polynomial g, monic mod p.

    A scan of all residues when p <= SCAN_LIMIT.  Above it, the roots of
    gcd(g, t^p - t) are split apart by gcd with (t + s)^((p-1)/2) - 1 for
    seeded shifts s.
    """
    if p <= SCAN_LIMIT:
        gp = [c % p for c in reversed(g)]
        out = []
        for x in range(p):
            v = 0
            for c in gp:
                v = (v * x + c) % p
            if v == 0:
                out.append(x)
        return out
    rng = random.Random(0)
    parts, roots = [_linear_part_mod([c % p for c in g], p)], []
    while parts:
        f = parts.pop()
        if len(f) == 2:
            roots.append(-f[0] % p)
        elif len(f) > 2:
            h = _powmod_mod([rng.randrange(p), 1], (p - 1) // 2, f, p)
            d = _gcd_mod(f, _trim([(h[0] - 1) % p] + h[1:]) if h else [p - 1], p)
            parts += [d, _divmod_mod(f, d, p)[0]] if 1 < len(d) < len(f) else [f]
    return sorted(roots)


def _simple_factor_mod(f: list[int], p: int) -> list[int] | None:
    """A monic irreducible factor of multiplicity 1 of the monic f over GF(p), or None.

    With g = gcd(f, f') and r = f / g (the factors whose multiplicity p does
    not divide), u = r / gcd(r, g) is the product of the simple factors.  A
    distinct-degree split of u returns the first degree part that is a single
    factor.  A part of several linear factors gives t - r for its least root
    r when p <= SCAN_LIMIT; any other part of several factors of one degree
    is divided out.
    """
    g = _gcd_mod(f, _trim([c % p for c in _derivative(f)]), p)
    r = _divmod_mod(f, g, p)[0]
    u = _divmod_mod(r, _gcd_mod(r, g, p), p)[0]
    h, d = [0, 1], 0  # h = t^(p^d) mod u
    while len(u) > 1:
        d += 1
        if 2 * d > len(u) - 1:
            return u  # every factor of degree below d is gone
        h = _powmod_mod(h, p, u, p)
        part = _gcd_mod(u, _minus_t(h, p), p)
        if len(part) - 1 == d:
            return part
        if d == 1 and len(part) > 2 and p <= SCAN_LIMIT:
            return [-_roots_mod(part, p)[0] % p, 1]
        if len(part) > 1:
            u = _divmod_mod(u, part, p)[0]
            h = _divmod_mod(h, u, p)[1]
    return None


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


def is_diagonalizable(M: Matrix) -> bool:
    """Whether M is diagonalizable over its own ground field.

    GF(p): M^p = M, that is the minimal polynomial divides t^p - t
    (squarefree and split), with M^p by repeated squaring on plain ints mod
    p.  Rationals: with A = L*M the integer matrix (L the lcm of the
    denominators), M is diagonalizable over Q exactly when the product of
    A - rI over the distinct integer roots r of A's char poly is zero.
    """
    M._need_square()
    F = M.field
    if M.nrows == 0:
        return True
    if F.is_finite:
        p = F.cardinality
        rows = [list(r) for r in M.rows]
        power, base, e = None, rows, p
        while e:
            if e & 1:
                power = base if power is None else _matmul(power, base, p)
            e >>= 1
            if e:
                base = _matmul(base, base, p)
        return power == rows
    _, A = clear_denominators(M.rows)
    P = [[int(i == j) for j in range(M.nrows)] for i in range(M.nrows)]
    for r in _integer_roots(char_poly_rows(A)):
        P = _matmul(P, [[x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(A)])
    return not any(map(any, P))
