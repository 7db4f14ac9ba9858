"""Dense exact matrices and column vectors over one field.

Provides elimination (RREF, kernels, inverses), the division-free Berkowitz
characteristic polynomial, Krylov minimal polynomials, and eigenvalue /
diagonalizability tests over the ground field.  All operations are pure and
matrices are immutable, so values can be shared freely.

Over Q, eigenvalues come from Berkowitz run on plain ints (the matrix times
the lcm of its denominators) and one integer root finder: a small-prime
sieve, then Hensel lifting of the roots modulo a prime.  Over GF(p),
elimination and the diagonalizability test (M^p = M) run on plain ints mod
p, and small helpers on int coefficient lists find an irreducible factor of
multiplicity 1 of a char poly, for the irreducibility test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import FieldMismatch, ShapeMismatch, Singular
from .fields import Field, PrimeField, RationalField, Scalar, is_prime
from .polys import Poly

# Exhaustive field scans (eigenvalue extraction, sqrt cross-checks) are only
# allowed up to this cardinality; larger fields use the gcd/splitting path.
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
        F = self.field
        return Vector(F, (F.add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        F = self.field
        return Vector(F, (F.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, (self.field.neg(a) for a in self.entries))

    def scale(self, c) -> "Vector":
        F = self.field
        c = F.coerce(c)
        return Vector(F, (F.mul(c, a) for a in self.entries))

    def dot(self, other: "Vector") -> Scalar:
        self._check(other)
        F = self.field
        out = F.zero()
        for a, b in zip(self.entries, other.entries):
            out = F.add(out, F.mul(a, b))
        return out

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
        self._need_square()
        F = self.field
        out = F.zero()
        for i in range(self.nrows):
            out = F.add(out, self.rows[i][i])
        return out

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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("addition shape mismatch")
        F = self.field
        return Matrix(
            F,
            [
                [F.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        F = self.field
        return Matrix(F, [[F.neg(x) for x in r] for r in self.rows])

    def __mul__(self, other):
        F = self.field
        if isinstance(other, Matrix):
            self._check(other)
            if self.ncols != other.nrows:
                raise ShapeMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows))
            out = []
            for r in self.rows:
                row = []
                for c in cols:
                    s = F.zero()
                    for a, b in zip(r, c):
                        if a != 0 and b != 0:
                            s = F.add(s, F.mul(a, b))
                    row.append(s)
                out.append(row)
            return Matrix(F, out)
        if isinstance(other, Vector):
            if other.field != F:
                raise FieldMismatch(f"{F} vs {other.field}")
            if self.ncols != other.dim:
                raise ShapeMismatch("matrix-vector shape mismatch")
            out = []
            for r in self.rows:
                s = F.zero()
                for a, b in zip(r, other.entries):
                    s = F.add(s, F.mul(a, b))
                out.append(s)
            return Vector(F, out)
        return Matrix(F, [[F.mul(F.coerce(other), x) for x in r] for r in self.rows])

    def __rmul__(self, other):
        # scalar * matrix
        F = self.field
        return Matrix(F, [[F.mul(F.coerce(other), x) for x in r] for r in self.rows])

    def __matmul__(self, other):
        return self.__mul__(other)

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


def rref_rows(field: Field, rows: list) -> tuple[list, list[int]]:
    """In-place style RREF on a list of coefficient rows; returns (rows, pivot columns).

    Over GF(p) the row operations run inline on plain ints mod p; over Q
    they go through the field's methods.
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
        inv = pow(rows[r][c], -1, p) if p else field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [inv * v % p for v in rows[r]] if p else [field.mul(inv, v) for v in rows[r]]
        prow = rows[r]
        for i in range(m):
            f = rows[i][c]
            if i != r and f != 0:
                if p:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
                else:
                    rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rref(M: Matrix) -> tuple[Matrix, int, list[int]]:
    """Unique reduced row-echelon form, with rank and pivot columns."""
    if M.field.kind == "prime" and M.field.characteristic == 2 and M.nrows and M.ncols:
        from . import gf2

        packed = gf2.pack_rows([list(r) for r in M.rows], M.ncols)
        out, pivots = gf2.rref_bits(packed, M.ncols)
        rows = [gf2.unpack_row(b, M.ncols) for b in out]
        return Matrix(M.field, rows), len(pivots), pivots
    rows, pivots = rref_rows(M.field, [list(r) for r in M.rows])
    return Matrix(M.field, rows), len(pivots), pivots


def rref_rows_generic(field: Field, rows: list) -> tuple[list, list[int]]:
    """Generic-path RREF, bypassing the packed GF(2) fast path (for parity tests)."""
    return rref_rows(field, rows)


def kernel_rows(field: Field, rows: list, ncols: int) -> list[list]:
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
    return [Vector(M.field, v) for v in kernel_rows(M.field, [list(r) for r in M.rows], M.ncols)]


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


class _IntegerRing:
    """The ring Z with the operations Berkowitz uses, so that it runs on ints."""

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a


INTEGERS = _IntegerRing()


def _berkowitz(field: Field, rows: list) -> list:
    """Coefficients of det(tI - M), highest degree first, by the division-free
    Berkowitz iteration on leading principal submatrices."""
    n = len(rows)
    if n == 0:
        return [field.one()]
    F = field
    if n == 1:
        return [F.one(), F.neg(rows[0][0])]
    a = rows[0][0]
    R = rows[0][1:]
    C = [rows[i][0] for i in range(1, n)]
    sub = [r[1:] for r in rows[1:]]
    p = _berkowitz(field, sub)  # length n
    # Toeplitz column: 1, -a, -(R C), -(R M C), ...
    col = [F.one(), F.neg(a)]
    w = C
    for k in range(2, n + 1):
        s = F.zero()
        for x, y in zip(R, w):
            if x != 0 and y != 0:
                s = F.add(s, F.mul(x, y))
        col.append(F.neg(s))
        if k < n:
            w = [
                _dot(F, sub_row, w)
                for sub_row in sub
            ]
    out = []
    for i in range(n + 1):
        s = F.zero()
        lo = max(0, i - (len(col) - 1))
        for j in range(lo, min(i, n - 1) + 1):
            c = col[i - j]
            if c != 0 and p[j] != 0:
                s = F.add(s, F.mul(c, p[j]))
        out.append(s)
    return out


def _dot(field: Field, xs, ys) -> Scalar:
    s = field.zero()
    for x, y in zip(xs, ys):
        if x != 0 and y != 0:
            s = field.add(s, field.mul(x, y))
    return s


def char_poly_rows(field: Field, rows: list) -> list:
    """Characteristic polynomial coefficients, low degree first.

    `field` may also be INTEGERS, for an integer matrix.
    """
    hi_first = _berkowitz(field, rows)
    return hi_first[::-1]


def char_poly(M: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - M)."""
    M._need_square()
    return Poly(M.field, char_poly_rows(M.field, [list(r) for r in M.rows]))


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


def _linear_factor_part(chi: Poly, q: int) -> Poly:
    """gcd(chi, t^q - t): the product of chi's distinct linear factors over GF(q)."""
    F = chi.field
    t = Poly.x(F)
    tq = Poly.pow_mod(t, q, chi)
    return Poly.gcd(chi, tq - t)


def _split_roots(g: Poly, rng: random.Random) -> list:
    """Roots of a monic squarefree polynomial that splits into linear factors.

    Random quadratic-residue shifts separate the roots; the caller fixes the
    seed so the recursion (and the output order after sorting) is deterministic.
    """
    F = g.field
    q = F.cardinality
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [F.neg(g.coeffs[0])]
    t = Poly.x(F)
    while True:
        s = rng.randrange(q)
        shifted = Poly(F, [s, F.one()])
        h = Poly.pow_mod(shifted, (q - 1) // 2, g) - Poly.one(F)
        d = Poly.gcd(g, h)
        if 0 < d.degree < g.degree:
            return _split_roots(d, rng) + _split_roots(g // d, rng)


def eigenvalues_in_field(M: Matrix) -> list:
    """Distinct roots of the characteristic polynomial lying in the ground field.

    Finite fields: gcd with t^q - t isolates the split part, whose roots are
    extracted by a full field scan when q <= 10^4 (with a degree cross-check
    against the gcd) and by seeded root splitting beyond that.  Rationals:
    Berkowitz on the integer matrix L*M (L the lcm of the denominators), whose
    integer roots are L times the rational eigenvalues.
    """
    M._need_square()
    F = M.field
    if F.is_finite:
        chi = char_poly(M)
        g = _linear_factor_part(chi, F.cardinality)
        if g.degree <= 0:
            return []
        if F.cardinality <= SCAN_LIMIT:
            roots = [x for x in F.elements() if chi.eval(x) == 0]
            if len(roots) != g.degree:
                raise AssertionError("scan and gcd eigenvalue paths disagree")
        else:
            roots = sorted(_split_roots(g, random.Random(0)))
        return roots
    L, rows = clear_denominators(M.rows)
    return [Fraction(r, L) for r in _integer_roots(char_poly_rows(INTEGERS, rows))]


def clear_denominators(rows) -> tuple[int, list[list[int]]]:
    """L, the lcm of every entry's denominator, and the integer rows of L * rows."""
    L = lcm(*(x.denominator for r in rows for x in r))
    return L, [[x.numerator * (L // x.denominator) for x in r] for r in rows]


def _rational_roots(chi: Poly) -> list:
    """Distinct rational roots of a monic polynomial over Q, ascending.

    With D the lcm of the denominators, D^d * chi(s/D) is monic over Z and
    its integer roots are D times those of chi.
    """
    d = chi.degree
    if d <= 0:
        return []
    D = lcm(*(c.denominator for c in chi.coeffs))
    g = [c.numerator * (D ** (d - i) // c.denominator) for i, c in enumerate(chi.coeffs)]
    return [Fraction(r, D) for r in _integer_roots(g)]


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
    dh = [i * c for i, c in enumerate(h)][1:]
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


def _roots_mod(g: list[int], p: int) -> list[int]:
    """Roots of g modulo p, by a scan of all residues."""
    gp = [c % p for c in reversed(g)]
    out = []
    for x in range(p):
        v = 0
        for c in gp:
            v = (v * x + c) % p
        if v == 0:
            out.append(x)
    return out


# Polynomials over GF(p) as plain int lists, low degree first, canonical
# residues and no trailing zeros (the zero polynomial is []).


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod_mod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a nonzero g over GF(p)."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    quo = [0] * max(0, len(r) - dg)
    for i in range(len(quo) - 1, -1, -1):
        c = r[i + dg] * inv % p
        if c:
            quo[i] = c
            for j, x in enumerate(g):
                r[i + j] = (r[i + j] - c * x) % p
    return _trim(quo), _trim(r[:dg])


def _gcd_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of two polynomials, not both zero."""
    while g:
        f, g = g, _divmod_mod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _mulmod_mod(f: list[int], g: list[int], m: list[int], p: int) -> list[int]:
    """f * g reduced modulo m over GF(p)."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _divmod_mod([c % p for c in out], m, p)[1]


def _simple_factor_mod(f: list[int], p: int) -> list[int] | None:
    """A monic irreducible factor of multiplicity 1 of the monic f over GF(p), or None.

    With g = gcd(f, f') and r = f / g (the factors whose multiplicity p does
    not divide), u = r / gcd(r, g) is the product of the simple factors.  A
    distinct-degree split of u returns the first degree part that is a single
    factor.  A part of several linear factors gives t - r for its least root
    r when p <= SCAN_LIMIT; any other part of several factors of one degree
    is divided out.
    """
    g = _gcd_mod(f, _trim([i * c % p for i, c in enumerate(f)][1:]), p)
    r = _divmod_mod(f, g, p)[0]
    u = _divmod_mod(r, _gcd_mod(r, g, p), p)[0]
    h, d = [0, 1], 0  # h = t^(p^d) mod u
    while len(u) > 1:
        d += 1
        if 2 * d > len(u) - 1:
            return u  # every factor of degree below d is gone
        base, e, h = h, p, [1]
        while e:
            if e & 1:
                h = _mulmod_mod(h, base, u, p)
            base = _mulmod_mod(base, base, u, p)
            e >>= 1
        part = _gcd_mod(u, _trim([(c - (i == 1)) % p for i, c in enumerate(h + [0, 0])]), p)
        if len(part) - 1 == d:
            return part
        if d == 1 and len(part) > 2 and p <= SCAN_LIMIT:
            return [-_roots_mod(part, p)[0] % p, 1]
        if len(part) > 1:
            u = _divmod_mod(u, part, p)[0]
            h = _divmod_mod(h, u, p)[1]
    return None


def _squarefree_part(g: list[int]) -> list[int]:
    """g / gcd(g, g'), monic over Z by Gauss's lemma."""
    G = Poly(RationalField(), g)
    d = Poly.gcd(G, G.derivative())
    return g if d.degree == 0 else [c.numerator for c in (G // d).coeffs]


def _separable_prime(h: list[int]) -> int:
    """The smallest prime modulo which the squarefree monic h stays squarefree."""
    p = 2
    while True:
        if is_prime(p):
            H = Poly(PrimeField(p), h)
            if Poly.gcd(H, H.derivative()).degree == 0:
                return p
        p += 1


def _matmul_mod(A: list, B: list, p: int) -> list:
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in A]


def is_diagonalizable(M: Matrix) -> bool:
    """Whether M is diagonalizable over its own ground field.

    Finite field GF(p): M^p = M, that is the minimal polynomial divides
    t^p - t (squarefree and split), with M^p by repeated squaring on plain
    ints mod p.  Rationals: squarefree minimal polynomial whose rational
    linear factors exhaust it.
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
                power = base if power is None else _matmul_mod(power, base, p)
            e >>= 1
            if e:
                base = _matmul_mod(base, base, p)
        return power == rows
    m = min_poly(M)
    if Poly.gcd(m, m.derivative()).degree != 0:
        return False
    return len(_rational_roots(m)) == m.degree
