"""Independent brute-force oracles used to freeze expected test values.

Everything here stays deliberately naive: permutation-expansion determinants,
exhaustive eigenvalue scans, eigenbasis searches by dimension counting,
all-lines stability checks, and membership tests against the full element
list of a space, over every matrix of Mat_n(F_q).  None of it shares code with the library paths it
cross-checks (field arithmetic is the common, separately-tested base layer).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from matspace import MatSpace, Matrix, VecSpace, Vector, char_poly, kernel_basis, min_poly
from matspace.errors import ZeroVector
from matspace.predicates import HOLDS, Verdict, _members, projective_points
from matspace.spaces import DEFAULT_BUDGET


class FieldPoly:
    """A polynomial over a field, low degree first, with arithmetic on field methods.

    This is the arithmetic `Poly` ran before it became a value type over the
    int-list functions of `polys`, so the two must agree coefficient for
    coefficient.
    """

    def __init__(self, field, coeffs):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def of(cls, poly):
        """The FieldPoly with the coefficients of a library `Poly`."""
        return cls(poly.field, poly.coeffs)

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return FieldPoly(F, out)

    def __neg__(self):
        return FieldPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        if self.is_zero or other.is_zero:
            return FieldPoly(F, ())
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a != 0:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return FieldPoly(F, out)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        return FieldPoly(F, [F.mul(c, a) for a in self.coeffs])

    def monic(self):
        return self if self.is_zero else self.scale(self.field.inv(self.coeffs[-1]))

    def __divmod__(self, other):
        from matspace.errors import DivisionByZero

        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        div = other.coeffs
        inv_lead = F.inv(div[-1])
        quo = [F.zero()] * max(0, len(rem) - len(div) + 1)
        for i in range(len(rem) - len(div), -1, -1):
            c = F.mul(rem[i + len(div) - 1], inv_lead)
            if c == 0:
                continue
            quo[i] = c
            for j, d in enumerate(div):
                rem[i + j] = F.sub(rem[i + j], F.mul(c, d))
        return FieldPoly(F, quo), FieldPoly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval(self, x):
        F = self.field
        x = F.coerce(x)
        out = F.zero()
        for c in reversed(self.coeffs):
            out = F.add(F.mul(out, x), c)
        return out

    def derivative(self):
        F = self.field
        return FieldPoly(F, [F.mul(F.coerce(i), c) for i, c in enumerate(self.coeffs[1:], start=1)])

    @staticmethod
    def gcd(a, b):
        """Monic greatest common divisor."""
        while not b.is_zero:
            a, b = b, (a % b).monic()
        return a.monic()

    @staticmethod
    def pow_mod(base, e, mod):
        """base^e reduced modulo mod."""
        result = FieldPoly(base.field, (base.field.one(),)) % mod
        base = base % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, FieldPoly) and other.field == self.field and other.coeffs == self.coeffs


def det_oracle(M):
    """Leibniz permutation expansion."""
    F = M.field
    n = M.nrows
    total = F.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F.one()
        for i in range(n):
            term = F.mul(term, M.rows[i][perm[i]])
        total = F.add(total, term if sign == 1 else F.neg(term))
    return total


def eigenvalues_oracle(M):
    """{lam in F : det(lam*I - M) = 0} by exhaustive field scan."""
    F = M.field
    out = []
    for lam in F.elements():
        shifted = Matrix.identity(F, M.nrows) * lam - M
        if det_oracle(shifted) == 0:
            out.append(lam)
    return out


def rref_field_ops_oracle(F, rows):
    """RREF written out locally on field methods; returns (rows, pivot columns).

    This is the GF(p) elimination `rref_rows` ran before it moved to plain
    ints mod p, so the two must agree entry for entry.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows, pivots


def matmul_field_ops_oracle(F, A, B):
    """Row lists A times B, entry by entry through the field's add and mul.

    This is the product `Matrix.__mul__` ran before products moved to native
    numbers in `matrices._matmul`, so the two must agree entry for entry.
    """
    cols = list(zip(*B))
    out = []
    for r in A:
        row = []
        for c in cols:
            s = F.zero()
            for a, b in zip(r, c):
                if a != 0 and b != 0:
                    s = F.add(s, F.mul(a, b))
            row.append(s)
        out.append(row)
    return out


def rank_oracle(M):
    return len(rref_field_ops_oracle(M.field, M.rows)[1])


def diagonalizable_oracle(M):
    """Eigenbasis search: eigenspace dimensions must sum to n."""
    F = M.field
    n = M.nrows
    total = 0
    for lam in F.elements():
        shifted = Matrix.identity(F, n) * lam - M
        total += n - rank_oracle(shifted)
    return total == n


def diagonalizable_min_poly_oracle(M):
    """GF(q): the minimal polynomial divides t^q - t, tested as t^q mod m == t mod m.

    The test `is_diagonalizable` made before it compared M^q with M on ints.
    """
    m = FieldPoly.of(min_poly(M))
    t = FieldPoly.x(M.field)
    return FieldPoly.pow_mod(t, M.field.cardinality, m) == t % m


def spin_oracle(V: MatSpace, v: Vector) -> VecSpace:
    """Worklist saturation on Matrix * Vector products and VecSpace membership.

    This is the loop `spin` ran before it kept its span as RREF rows, so the
    two must return the same canonical space.
    """
    if v.is_zero:
        raise ZeroVector("cannot spin from the zero vector")
    basis = V.basis()
    space = VecSpace.from_vectors(V.field, V.n, [v])
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for M in basis:
            w = M * u
            if not w.is_zero and not space.contains(w):
                space = space.with_vector(w)
                frontier.append(w)
        if space.is_full:
            break
    return space


def irreducible_lines_oracle(V: MatSpace):
    """n = 2 only: test stability of every line of F^2 under every basis matrix."""
    assert V.n == 2
    F = V.field
    q = F.cardinality
    lines = [Vector(F, (1, t)) for t in range(q)] + [Vector(F, (0, 1))]
    basis = V.basis()
    for v in lines:
        stable = True
        for M in basis:
            w = M * v
            # w must be proportional to v
            if w.is_zero:
                continue
            cross = F.sub(
                F.mul(v.entries[0], w.entries[1]), F.mul(v.entries[1], w.entries[0])
            )
            if cross != 0:
                stable = False
                break
        if stable:
            return False  # a stable line exists
    return True


def irreducible_scan_oracle(V: MatSpace) -> Verdict:
    """Finite-field irreducibility by spinning from every projective point.

    The first proper spin is the witness; `irreducible` must return exactly
    this verdict, whether or not Norton's criterion settles it first.
    """
    for v in projective_points(V.field, V.n):
        sub = spin_oracle(V, v)
        if not sub.is_full:
            return Verdict.fails(sub)
    return Verdict.holds()


# -- full finite-field member scans ----------------------------------------------
#
# The exhaustive predicates as they were before they visited one member per
# projective class: every member of V in enumeration order (first basis
# coefficient varying fastest), every projective point for isotropy.


def members_in_order(V: MatSpace):
    """All q^dim members of V, first basis coefficient varying fastest."""
    F = V.field
    basis = V.basis()
    for digits in itertools.product(range(F.cardinality), repeat=len(basis)):
        coeffs = digits[::-1]
        M = Matrix.zero(F, V.n)
        for c, B in zip(coeffs, basis):
            if c:
                M = M + B * c
        yield coeffs, M


def projective_members_oracle(V: MatSpace) -> list:
    """The members whose last nonzero basis coefficient is 1, in enumeration order."""
    out = []
    for coeffs, M in members_in_order(V):
        nonzero = [c for c in coeffs if c]
        if nonzero and nonzero[-1] == 1:
            out.append(M)
    return out


def trivial_spectrum_scan_oracle(V: MatSpace) -> Verdict:
    for _, M in members_in_order(V):
        chi = FieldPoly.of(char_poly(M))
        for lam in range(1, V.field.cardinality):
            if chi.eval(lam) == 0:
                return Verdict.fails((M, lam))
    return Verdict.holds()


def all_diagonalizable_scan_oracle(V: MatSpace) -> Verdict:
    for _, M in members_in_order(V):
        if not diagonalizable_min_poly_oracle(M):
            return Verdict.fails(M)
    return Verdict.holds()


def non_isotropic_scan_oracle(P) -> Verdict:
    for x in projective_points(P.field, P.nrows):
        if x.dot(P * x) == 0:
            return Verdict.fails(x)
    return Verdict.holds()


def small_isotropic_vector_oracle(P):
    """The first nonzero x in [-5, 5]^n, in product order, with x^T P x = 0, or None.

    The rational fallback of `non_isotropic` as it ran on Vector and Matrix
    products.
    """
    for tail in itertools.product(range(-5, 6), repeat=P.nrows):
        if any(tail):
            x = Vector(P.field, tail)
            if x.dot(P * x) == 0:
                return x
    return None


def invertible_pick_oracle(space: MatSpace):
    """The basis member, else the first member, of `space` that is invertible, or None."""
    candidates = itertools.chain(space.basis(), (M for _, M in members_in_order(space)))
    return next((M for M in candidates if rank_oracle(M) == space.n), None)


def gaussian_binomial_oracle(m, d, q):
    num = den = 1
    for i in range(d):
        num *= q**m - q**i
        den *= q**d - q**i
    return num // den if d else 1


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1)); 1 for n = 0."""
    return math.prod(q**n - q**i for i in range(n))


def diagonalizable_lines(n: int, q: int) -> int:
    """Lines of Mat_n(F_q) spanned by a diagonalizable matrix.

    A diagonalizable matrix is fixed by its eigenvalue multiplicities
    (m_a for a in F_q, summing to n) and its eigenspaces, a decomposition of
    F_q^n whose stabilizer is the product of the GL_(m_a); so there are
    |GL_n| / prod |GL_(m_a)| of them per multiplicity vector.  Less the zero
    matrix, scaling by F_q^* makes lines.
    """
    parts = (m for m in itertools.product(range(n + 1), repeat=q) if sum(m) == n)
    matrices = sum(gl_order(n, q) // math.prod(gl_order(k, q) for k in m) for m in parts)
    return (matrices - 1) // (q - 1)


def maximal_diagonalizable_spaces(n: int, q: int) -> int:
    """The conjugates S*D_n*S^-1 of the diagonal matrices D_n in Mat_n(F_q).

    |GL_n| over the order n!(q-1)^n of D_n's normalizer, the monomial
    matrices.  Where the census reaches, they are all the n-dimensional
    all-diagonalizable subspaces.
    """
    return gl_order(n, q) // (math.factorial(n) * (q - 1) ** n)


def trivial_spectrum_lines(n: int, q: int) -> int:
    """Lines of Mat_n(F_q) spanned by a matrix with no nonzero eigenvalue, for q = 2 or n = 2.

    Over F_2 the only nonzero eigenvalue is 1, so M passes exactly when
    M + I is invertible: |GL_n(F_2)| matrices, the zero matrix among them.
    At n = 2, M passes when chi_M is t^2 (the q^2 nilpotents, zero included)
    or irreducible, for which there are (q^2 - q)/2 char polys, each with
    |GL_2| / (q^2 - 1) = q^2 - q matrices.
    """
    if q == 2:
        matrices = gl_order(n, 2)
    elif n == 2:
        matrices = q**2 + (q**2 - q) ** 2 // 2
    else:
        raise ValueError("no closed form for this size")
    return (matrices - 1) // (q - 1)


def irreducible_lines(n: int, q: int) -> int:
    """Lines <a> of Mat_n(F_q), n >= 2, that no proper nonzero subspace of F_q^n is stable under.

    <a> is irreducible exactly when chi_a is irreducible.  There are
    N_q(n) = (1/n) * sum over e | n of mu(n/e) * q^e monic irreducibles of
    degree n (Gauss); the matrices with one of them as char poly form one
    GL_n(F_q) class, whose centralizer F_q[a]^* has order q^n - 1.  Scaling
    by F_q^* keeps chi_a irreducible, and for n >= 2 the zero matrix is not
    among them, so the lines are the matrices divided by q - 1.
    """

    def mobius(k):
        sign, p = 1, 2
        while k > 1:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    monic_irreducibles = sum(mobius(n // e) * q**e for e in divisors_oracle(n)) // n
    return monic_irreducibles * gl_order(n, q) // ((q**n - 1) * (q - 1))


# -- unpruned census -------------------------------------------------------------
#
# The census enumeration as it was before it pruned at failing basis prefixes:
# pivot patterns in lexicographic order, one itertools.product over all free
# entries of a pattern (last free position varying fastest), and the whole
# predicate chain on every subspace.


def rref_bases_oracle(n: int, q: int, d: int):
    """Every canonical RREF basis of a d-dimensional subspace of Mat_n(F_q), as flat rows."""
    m = n * n
    for pattern in itertools.combinations(range(m), d):
        pivots = set(pattern)
        free = [(r, c) for r in range(d) for c in range(pattern[r] + 1, m) if c not in pivots]
        base = [[int(c == p) for c in range(m)] for p in pattern]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [row.copy() for row in base]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield rows


def census_oracle(n: int, q: int, d: int, chains, holds) -> dict:
    """chain -> (counts, every witness) for each chain of canonical predicate
    names, in census order; holds(name, rows) decides one predicate on one basis."""
    out = {chain: ({p: 0 for p in chain}, {p: [] for p in chain}) for chain in chains}
    for rows in rref_bases_oracle(n, q, d):
        verdicts = {}
        for chain in chains:
            counts, witnesses = out[chain]
            for p in chain:
                if p not in verdicts:
                    verdicts[p] = holds(p, rows)
                if not verdicts[p]:
                    break
                counts[p] += 1
                witnesses[p].append(rows)
    return out


def random_matrix(field, n, rng: random.Random, span_ints=True):
    if field.is_finite:
        q = field.cardinality
        return Matrix(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
    return Matrix(field, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def random_invertible(field, n, rng: random.Random):
    from matspace import invert
    from matspace.errors import Singular

    while True:
        M = random_matrix(field, n, rng)
        try:
            invert(M)
            return M
        except Singular:
            continue


def random_space(field, n, rng: random.Random, k=None) -> MatSpace:
    k = rng.randint(0, n * n) if k is None else k
    return MatSpace.span(
        [random_matrix(field, n, rng) for _ in range(k)], field=field, n=n
    )


def all_matrices(field, n):
    """Every matrix of Mat_n(F_q), q^(n^2) of them."""
    q = field.cardinality
    for values in itertools.product(range(q), repeat=n * n):
        yield Matrix(field, [values[i * n : (i + 1) * n] for i in range(n)])


def members_oracle(V: MatSpace) -> set:
    """Row-major vectorizations of all q^dim elements of V."""
    return {M.vec() for M in V.elements()}


def multipliers_oracle(V: MatSpace, T: MatSpace, side: str) -> set:
    """Every X with X*B (side "left") or B*X (side "right") in T for each basis B of V."""
    target = members_oracle(T)
    basis = V.basis()
    out = set()
    for X in all_matrices(V.field, V.n):
        products = [X * B if side == "left" else B * X for B in basis]
        if all(P.vec() in target for P in products):
            out.add(X.vec())
    return out


def alt_multiplier_oracle(space: MatSpace):
    """A non-isotropic P in GL_n(F_q) with space = P * Alt_n, by trying every matrix."""
    alt = MatSpace.standard("alt", space.n, space.field)
    for P in all_matrices(space.field, space.n):
        if det_oracle(P) == 0:
            continue
        if non_isotropic_scan_oracle(P).status == HOLDS and alt.transform(P, "left") == space:
            return P
    return None


# -- rational sampling references ------------------------------------------------
#
# The rational branches as they were before sampling moved to integers:
# trial-division rational roots of the Fraction char poly, and every seeded
# member tested, repeats of a projective class included.

_Q_SAMPLE_TRIVIAL = 1000
_Q_SAMPLE_KERNELS = 100


def divisors_oracle(n: int) -> list[int]:
    if n == 0:
        return []
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def rational_roots_oracle(chi) -> list:
    """Distinct rational roots of a Fraction polynomial by the rational-root theorem."""
    if chi.degree <= 0:
        return []
    lcm = 1
    for c in chi.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in chi.coeffs]
    roots = []
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    if k > 0:
        roots.append(Fraction(0))
    for p in divisors_oracle(abs(ints[k])):
        for q in divisors_oracle(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if chi.eval(cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


# Both are pure functions of the matrix; the cache only spares the sampled
# loops below from recomputing a member that the seeded draws repeat.
@functools.lru_cache(maxsize=4096)
def eigenvalues_q_oracle(M):
    return rational_roots_oracle(FieldPoly.of(char_poly(M)))


@functools.lru_cache(maxsize=4096)
def diagonalizable_q_oracle(M):
    """Squarefree minimal polynomial whose rational linear factors exhaust it."""
    F = M.field
    m = FieldPoly.of(min_poly(M))
    if FieldPoly.gcd(m, m.derivative()).degree != 0:
        return False
    residual = m
    for r in rational_roots_oracle(m):
        residual = residual // FieldPoly(F, [F.neg(r), F.one()])
    return residual.degree == 0


def rng_combination_oracle(V: MatSpace, basis, rng: random.Random):
    F = V.field
    out = Matrix.zero(F, V.n)
    for B in basis:
        c = rng.randint(-9, 9)
        if c:
            out = out + B * F.coerce(c)
    return out


def _q_candidates_oracle(V: MatSpace, seed: int):
    """The basis, then every seeded combination, repeats included."""
    rng = random.Random(seed)
    basis = V.basis()
    yield from basis
    for _ in range(_Q_SAMPLE_TRIVIAL):
        yield rng_combination_oracle(V, basis, rng)


def trivial_spectrum_q_oracle(V: MatSpace, seed: int = 0) -> Verdict:
    for M in _q_candidates_oracle(V, seed):
        for lam in eigenvalues_q_oracle(M):
            if lam != 0:
                return Verdict.fails((M, lam))
    return Verdict.unknown("infinite field: sampled members only")


def all_diagonalizable_q_oracle(V: MatSpace, seed: int = 0) -> Verdict:
    for M in _q_candidates_oracle(V, seed):
        if not diagonalizable_q_oracle(M):
            return Verdict.fails(M)
    return Verdict.unknown("infinite field: sampled members only")


def all_diagonalizable_matrix_loop_oracle(V: MatSpace, seed: int = 0) -> Verdict:
    """The loop `all_diagonalizable` ran before it tested int rows.

    Each member L*M of the same walk, `predicates._members`, is wrapped in a
    Matrix and decided by `diagonalizable_oracle` over GF(q) or by
    `diagonalizable_q_oracle` over Q; the witness is that Matrix over L.
    """
    F = V.field
    decide = diagonalizable_oracle if F.is_finite else diagonalizable_q_oracle
    L, members, exhaustive = _members(V, DEFAULT_BUDGET, seed, _Q_SAMPLE_TRIVIAL)
    for A in (Matrix(F, rows) for rows in members):
        if not decide(A):
            return Verdict.fails(A if L == 1 else A.scale(Fraction(1, L)))
    return Verdict.holds() if exhaustive else Verdict.unknown("infinite field: sampled members only")


def irreducible_q_oracle(V: MatSpace, seed: int = 0) -> Verdict:
    F, n = V.field, V.n
    rng = random.Random(seed)
    basis = V.basis()
    starts = [Vector.basis(F, n, i) for i in range(n)]
    for _ in range(_Q_SAMPLE_KERNELS):
        M = rng_combination_oracle(V, basis, rng)
        starts.extend(k for k in kernel_basis(M) if not k.is_zero)
    for v in starts:
        sub = spin_oracle(V, v)
        if not sub.is_full:
            return Verdict.fails(sub)
    return Verdict.unknown("infinite field: irreducibility not decided")


# -- field-generic char poly and GF(p) root references ----------------------------
#
# The char-poly and root paths as they were before they moved to plain ints:
# Berkowitz on field methods, root splitting with `FieldPoly` gcds and powers, and
# the Horner scan for the least nonzero root.


def berkowitz_oracle(field, rows) -> list:
    """Coefficients of det(tI - M), low degree first, by recursive Berkowitz on field methods."""
    return _berkowitz_hi_first(field, [list(r) for r in rows])[::-1]


def _berkowitz_hi_first(F, rows) -> list:
    n = len(rows)
    if n == 0:
        return [F.one()]
    a, R, C = rows[0][0], rows[0][1:], [r[0] for r in rows[1:]]
    sub = [r[1:] for r in rows[1:]]
    p = _berkowitz_hi_first(F, sub)
    col = [F.one(), F.neg(a)]
    w = C
    for k in range(2, n + 1):
        s = F.zero()
        for x, y in zip(R, w):
            s = F.add(s, F.mul(x, y))
        col.append(F.neg(s))
        w = [functools.reduce(F.add, (F.mul(x, y) for x, y in zip(r, w)), F.zero()) for r in sub]
    out = []
    for i in range(n + 1):
        s = F.zero()
        for j in range(min(i, n - 1) + 1):
            s = F.add(s, F.mul(col[i - j], p[j]))
        out.append(s)
    return out


def split_roots_oracle(g, rng: random.Random) -> list:
    """Roots of a monic squarefree `FieldPoly` over GF(q) that splits into linear factors,
    by gcds with (t + s)^((q-1)/2) - 1 for random shifts s."""
    F = g.field
    q = F.cardinality
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [F.neg(g.coeffs[0])]
    while True:
        shifted = FieldPoly(F, [rng.randrange(q), F.one()])
        d = FieldPoly.gcd(g, FieldPoly.pow_mod(shifted, (q - 1) // 2, g) - FieldPoly(F, [F.one()]))
        if 0 < d.degree < g.degree:
            return split_roots_oracle(d, rng) + split_roots_oracle(g // d, rng)


def eigenvalues_split_oracle(M) -> list:
    """GF(q) eigenvalues, ascending: roots of gcd(chi, t^q - t), split with `FieldPoly` arithmetic."""
    F = M.field
    chi = FieldPoly(F, berkowitz_oracle(F, M.rows))
    t = FieldPoly.x(F)
    g = FieldPoly.gcd(chi, FieldPoly.pow_mod(t, F.cardinality, chi) - t)
    return sorted(split_roots_oracle(g, random.Random(0)))


def least_nonzero_root_oracle(chi: list, p: int) -> int:
    """The least lam in 1..p-1 with chi(lam) = 0 mod p, or 0, by a Horner scan."""
    for lam in range(1, p):
        v = 0
        for c in reversed(chi):
            v = v * lam + c
        if v % p == 0:
            return lam
    return 0


# -- quadratic forms on field methods ------------------------------------------
# The form code of `recovery` before it moved to native numbers in `forms`,
# and the two checks it replaced: Sylvester's leading-minor criterion and the
# squarefree part through a field-method gcd.


def congruence_diagonalize_field_ops_oracle(P):
    """(Q, D) with Q * P * Q^T = D, by symmetric elimination on field methods."""
    from matspace.errors import Char2AlternatingResidual

    F = P.field
    n = P.nrows
    A = [list(r) for r in P.rows]
    Q = [list(r) for r in Matrix.identity(F, n).rows]

    def add_multiple(i, j, f):
        A[i] = [F.add(a, F.mul(f, b)) for a, b in zip(A[i], A[j])]
        for r in range(n):
            A[r][i] = F.add(A[r][i], F.mul(f, A[r][j]))
        Q[i] = [F.add(a, F.mul(f, b)) for a, b in zip(Q[i], Q[j])]

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
                    break
                if F.characteristic == 2:
                    raise Char2AlternatingResidual("zero-diagonal nonzero residual in characteristic 2")
                i, j = off
                add_multiple(i, j, F.one())
                if i != k:
                    swap(k, i)
        inv_p = F.inv(A[k][k])
        for i in range(k + 1, n):
            if A[i][k] != 0:
                add_multiple(i, k, F.neg(F.mul(A[i][k], inv_p)))
    return Matrix(F, Q), Matrix.diagonal(F, [A[i][i] for i in range(n)])


def square_class_normalize_field_ops_oracle(D):
    """(scales, c, offending index) for a diagonal D with no zero entry."""
    F = D.field
    d = D.diagonal_entries()
    scales = [F.one()]
    for i in range(1, len(d)):
        root = F.sqrt(F.div(d[0], d[i]))
        if root is None:
            return None, None, i
        scales.append(root)
    return scales, d[0], None


def nondiag_witness_field_ops_oracle(D, i):
    """(E_{1,i+1} + E_{i+1,1}) * D^-1 for a diagonal D."""
    F = D.field
    d = D.diagonal_entries()
    n = D.nrows
    return Matrix.unit(F, n, 0, i) * F.inv(d[i]) + Matrix.unit(F, n, i, 0) * F.inv(d[0])


def single_class_rediagonalize_field_ops_oracle(D):
    """(R, D2) with R * D * R^T = D2 diagonal in one square class, or None (odd p)."""
    F = D.field
    n = D.nrows
    d = D.diagonal_entries()
    disc = F.one()
    for di in d:
        disc = F.mul(disc, di)
    if n % 2 == 0:
        if not F.is_square(disc):
            return None
        tau = d[0]
    else:
        tau = next(di for di in d if F.is_square(F.mul(di, disc)))
    mismatched = [i for i, di in enumerate(d) if not F.is_square(F.mul(di, tau))]
    R = Matrix.identity(F, n)
    values = list(d)
    for a, b in zip(mismatched[0::2], mismatched[1::2]):
        da, db = values[a], values[b]
        for x in F.elements():
            y = F.sqrt(F.div(F.sub(tau, F.mul(da, F.mul(x, x))), db))
            if y is not None:
                break
        rows = [list(r) for r in Matrix.identity(F, n).rows]
        rows[a][a], rows[a][b] = x, y
        rows[b][a], rows[b][b] = F.neg(F.mul(db, y)), F.mul(da, x)
        R = Matrix(F, rows) * R
        values[a] = tau
        values[b] = F.mul(F.mul(da, db), tau)
    return R, Matrix.diagonal(F, values)


def definite_by_minors_oracle(P) -> bool:
    """Sylvester's criterion over Q: the leading principal minors are all
    positive, or alternate in sign starting negative."""
    minors = [det_oracle(Matrix(P.field, [r[:k] for r in P.rows[:k]])) for k in range(1, P.nrows + 1)]
    if all(m > 0 for m in minors):
        return True
    return all(m != 0 and (m < 0) == (k % 2 == 0) for k, m in enumerate(minors))


def squarefree_part_oracle(g: list) -> list:
    """g / gcd(g, g') for a monic integer g, through FieldPoly over Q."""
    from matspace import RationalField

    G = FieldPoly(RationalField(), g)
    d = FieldPoly.gcd(G, G.derivative())
    return g if d.degree == 0 else [c.numerator for c in (G // d).coeffs]
