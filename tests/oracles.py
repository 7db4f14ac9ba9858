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

from matspace import MatSpace, Matrix, Poly, VecSpace, Vector, char_poly, kernel_basis, min_poly
from matspace.errors import ZeroVector
from matspace.predicates import HOLDS, Verdict, projective_points


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
    m = min_poly(M)
    t = Poly.x(M.field)
    return Poly.pow_mod(t, M.field.cardinality, m) == t % m


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
        chi = char_poly(M)
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
    return rational_roots_oracle(char_poly(M))


@functools.lru_cache(maxsize=4096)
def diagonalizable_q_oracle(M):
    """Squarefree minimal polynomial whose rational linear factors exhaust it."""
    F = M.field
    m = min_poly(M)
    if Poly.gcd(m, m.derivative()).degree != 0:
        return False
    residual = m
    for r in rational_roots_oracle(m):
        residual = residual // Poly(F, [F.neg(r), F.one()])
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
# Berkowitz on field methods, root splitting with `Poly` gcds and powers, and
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
    """Roots of a monic squarefree `Poly` over GF(q) that splits into linear factors,
    by gcds with (t + s)^((q-1)/2) - 1 for random shifts s."""
    F = g.field
    q = F.cardinality
    if g.degree <= 0:
        return []
    if g.degree == 1:
        return [F.neg(g.coeffs[0])]
    while True:
        shifted = Poly(F, [rng.randrange(q), F.one()])
        d = Poly.gcd(g, Poly.pow_mod(shifted, (q - 1) // 2, g) - Poly.one(F))
        if 0 < d.degree < g.degree:
            return split_roots_oracle(d, rng) + split_roots_oracle(g // d, rng)


def eigenvalues_split_oracle(M) -> list:
    """GF(q) eigenvalues, ascending: roots of gcd(chi, t^q - t), split with `Poly` arithmetic."""
    F = M.field
    chi = Poly(F, berkowitz_oracle(F, M.rows))
    t = Poly.x(F)
    g = Poly.gcd(chi, Poly.pow_mod(t, F.cardinality, chi) - t)
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
