"""Decision procedures on subspaces, each returning a checkable verdict.

Over finite fields every predicate here is decided and a Fails verdict always
carries a witness that re-verifies on its own.  Irreducibility is first tried
with Norton's criterion (two spins); only when that does not prove it does
the exhaustive projective scan run, so a witness always comes from the scan.
`trivial_spectrum` and `all_diagonalizable` ask a scale-invariant question of
each member, so they test one member per projective class
(`MatSpace.projective_rows`), on plain ints mod p, and still return the first
failing member of the full enumeration; `non_isotropic` solves for the last
coordinate of each projective point instead of trying its q values.
Eigenvalues over GF(p) come from the int char poly (`char_poly_rows`) and the
one root finder `matrices._roots_mod`.  `spin` keeps its span as RREF rows
and asks `rref_rows` once per image whether it is new.
Over the rationals, irreducibility and isotropy are three-valued: Unknown is
an honest answer and is never silently converted.  A symmetric form is
proved non-isotropic when it is definite, read from the signs of its
congruence diagonal in `forms`.

The rational branches of `trivial_spectrum`, `all_diagonalizable` and the
kernel starts of `irreducible` share one sampler: the basis, then seeded
integer combinations, each projective class tested once.  They work on the
integer matrix L*M (L the lcm of the basis denominators): char polys come
from the same int Berkowitz, eigenvalues from a sieve + Hensel integer root
finder, diagonalizability from a product of shifted integer matrices, and a
Fraction matrix is built only for a witness.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import BudgetExceeded, InfiniteField, ZeroVector
from .fields import Field
from .forms import congruence_diagonalize
from .matrices import (
    Matrix,
    Vector,
    _integer_roots,
    _matmul,
    _roots_mod,
    _simple_factor_mod,
    char_poly_rows,
    clear_denominators,
    is_diagonalizable,
    kernel_rows,
    rref_rows,
)
from .spaces import DEFAULT_BUDGET, MatSpace, VecSpace, _unflatten

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

_Q_SAMPLE_TRIVIAL = 1000
_Q_SAMPLE_KERNELS = 100


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: object = None
    reason: str | None = None

    @classmethod
    def holds(cls) -> "Verdict":
        return cls(HOLDS)

    @classmethod
    def fails(cls, witness) -> "Verdict":
        return cls(FAILS, witness=witness)

    @classmethod
    def unknown(cls, reason: str) -> "Verdict":
        return cls(UNKNOWN, reason=reason)


def projective_points(field: Field, n: int) -> Iterator[Vector]:
    """One representative per projective point of F^n.

    The first nonzero coordinate is normalized to 1; representatives are
    ordered by the position of that coordinate, then lexicographically in the
    remaining free coordinates.  An infinite field raises InfiniteField.
    """
    if not field.is_finite:
        raise InfiniteField(f"{field} is infinite")
    q = field.cardinality
    for lead in range(n):
        free = n - lead - 1
        for tail in itertools.product(range(q), repeat=free):
            entries = [field.zero()] * lead + [field.one()] + [field.coerce(t) for t in tail]
            yield Vector(field, entries)


def spin(V: MatSpace, v: Vector) -> VecSpace:
    """Smallest V-stable subspace of F^n containing v, by worklist saturation.

    The span is kept as RREF rows.  The d images of a frontier vector come
    from one product with the stacked basis members, and each costs one
    elimination: a higher rank means the image is new.
    """
    if v.is_zero:
        raise ZeroVector("cannot spin from the zero vector")
    F, n, p = V.field, V.n, V.field.cardinality or 0
    stacked = [flat[i * n : (i + 1) * n] for flat in V.rows for i in range(n)]
    span = rref_rows(F, [v.entries])[0]
    frontier = [v.entries]
    while frontier and len(span) < n:
        column = _matmul(stacked, [[x] for x in frontier.pop()], p)
        for k in range(0, len(column), n):
            w = [r[0] for r in column[k : k + n]]
            red, pivots = rref_rows(F, [*span, w])
            if len(pivots) > len(span):
                span = red[: len(pivots)]
                frontier.append(w)
    return VecSpace(F, n, tuple(map(tuple, span)))


def _samples(dim: int, seed: int, count: int, with_basis: bool = True) -> Iterator[tuple]:
    """Coefficient vectors of the sampled members of a rational space.

    The unit vectors (the basis members) unless `with_basis` is false, then
    `count` seeded combinations with coefficients in [-9, 9].  A vector is
    skipped when it is zero or its projective class was yielded before: for
    c != 0, c*M has a nonzero eigenvalue, is diagonalizable and has the same
    RREF kernel exactly when M does, so a repeat never fails first.
    """
    randint = random.Random(seed).randint
    units = (tuple(int(i == j) for j in range(dim)) for i in range(dim) if with_basis)
    draws = (tuple([randint(-9, 9) for _ in range(dim)]) for _ in range(count))
    met, classes = set(), set()  # vectors drawn so far (a repeat needs no gcd); classes yielded
    for c in itertools.chain(units, draws):
        if c in met:
            continue
        met.add(c)
        g = gcd(*c)
        if g == 0:
            continue
        if next(x for x in c if x) < 0:
            g = -g
        key = tuple(x // g for x in c)
        if key not in classes:
            classes.add(key)
            yield c
            if dim == 1:
                return  # every nonzero vector of F^1 lies in this one class


def _integer_members(n: int, basis: list, samples: Iterator[tuple]) -> Iterator[list]:
    """The integer n x n matrices sum(c_i * basis_i), basis given as flat int rows."""
    for c in samples:
        yield _unflatten(n, _matmul([c], basis)[0])


def _unscaled(F: Field, rows: list, L: int) -> Matrix:
    return Matrix(F, [[Fraction(x, L) for x in r] for r in rows])


def _norton_holds(V: MatSpace) -> bool:
    """Whether Norton's criterion proves V irreducible over GF(p).

    It uses the first basis member a whose char poly has an irreducible
    factor f of multiplicity 1.  Then theta = f(a) has nullity deg f and
    ker theta is a simple F[a]-module, so a V-stable subspace that meets
    ker theta contains all of it.  A proper V-stable subspace that misses
    ker theta has an annihilator, stable under V^T, that meets ker theta^T.
    So V is irreducible exactly when one nonzero v in ker theta spins to F^n
    under V and one nonzero w in ker theta^T spins to F^n under V^T (Holt &
    Rees 1994).  When dim V = 1 and deg f < n, V = <a> is reducible and
    no spin is made.  False means reducible, or no basis member has such
    an f.
    """
    F, n, p = V.field, V.n, V.field.cardinality
    for flat in V.rows:
        a = _unflatten(n, flat)
        f = _simple_factor_mod(char_poly_rows(a, p), p)
        if f is None:
            continue
        if V.dim == 1 and len(f) <= n:
            return False  # ker f(a) is a proper <a>-stable subspace
        theta = [[0] * n for _ in range(n)]
        for c in reversed(f):  # Horner: theta <- theta * a + c * I
            theta = _matmul(theta, a, p)
            for i in range(n):
                theta[i][i] = (theta[i][i] + c) % p
        v = kernel_rows(F, theta, n)[0]
        w = kernel_rows(F, zip(*theta), n)[0]
        # spin reads only the basis, so the transposed members need no canonical form.
        transposed = tuple(tuple(r[j * n + i] for i in range(n) for j in range(n)) for r in V.rows)
        return spin(V, Vector(F, v)).is_full and spin(MatSpace(F, n, transposed), Vector(F, w)).is_full
    return False


def irreducible(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> Verdict:
    """No nontrivial proper subspace of F^n is stable under every element of V.

    Finite field: Holds when Norton's criterion proves it with two spins.
    Otherwise (V reducible, which a line <a> whose char poly has a simple
    factor of degree < n shows before any spin, or `_simple_factor_mod`
    finds no factor in the char poly of any basis member: V = 0, scalar or
    nilpotent members, only repeated factors) spin from one representative
    of every projective point; the first proper spin is the witness.  The
    budget bounds those (q^n - 1)/(q - 1) starts either way.  Rationals:
    spin from the standard basis and from kernel vectors of pseudorandom
    members; absence of a witness is only ever Unknown.
    """
    F = V.field
    n = V.n
    if F.is_finite:
        q = F.cardinality
        starts = (q**n - 1) // (q - 1)
        if starts > budget:
            raise BudgetExceeded(starts, budget)
        if _norton_holds(V):
            return Verdict.holds()
        for v in projective_points(F, n):
            sub = spin(V, v)
            if not sub.is_full:
                return Verdict.fails(sub)
        return Verdict.holds()
    _, basis = clear_denominators(V.rows)
    samples = _samples(V.dim, seed, _Q_SAMPLE_KERNELS, with_basis=False)
    starts = [Vector.basis(F, n, i) for i in range(n)]
    for A in _integer_members(n, basis, samples):
        starts.extend(Vector(F, k) for k in kernel_rows(F, A, n))
    for v in starts:
        sub = spin(V, v)
        if not sub.is_full:
            return Verdict.fails(sub)
    return Verdict.unknown("infinite field: irreducibility not decided")


def all_diagonalizable(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> Verdict:
    """Every member of V is diagonalizable over the ground field.

    Exhaustive over finite fields (within the budget on all q^dim members):
    c*M is diagonalizable exactly when M is, so one member per projective
    class is tested, in `MatSpace.projective_rows` order, and the witness is
    the first non-diagonalizable member of the full enumeration.  Over the
    rationals only a seeded sample is inspected for a falsifying member;
    otherwise Unknown, since exhaustiveness is impossible.
    """
    if V.field.is_finite:
        for M in V.projective_elements(budget):
            if not is_diagonalizable(M):
                return Verdict.fails(M)
        return Verdict.holds()
    F = V.field
    L, basis = clear_denominators(V.rows)
    for A in _integer_members(V.n, basis, _samples(V.dim, seed, _Q_SAMPLE_TRIVIAL)):
        if not is_diagonalizable(Matrix(F, A)):
            return Verdict.fails(_unscaled(F, A, L))
    return Verdict.unknown("infinite field: sampled members only")


def trivial_spectrum(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> Verdict:
    """No member of V has a nonzero eigenvalue in the ground field.

    A Fails witness is the pair (member, nonzero eigenvalue).  Over GF(p),
    c*M has a nonzero eigenvalue exactly when M does, so one member per
    projective class is tested (the budget still bounds all p^dim members):
    its char poly comes from Berkowitz on plain ints mod p, and the witness
    eigenvalue is the least nonzero root from `_roots_mod` (a scan of the
    residues up to SCAN_LIMIT, gcd with t^p - t and splitting above it).
    Over the rationals the basis plus seeded samples are tested; a clean
    pass is reported as Unknown("sampled"), never Holds.
    """
    F = V.field
    if F.is_finite:
        total = V.element_count()
        if total > budget:
            raise BudgetExceeded(total, budget)
        p, n = F.cardinality, V.n
        for flat in V.projective_rows(budget):
            rows = _unflatten(n, flat)
            lam = next((r for r in _roots_mod(char_poly_rows(rows, p), p) if r), 0)
            if lam:
                return Verdict.fails((Matrix(F, rows), lam))
        return Verdict.holds()
    L, basis = clear_denominators(V.rows)
    for A in _integer_members(V.n, basis, _samples(V.dim, seed, _Q_SAMPLE_TRIVIAL)):
        # The integer roots of L*M's char poly are L times M's rational eigenvalues.
        lam = next((r for r in _integer_roots(char_poly_rows(A)) if r), 0)
        if lam:
            return Verdict.fails((_unscaled(F, A, L), Fraction(lam, L)))
    return Verdict.unknown("infinite field: sampled members only")


def _least_root_in_last(a: int, b: int, c: int, F: Field) -> int | None:
    """The least z in GF(p) with a*z^2 + b*z + c = 0, or None."""
    p = F.cardinality
    if p == 2:  # z^2 = z
        return next((z for z in (0, 1) if (a * z + b * z + c) % 2 == 0), None)
    if a == 0:
        if b:
            return -c * pow(b, -1, p) % p
        return 0 if c == 0 else None
    s = F.sqrt(b * b - 4 * a * c)
    if s is None:
        return None
    inv = pow(2 * a, -1, p)
    return min((-b + s) * inv % p, (-b - s) * inv % p)


def non_isotropic(P: Matrix) -> Verdict:
    """X^T P X != 0 for every nonzero X.

    Finite field: the witness is the first isotropic point in
    `projective_points` order.  The points sharing all coordinates but the
    last form one prefix, on which X^T P X is a quadratic a*z^2 + b*z + c
    in the last coordinate z; its least root (from `Field.sqrt` for odd p,
    by trying z = 0, 1 for p = 2) is the prefix's first isotropic point.  So
    n = 2 takes two prefixes and n >= 3 about p^(n-2).  Rationals: a
    symmetric P whose congruence diagonal (`forms.congruence_diagonalize`)
    has entries of one sign is definite, which proves Holds; a zero value on
    small integer vectors proves Fails; otherwise Unknown.
    """
    P._need_square()
    F = P.field
    n = P.nrows
    if F.is_finite:
        p, rows = F.cardinality, P.rows
        a = rows[-1][-1]
        for lead in range(n - 1):
            for mid in itertools.product(range(p), repeat=n - lead - 2):
                x = [0] * lead + [1, *mid]
                b = sum((rows[i][-1] + rows[-1][i]) * xi for i, xi in enumerate(x))
                c = sum(xi * sum(r * xj for r, xj in zip(rows[i], x)) for i, xi in enumerate(x) if xi)
                z = _least_root_in_last(a, b % p, c % p, F)
                if z is not None:
                    return Verdict.fails(Vector(F, x + [z]))
        if a == 0:
            return Verdict.fails(Vector.basis(F, n, n - 1))
        return Verdict.holds()
    if P.is_symmetric:
        # Sylvester's law of inertia: P is definite exactly when its congruence D is.
        d = congruence_diagonalize(P)[1].diagonal_entries()
        if all(x > 0 for x in d) or all(x < 0 for x in d):
            return Verdict.holds()
    for tail in itertools.product(range(-5, 6), repeat=n):
        if all(t == 0 for t in tail):
            continue
        x = Vector(F, tail)
        if x.dot(P * x) == 0:
            return Verdict.fails(x)
    return Verdict.unknown("rationals: indefinite form, no small isotropic vector found")
