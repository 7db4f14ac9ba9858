"""Decision procedures on subspaces, each returning a checkable verdict.

One walk per field, one loop per predicate: `trivial_spectrum`,
`all_diagonalizable` and the kernel starts of `irreducible` scan the
members that `_members` yields as int rows, and the field only chooses
them.  Over GF(q) it walks one member per projective class
(`MatSpace.projective_rows`, plain ints mod p); each question is
scale-invariant, so the first failing member of the full enumeration is a
walked one.  Over Q it walks the integer matrices L*M (L the lcm of the
basis denominators) of the basis and of seeded integer combinations
(`_samples`, each projective class once).  A clean pass proves Holds only
when the walk was exhaustive; otherwise it is Unknown, an honest answer
that is never silently converted.  Char polys come from the one int
Berkowitz (`char_poly_rows`), eigenvalues from the one root finder
`polys._roots`, and a Fraction matrix is built only for a witness.

Irreducibility over GF(q) is first tried with Norton's criterion (two
spins); only when that does not prove it do the spins from every
projective point run, so a witness always comes from them.  `spin` keeps
its span as RREF rows and asks `rref_rows` once per image whether it is
new.  `non_isotropic` solves for the last coordinate of each projective
point over GF(q) instead of trying its q values; over Q a symmetric form
is proved non-isotropic when it is definite, read from the signs of its
congruence diagonal in `forms`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterator

from .errors import BudgetExceeded, InfiniteField, ZeroVector
from .fields import Field
from .forms import congruence_diagonalize
from .matrices import Matrix, Vector, _diagonalizable_rows, _matmul, char_poly_rows
from .matrices import clear_denominators, kernel_rows, rref_rows
from .polys import _roots, _simple_factor_mod
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


def _projective_lists(p: int, n: int) -> Iterator[list[int]]:
    """One int list per projective point of GF(p)^n, lazily, in `projective_points` order.

    A base-p odometer over the entries after the leading 1, the last
    fastest; nothing of size p is built, so p near 2^31 starts at once.
    """
    for lead in range(n):
        x = [0] * lead + [1] + [0] * (n - lead - 1)
        while True:
            yield x[:]
            i = n - 1
            while i > lead and x[i] == p - 1:
                x[i] = 0
                i -= 1
            if i == lead:
                break
            x[i] += 1


def projective_points(field: Field, n: int) -> Iterator[Vector]:
    """One representative per projective point of F^n.

    The first nonzero coordinate is normalized to 1; representatives are
    ordered by the position of that coordinate, then lexicographically in the
    remaining free coordinates.  An infinite field raises InfiniteField.
    """
    if not field.is_finite:
        raise InfiniteField(f"{field} is infinite")
    return (Vector(field, x) for x in _projective_lists(field.cardinality, n))


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


def _members(V: MatSpace, budget: int, seed: int = 0, count: int = 0, with_basis: bool = True):
    """The one member walk of the scanning predicates, lazy: (L, members, exhaustive).

    Members are n x n int rows.  GF(q): the residues of
    `V.projective_rows(budget)`, with L = 1; exhaustive for a test that c*M
    passes exactly when M does.  Q: the integer matrices L*M (L the lcm of
    the basis denominators) of the basis, unless `with_basis` is false, then
    of the `count` seeded combinations of `_samples`; never exhaustive.
    """
    n = V.n
    if V.field.is_finite:
        return 1, (_unflatten(n, flat) for flat in V.projective_rows(budget)), True
    L, basis = clear_denominators(V.rows)
    samples = _samples(V.dim, seed, count, with_basis)
    return L, (_unflatten(n, _matmul([c], basis)[0]) for c in samples), False


def _unscaled(A: Matrix, L: int) -> Matrix:
    """M, for the matrix A = L*M of a walked member."""
    return A if L == 1 else A.scale(Fraction(1, L))


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
    spin from the standard basis, then from the kernel vectors of the
    sampled members of `_members`, each computed only once the starts
    before it spun to F^n; absence of a witness is only ever Unknown.
    """
    F = V.field
    n = V.n
    if F.is_finite:
        q = F.cardinality
        count = (q**n - 1) // (q - 1)
        if count > budget:
            raise BudgetExceeded(count, budget)
        if _norton_holds(V):
            return Verdict.holds()
        starts, exhaustive = projective_points(F, n), True
    else:
        _, members, exhaustive = _members(V, budget, seed, _Q_SAMPLE_KERNELS, with_basis=False)
        kernels = (Vector(F, k) for A in members for k in kernel_rows(F, A, n))
        starts = itertools.chain((Vector.basis(F, n, i) for i in range(n)), kernels)
    for v in starts:
        sub = spin(V, v)
        if not sub.is_full:
            return Verdict.fails(sub)
    return Verdict.holds() if exhaustive else Verdict.unknown("infinite field: irreducibility not decided")


def all_diagonalizable(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> Verdict:
    """Every member of V is diagonalizable over the ground field.

    c*M is diagonalizable exactly when M is, so each member L*M of the walk
    `_members` is tested on its int rows by `_diagonalizable_rows`, and a
    Matrix is built only for the witness.  Over finite fields the walk is
    exhaustive (within the budget on all q^dim members) and the witness is
    the first non-diagonalizable member of the full enumeration.  Over the
    rationals only the basis and a seeded sample are inspected for a
    falsifying member; otherwise Unknown, since exhaustiveness is impossible.
    """
    F, p = V.field, V.field.cardinality or 0
    L, members, exhaustive = _members(V, budget, seed, _Q_SAMPLE_TRIVIAL)
    for A in members:
        if not _diagonalizable_rows(A, p):
            return Verdict.fails(_unscaled(Matrix(F, A), L))
    return Verdict.holds() if exhaustive else Verdict.unknown("infinite field: sampled members only")


def _nonzero_eigenvalue(rows: list, p: int = 0) -> int:
    """The least nonzero root of the char poly of the int matrix `rows`, or 0.

    The one trivial-spectrum test of a member: `rows` passes when this is 0.
    Over GF(p) the rows are residues and the root is one; over Q (p = 0)
    they are L*M and the root is L times an eigenvalue of M.
    """
    return next((r for r in _roots(char_poly_rows(rows, p), p) if r), 0)


def _trivial_spectrum_rows(rows: list, p: int = 0) -> bool:
    """Whether `_nonzero_eigenvalue(rows, p)` is 0, without finding the root: the census member test."""
    return not any(_roots(char_poly_rows(rows, p), p))


def trivial_spectrum(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> Verdict:
    """No member of V has a nonzero eigenvalue in the ground field.

    A Fails witness is the pair (member, nonzero eigenvalue).  c*M has a
    nonzero eigenvalue exactly when M does, so each member L*M of the walk
    `_members` is tested: its char poly comes from Berkowitz on plain ints
    (mod p over GF(p)), and the witness eigenvalue is its least nonzero
    root from `polys._roots` divided by L.  Over GF(p) the walk is
    exhaustive (the budget still bounds all p^dim members); over the
    rationals the basis plus seeded samples are tested, and a clean pass is
    reported as Unknown("sampled"), never Holds.
    """
    F, p = V.field, V.field.cardinality or 0
    L, members, exhaustive = _members(V, budget, seed, _Q_SAMPLE_TRIVIAL)
    for A in members:
        lam = _nonzero_eigenvalue(A, p)
        if lam:
            return Verdict.fails((_unscaled(Matrix(F, A), L), F.coerce(lam) if L == 1 else Fraction(lam, L)))
    return Verdict.holds() if exhaustive else Verdict.unknown("infinite field: sampled members only")


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


def non_isotropic(P: Matrix, budget: int = DEFAULT_BUDGET) -> Verdict:
    """X^T P X != 0 for every nonzero X.

    Finite field: the witness is the first isotropic point in
    `projective_points` order.  The points sharing all coordinates but the
    last form one prefix, on which X^T P X is a quadratic a*z^2 + b*z + c
    in the last coordinate z; its least root (from `Field.sqrt` for odd p,
    by trying z = 0, 1 for p = 2) is the prefix's first isotropic point.
    There are (p^(n-1) - 1)/(p - 1) prefixes, about p^(n-2); more than the
    budget raises BudgetExceeded before any is tried.  Rationals: a
    symmetric P whose congruence diagonal (`forms.congruence_diagonalize`)
    has entries of one sign is definite, which proves Holds; a zero value on
    one of the 11^n - 1 nonzero vectors of [-5, 5]^n proves Fails; otherwise
    Unknown, also without the search when 11^n - 1 exceeds the budget.
    """
    P._need_square()
    F = P.field
    n = P.nrows
    if F.is_finite:
        if not n:
            return Verdict.holds()  # F^0 has no nonzero vector
        p, rows = F.cardinality, P.rows
        prefixes = (p ** (n - 1) - 1) // (p - 1)
        if prefixes > budget:
            raise BudgetExceeded(prefixes, budget)
        a = rows[-1][-1]
        for x in _projective_lists(p, n - 1):
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
    vectors = 11**n - 1
    if vectors > budget:
        return Verdict.unknown(f"rationals: indefinite form, {vectors} small vectors exceed the budget {budget}")
    _, A = clear_denominators(P.rows)  # x^T (L*P) x = 0 exactly when x^T P x = 0
    for x in itertools.product(range(-5, 6), repeat=n):
        if any(x) and not sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, A) if xi):
            return Verdict.fails(Vector(F, x))
    return Verdict.unknown("rationals: indefinite form, no small isotropic vector found")
