import itertools
from fractions import Fraction
import os
import random
import subprocess
import sys
import time

import pytest

from matspace import (
    Matrix,
    MatSpace,
    PrimeField,
    RationalField,
    VecSpace,
    Vector,
    char_poly,
    invert,
    is_diagonalizable,
    all_diagonalizable,
    irreducible,
    non_isotropic,
    Poly,
    projective_points,
    spin,
    trivial_spectrum,
)
from matspace import predicates
from matspace.errors import BudgetExceeded, InfiniteField, ZeroVector
from matspace.polys import _simple_factor_mod
from matspace.predicates import FAILS, HOLDS, UNKNOWN, Verdict, _norton_holds

from oracles import (
    all_diagonalizable_matrix_loop_oracle,
    all_diagonalizable_scan_oracle,
    irreducible_lines_oracle,
    berkowitz_oracle,
    irreducible_scan_oracle,
    least_nonzero_root_oracle,
    non_isotropic_scan_oracle,
    small_isotropic_vector_oracle,
    random_invertible,
    random_space,
    spin_oracle,
    trivial_spectrum_scan_oracle,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)
Q = RationalField()


def upper_tri_span(field):
    return MatSpace.span(
        [
            Matrix.unit(field, 2, 0, 0),
            Matrix.unit(field, 2, 0, 1),
            Matrix.unit(field, 2, 1, 1),
        ]
    )


def test_projective_points():
    pts = list(projective_points(F3, 2))
    assert [p.entries for p in pts] == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert len(list(projective_points(F2, 3))) == 7
    assert len(list(projective_points(F5, 3))) == 31  # (5^3 - 1) / 4


def test_projective_points_over_q_raise_infinite_field():
    with pytest.raises(InfiniteField):
        next(projective_points(Q, 2))


def test_projective_points_follow_the_product_order():
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for n in range(1, 5):
            product = [
                (0,) * lead + (1,) + tail
                for lead in range(n)
                for tail in itertools.product(range(p), repeat=n - lead - 1)
            ]
            assert [x.entries for x in projective_points(F, n)] == product, (p, n)


_LARGE_PRIME_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from matspace import Matrix, PrimeField, non_isotropic, projective_points
F = PrimeField(2**31 - 1)
started = time.perf_counter()
first = next(projective_points(F, 2)).entries
verdict = non_isotropic(Matrix.identity(F, 3), budget=10**10)
x = verdict.witness.entries
print(first, verdict.status, sum(v * v for v in x) % F.cardinality, time.perf_counter() - started)
"""


def test_large_prime_projective_walks_start_at_once():
    # Nothing of size p may be built: at p = 2^31 - 1 a tuple of range(p)
    # is a MemoryError under the child's 1 GiB address-space limit.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(predicates.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", _LARGE_PRIME_CHILD], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    first, status, value, elapsed = out.stdout.rsplit(" ", 3)
    assert (first, status, value) == ("(1, 0)", FAILS, "0")  # an isotropic witness of x^T x
    assert float(elapsed) < 1.0


def test_spin_examples():
    alt = MatSpace.standard("alt", 2, F3)
    e1 = Vector.basis(F3, 2, 0)
    assert spin(alt, e1).is_full

    upper = upper_tri_span(F3)
    sub = spin(upper, e1)
    assert sub == VecSpace.from_vectors(F3, 2, [e1])

    zero_space = MatSpace.zero(F3, 2)
    assert spin(zero_space, e1) == VecSpace.from_vectors(F3, 2, [e1])

    with pytest.raises(ZeroVector):
        spin(alt, Vector.zero(F3, 2))


def test_spin_minimality_last_generator_needed():
    # dropping the most recently added basis vector of a proper spin breaks
    # either closure or membership of the start vector
    rng = random.Random(26)
    found = 0
    for _ in range(200):
        V = random_space(F3, 3, rng, k=1)
        v = Vector(F3, [1, rng.randrange(3), rng.randrange(3)])
        sub = spin(V, v)
        if not 1 < sub.dim < 3:
            continue
        found += 1
        trimmed = VecSpace.from_vectors(F3, 3, sub.vectors()[:-1])
        closed = all(
            trimmed.contains(M * b) for M in V.basis() for b in trimmed.vectors()
        )
        assert not (closed and trimmed.contains(v))
    assert found > 5


def test_spin_result_is_stable_and_contains_start():
    rng = random.Random(20)
    for field in (F2, F3, F7):
        for _ in range(10):
            V = random_space(field, 3, rng)
            v = Vector(field, [1, rng.randrange(field.cardinality), 0])
            sub = spin(V, v)
            assert sub.contains(v)
            for M in V.basis():
                for b in sub.vectors():
                    assert sub.contains(M * b)


@pytest.mark.parametrize("field", (F2, F3, F101, Q), ids=str)
def test_spin_matches_oracle(field):
    # Random spaces, small ones among them so that proper spins occur, and
    # the transposed basis `_norton_holds` spins under, which is not in RREF.
    rng = random.Random(27)
    for n in (1, 2, 3, 4):
        for _ in range(6 if field is Q else 12):
            V = random_space(field, n, rng, k=rng.choice([0, 1, 2, rng.randint(0, n * n)]))
            transposed = tuple(tuple(r[j * n + i] for i in range(n) for j in range(n)) for r in V.rows)
            for W in (V, MatSpace(field, n, transposed)):
                if field.is_finite:
                    v = Vector(field, [rng.randrange(field.cardinality) for _ in range(n)])
                else:
                    v = Vector(field, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)])
                if v.is_zero:
                    continue
                got = spin(W, v)
                assert got == spin_oracle(W, v)
                assert got.contains(v)


def test_irreducible_examples():
    assert irreducible(MatSpace.standard("alt", 2, F3)).status == HOLDS
    verdict = irreducible(upper_tri_span(F3))
    assert verdict.status == FAILS
    assert verdict.witness == VecSpace.from_vectors(F3, 2, [Vector.basis(F3, 2, 0)])
    for n in (2, 3):
        assert irreducible(MatSpace.standard("full", n, F3)).status == HOLDS


def test_irreducible_witness_is_invariant():
    rng = random.Random(21)
    for field in (F2, F3):
        for _ in range(20):
            V = random_space(field, 2, rng)
            verdict = irreducible(V)
            assert verdict.status in (HOLDS, FAILS)
            if verdict.status == FAILS:
                W = verdict.witness
                assert 0 < W.dim < 2
                for M in V.basis():
                    for b in W.vectors():
                        assert W.contains(M * b)


def test_irreducible_matches_lines_oracle():
    rng = random.Random(22)
    for field in (F2, F3):
        for _ in range(50):
            V = random_space(field, 2, rng)
            assert (irreducible(V).status == HOLDS) == irreducible_lines_oracle(V)


# -- Norton's criterion against the exhaustive scan -------------------------------

F11 = PrimeField(11)
F101 = PrimeField(101)


def companion(field, chi):
    """Companion matrix of the monic chi (a Poly): e_i -> e_(i+1), last column -chi."""
    n = chi.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = field.neg(chi.coeffs[i])
    return Matrix(field, rows)


def irreducible_poly(field, d, rng):
    """A random monic irreducible of degree d, by trial division."""
    while True:
        chi = Poly(field, [rng.randrange(field.p) for _ in range(d)] + [1])
        divisors = (
            Poly(field, list(c) + [1])
            for k in range(1, d // 2 + 1)
            for c in itertools.product(range(field.p), repeat=k)
        )
        if all(not (chi % g).is_zero for g in divisors):
            return chi


def block_triangular(field, n, rng):
    """A conjugate of a random space that keeps the first k coordinates stable."""
    k = rng.randint(1, n - 1)
    mats = [
        Matrix(field, [[rng.randrange(field.p) if i < k or j >= k else 0 for j in range(n)] for i in range(n)])
        for _ in range(rng.randint(1, 3))
    ]
    return MatSpace.span(mats).conjugate(random_invertible(field, n, rng))


def orth_of_conjugate(field, n, rng):
    return MatSpace.standard("sym", n, field).conjugate(random_invertible(field, n, rng)).orth()


@pytest.fixture
def spins(monkeypatch):
    """Counts the calls of predicates.spin, which irreducible looks up at call time."""
    count = [0]
    real = predicates.spin

    def counted(V, v):
        count[0] += 1
        return real(V, v)

    monkeypatch.setattr(predicates, "spin", counted)
    return count


def test_irreducible_matches_scan_on_random_and_block_triangular_spaces():
    rng = random.Random(61)
    statuses = {HOLDS: 0, FAILS: 0}
    for field in (F2, F3, F5, F7, F11):
        for n in (2, 3, 4) if field.p <= 3 else (2, 3):
            for _ in range(10):
                for V in (random_space(field, n, rng), block_triangular(field, n, rng)):
                    got = irreducible(V)
                    assert got == irreducible_scan_oracle(V), (field, V.rows)
                    statuses[got.status] += 1
    assert min(statuses.values()) >= 60


def test_irreducible_char_poly_of_degree_n_needs_no_kernel(spins):
    # theta = chi(a) = 0, so v and w are basis vectors and two spins decide it.
    rng = random.Random(62)
    for field in (F2, F3, F5, F7, F11):
        for n in (2, 3, 4):
            C = companion(field, irreducible_poly(field, n, rng))
            V = MatSpace.span([C]).conjugate(random_invertible(field, n, rng))
            spins[0] = 0
            assert irreducible(V) == Verdict.holds()
            assert spins[0] == 2
            assert irreducible_scan_oracle(V) == Verdict.holds()


def test_irreducible_with_only_a_quadratic_simple_factor():
    # chi = (t - 1)^2 (t^2 + 1) over GF(3): t^2 + 1 is the only simple factor,
    # so ker theta is 2-dimensional.  The cyclic companion alone keeps it
    # stable; adding E_41 (zero in the companion, so the companion stays the
    # first basis member up to a scalar) makes the space irreducible.
    chi = Poly(F3, [2, 1]) * Poly(F3, [2, 1]) * Poly(F3, [1, 0, 1])
    assert _simple_factor_mod(list(chi.coeffs), 3) == [1, 0, 1]
    C = companion(F3, chi)
    alone = MatSpace.span([C])
    grown = MatSpace.span([C, Matrix.unit(F3, 4, 3, 0)])
    assert grown.rows[0] == tuple(2 * x % 3 for x in C.vec())
    assert not _norton_holds(alone) and _norton_holds(grown)
    assert irreducible(alone) == irreducible_scan_oracle(alone)
    assert irreducible(alone).status == FAILS
    assert irreducible(grown) == irreducible_scan_oracle(grown) == Verdict.holds()


def test_irreducible_without_a_usable_member_takes_the_scan():
    E = Matrix.unit
    t_plus_1 = Poly(F3, [1, 1])
    spaces = [
        MatSpace.standard("scalar", 3, F5),
        MatSpace.standard("strict_upper", 3, F7),  # nilpotent members
        MatSpace.span([companion(F3, t_plus_1 * t_plus_1)]),
        MatSpace.span([E(F2, 4, 0, 1) + E(F2, 4, 1, 0) + E(F2, 4, 2, 3) + E(F2, 4, 3, 2)]),  # (t + 1)^4
        MatSpace.zero(F5, 2),
        MatSpace.zero(F2, 3),
    ]
    # Irreducible spaces spanned by the nilpotent E_(i,i+1) and E_(i+1,i),
    # which are also their canonical basis: only the scan proves them.
    for field, n in ((F7, 2), (F5, 3), (F3, 4)):
        units = [E(field, n, i, j) for i in range(n) for j in range(n) if abs(i - j) == 1]
        spaces.append(MatSpace.span(units))
    for V in spaces:
        assert not _norton_holds(V), V.rows
        assert irreducible(V) == irreducible_scan_oracle(V), V.rows
    statuses = [irreducible(V).status for V in spaces]
    assert statuses == [FAILS] * 6 + [HOLDS] * 3


def test_irreducible_in_dimension_one():
    for field in (F2, F3, F101):
        for V in (MatSpace.zero(field, 1), MatSpace.span([Matrix(field, [[field.p - 1]])])):
            assert irreducible(V) == irreducible_scan_oracle(V) == Verdict.holds()


def test_irreducible_spins_at_most_twice_on_orth_of_conjugates(spins):
    # The scan alone spins (q^n - 1)/(q - 1) times when V-perp is
    # irreducible: 10,303 for GF(101), n = 3 and 8 for GF(7), n = 2.
    rng = random.Random(64)
    for field, n in ((F101, 3), (F7, 2)):
        Vp = orth_of_conjugate(field, n, rng)
        spins[0] = 0
        assert irreducible(Vp) == Verdict.holds()
        assert spins[0] <= 2


def test_irreducible_reducible_line_goes_straight_to_the_scan(spins):
    # chi_a has a simple factor of degree < n, so <a> is reducible and no
    # Norton spin precedes the scan, whose first start e_1 spans a stable line.
    for field, n in ((F7, 2), (F3, 3), (F101, 2), (F5, 4)):
        V = MatSpace.span([Matrix.diagonal(field, range(1, n + 1))])
        spins[0] = 0
        got = irreducible(V)
        assert spins[0] == 1
        assert got == irreducible_scan_oracle(V) and got.status == FAILS


def test_irreducible_budget_still_bounds_the_scan_starts():
    # Norton needs two spins, but a budget below the 8 scan starts of
    # GF(7)^2 is still refused before any work.
    Vp = orth_of_conjugate(F7, 2, random.Random(65))
    with pytest.raises(BudgetExceeded):
        irreducible(Vp, budget=7)
    assert irreducible(Vp, budget=8) == Verdict.holds()


def test_irreducible_over_q():
    alt = MatSpace.standard("alt", 2, Q)
    v = irreducible(alt)
    assert v.status == UNKNOWN and "not decided" in v.reason
    upper = upper_tri_span(Q)
    v = upper and irreducible(upper)
    assert v.status == FAILS


def test_all_diagonalizable_examples():
    diag = MatSpace.standard("diagonal", 3, F5)
    assert all_diagonalizable(diag).status == HOLDS

    v = all_diagonalizable(MatSpace.standard("sym", 2, F2))
    assert v.status == FAILS
    assert not is_diagonalizable(v.witness)
    # the nonzero nilpotent symmetric matrix over GF(2) falsifies by hand
    hand = Matrix(F2, [[1, 1], [1, 1]])
    assert MatSpace.standard("sym", 2, F2).contains(hand)
    assert not is_diagonalizable(hand)

    v3 = all_diagonalizable(MatSpace.standard("sym", 2, F3))
    assert v3.status == FAILS
    assert v3.witness == Matrix(F3, [[1, 1], [1, 0]])  # first in enumeration order


def test_all_diagonalizable_budget_and_q():
    big = MatSpace.standard("full", 3, F3)
    with pytest.raises(BudgetExceeded):
        all_diagonalizable(big, budget=100)
    v = all_diagonalizable(MatSpace.standard("diagonal", 2, Q))
    assert v.status == UNKNOWN
    v2 = all_diagonalizable(MatSpace.standard("strict_upper", 2, Q))
    assert v2.status == FAILS  # E12 is nilpotent and nonzero


def test_trivial_spectrum_examples():
    for n in (2, 3, 4):
        assert trivial_spectrum(MatSpace.standard("strict_upper", n, F7)).status == HOLDS
    assert trivial_spectrum(MatSpace.standard("alt", 2, F3)).status == HOLDS

    v = trivial_spectrum(MatSpace.standard("scalar", 2, F3))
    assert v.status == FAILS
    M, lam = v.witness
    assert M == Matrix.identity(F3, 2) and lam == 1


def test_trivial_spectrum_witness_reverifies():
    rng = random.Random(23)
    for field in (F2, F3):
        for _ in range(20):
            V = random_space(field, 2, rng)
            v = trivial_spectrum(V)
            if v.status == FAILS:
                M, lam = v.witness
                assert lam != 0
                assert char_poly(M).eval(lam) == 0
                assert V.contains(M)


def test_trivial_spectrum_above_the_scan_limit_matches_the_horner_scan():
    # On a line the only kept member is its RREF basis matrix B, so the
    # verdict is decided by B's least nonzero eigenvalue, or its absence.
    p = 10007  # above SCAN_LIMIT, and 3 mod 4: t^2 + 1 has no root
    F = PrimeField(p)
    rng = random.Random(31)
    S = random_invertible(F, 3, rng)
    lines = [
        S * Matrix.diagonal(F, [0, 9876, 1234]) * invert(S),
        S * Matrix.diagonal(F, [0, 0, 5000]) * invert(S),
        S * Matrix(F, [[0, -1, 0], [1, 0, 0], [0, 0, 0]]) * invert(S),
        MatSpace.standard("strict_upper", 2, F).basis()[0],
    ] + [Matrix(F, [[rng.randrange(p) for _ in range(3)] for _ in range(3)]) for _ in range(6)]
    outcomes = set()
    for M in lines:
        V = MatSpace.span([M])
        B = V.basis()[0]
        lam = least_nonzero_root_oracle(berkowitz_oracle(F, B.rows), p)
        assert trivial_spectrum(V) == (Verdict.fails((B, lam)) if lam else Verdict.holds()), M
        outcomes.add(bool(lam))
    assert outcomes == {True, False}


def test_trivial_spectrum_over_q():
    v = trivial_spectrum(MatSpace.standard("strict_upper", 3, Q))
    assert v.status == UNKNOWN and "sampled" in v.reason
    v2 = trivial_spectrum(MatSpace.standard("scalar", 2, Q))
    assert v2.status == FAILS


def test_non_isotropic_examples():
    assert non_isotropic(Matrix.identity(F3, 2)).status == HOLDS

    v = non_isotropic(Matrix.identity(F5, 2))
    assert v.status == FAILS
    assert v.witness == Vector(F5, [1, 2])  # 1 + 4 = 0 mod 5

    for n in (2, 3, 4):
        assert non_isotropic(Matrix.identity(Q, n)).status == HOLDS
    assert non_isotropic(Matrix.identity(Q, 2) * -1).status == HOLDS  # negative definite


def test_non_isotropic_of_the_empty_form_holds_on_both_fields():
    for field in (F3, Q):
        assert non_isotropic(Matrix(field, [])).status == HOLDS  # F^0 has no nonzero vector


def test_non_isotropic_indefinite_over_q():
    P = Matrix(Q, [[0, 1], [1, 0]])
    v = non_isotropic(P)
    assert v.status == FAILS
    x = v.witness
    assert x.dot(P * x) == 0 and not x.is_zero
    hyper = Matrix(Q, [[1, 0], [0, -2]])  # x^2 = 2y^2 has no small (or any) solution
    assert non_isotropic(hyper).status == UNKNOWN


def test_non_isotropic_finite_witness_reverifies():
    rng = random.Random(24)
    for field in (F3, F5, F7):
        for _ in range(10):
            P = random_invertible(field, 3, rng)
            v = non_isotropic(P)
            if v.status == FAILS:
                x = v.witness
                assert not x.is_zero
                assert x.dot(P * x) == 0


def test_non_isotropic_budget_bounds_the_prefixes():
    # GF(p), n = 3 tries p + 1 prefixes; at p = 2^31 - 1 that is over the
    # default budget, so it raises at once instead of running out of memory.
    big = PrimeField(2**31 - 1)
    with pytest.raises(BudgetExceeded) as exc:
        non_isotropic(Matrix.identity(big, 3))
    assert exc.value.required == 2**31 and exc.value.budget == 10**7
    assert non_isotropic(Matrix.identity(big, 2)).status == HOLDS  # one prefix; -1 is no square, p = 3 mod 4
    P = Matrix(F7, [[1, 2, 0], [2, 3, 1], [0, 1, 5]])
    with pytest.raises(BudgetExceeded):
        non_isotropic(P, budget=7)  # 1 + 7 prefixes
    assert non_isotropic(P, budget=8) == non_isotropic(P) == non_isotropic_scan_oracle(P)
    assert non_isotropic(Matrix.identity(Q, 3), budget=0).status == HOLDS  # definite at any budget


def test_non_isotropic_budget_bounds_the_rational_search():
    # Over Q an indefinite form is searched on the 11^n - 1 nonzero vectors
    # of [-5, 5]^n; more vectors than the budget give Unknown without a search.
    started = time.perf_counter()
    v = non_isotropic(Matrix.diagonal(Q, [1] * 6 + [-1000]))
    assert time.perf_counter() - started < 1
    assert v.status == UNKNOWN and "19487170 small vectors exceed the budget 10000000" in v.reason
    P = Matrix.diagonal(Q, [1, 1, 1, 1, -4])  # isotropic: (2, 0, 0, 0, 1)
    skipped = non_isotropic(P, budget=161_049)
    assert skipped.status == UNKNOWN and "161050 small vectors exceed the budget 161049" in skipped.reason
    ran = non_isotropic(P, budget=161_050)
    assert ran.status == FAILS and not ran.witness.is_zero and ran.witness.dot(P * ran.witness) == 0
    hyper = Matrix.diagonal(Q, [1, -1])
    assert non_isotropic(hyper, budget=119).status == UNKNOWN
    v = non_isotropic(hyper, budget=120)
    assert v.status == FAILS and not v.witness.is_zero and v.witness.dot(hyper * v.witness) == 0
    assert non_isotropic(Matrix.identity(Q, 7), budget=1).status == HOLDS


def member_scan_spaces(field, n, rng):
    """A random, a conjugated diagonal and a conjugated nilpotent space, with q^dim small."""
    q = field.p
    k = rng.randint(1, 1 if q > 11 else 2 if q > 3 else 3)
    S = random_invertible(field, n, rng)
    diagonal = [Matrix.diagonal(field, [rng.randrange(q) for _ in range(n)]) for _ in range(k)]
    upper = [
        Matrix(field, [[rng.randrange(q) if j > i else 0 for j in range(n)] for i in range(n)])
        for _ in range(k)
    ]
    yield random_space(field, n, rng, k)
    yield MatSpace.span(diagonal).conjugate(S)
    yield MatSpace.span(upper).conjugate(S)


def test_member_predicates_match_the_full_scan():
    # One member per projective class must give the verdict and the witness
    # of the scan over every member.
    rng = random.Random(66)
    statuses = {}
    for field in (F2, F3, F5, F7, F11, F101):
        for n in (2, 3, 4):
            for _ in range(3):
                for V in member_scan_spaces(field, n, rng):
                    for predicate, oracle in (
                        (trivial_spectrum, trivial_spectrum_scan_oracle),
                        (all_diagonalizable, all_diagonalizable_scan_oracle),
                    ):
                        got = predicate(V)
                        assert got == oracle(V), (predicate.__name__, field, V.rows)
                        key = (predicate.__name__, got.status)
                        statuses[key] = statuses.get(key, 0) + 1
    assert len(statuses) == 4 and min(statuses.values()) >= 40, statuses


def test_all_diagonalizable_matches_the_matrix_loop():
    # Testing the walked int rows must give the status and the witness of the
    # loop that wrapped each member in a Matrix.
    rng = random.Random(68)
    statuses = set()
    for field in (F2, F3, F7):
        for n in (2, 3):
            for _ in range(4):
                for V in member_scan_spaces(field, n, rng):
                    got = all_diagonalizable(V)
                    assert got == all_diagonalizable_matrix_loop_oracle(V), (field, V.rows)
                    statuses.add((field.p, got.status))
    assert statuses == {(p, s) for p in (2, 3, 7) for s in (HOLDS, FAILS)}
    # Over Q: the basis fails, a sampled combination fails ([[a, b], [0, b]]
    # is diagonalizable unless a = b != 0), or every sample passes.
    S = random_invertible(Q, 2, rng)
    spaces = [
        random_space(Q, 2, rng, 2),
        random_space(Q, 3, rng, 1),
        MatSpace.span([Matrix.diagonal(Q, [1, 0]), Matrix(Q, [[0, 1], [0, 1]])]).conjugate(S),
        MatSpace.standard("diagonal", 2, Q).conjugate(S),
        MatSpace.span([Matrix.diagonal(Q, [1, 2, 3])]).conjugate(random_invertible(Q, 3, rng)),
    ]
    verdicts = [all_diagonalizable(V, seed=i) for i, V in enumerate(spaces)]
    assert verdicts == [all_diagonalizable_matrix_loop_oracle(V, seed=i) for i, V in enumerate(spaces)]
    assert [v.status for v in verdicts] == [FAILS, FAILS, FAILS, UNKNOWN, UNKNOWN]
    assert not any(verdicts[2].witness == B for B in spaces[2].basis())


def test_a_passing_all_diagonalizable_coerces_nothing(monkeypatch):
    # The walked members are canonical residues, and a Matrix is built only
    # for a witness: D_3 over GF(3) tests its 13 projective members as rows.
    D = MatSpace.standard("diagonal", 3, F3)
    coerced, tested = [], []
    coerce, rows_test = PrimeField.coerce, predicates._diagonalizable_rows
    monkeypatch.setattr(PrimeField, "coerce", lambda self, x: coerced.append(x) or coerce(self, x))
    monkeypatch.setattr(predicates, "_diagonalizable_rows", lambda A, p: tested.append(A) or rows_test(A, p))
    assert all_diagonalizable(D) == Verdict.holds()
    assert coerced == [] and len(tested) == 13


def test_non_isotropic_matches_the_projective_scan():
    # Solving for the last coordinate must find the scan's first isotropic point.
    rng = random.Random(67)
    statuses = {HOLDS: 0, FAILS: 0}
    for field in (F2, F3, F5, F7, F11, F101):
        q = field.p
        for n in (1, 2, 3, 4) if q <= 11 else (1, 2, 3):
            for _ in range(8 if n <= 2 else 3):
                P = Matrix(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
                for form in (P, P + P.transpose(), Matrix.diagonal(field, [rng.randrange(q) for _ in range(n)])):
                    got = non_isotropic(form)
                    assert got == non_isotropic_scan_oracle(form), (field, form)
                    statuses[got.status] += 1
    assert min(statuses.values()) >= 40, statuses


def test_non_isotropic_rational_search_matches_the_vector_loop():
    # The small-vector search runs on the ints of L*P; a definite symmetric
    # form has no isotropic vector, so the reference finds none either.
    rng = random.Random(68)
    forms = [Matrix.diagonal(Q, d) for d in ([1, -2], [1, 1, -7], [3, -7, Fraction(-1, 2)])]
    for n in (1, 2, 3):
        for _ in range(30 if n < 3 else 5):
            P = Matrix(Q, [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)])
            forms += [P, P + P.transpose()]
    statuses = {HOLDS: 0, FAILS: 0, UNKNOWN: 0}
    for form in forms:
        got, x = non_isotropic(form), small_isotropic_vector_oracle(form)
        assert got.witness == x and (got.status == FAILS) == (x is not None), form
        statuses[got.status] += 1
    assert min(statuses.values()) >= 3, statuses


def test_verdicts_conjugation_invariant():
    rng = random.Random(25)
    for field in (F2, F3):
        for _ in range(10):
            V = random_space(field, 2, rng)
            P = random_invertible(field, 2, rng)
            W = V.conjugate(P)
            assert irreducible(V).status == irreducible(W).status
            assert all_diagonalizable(V).status == all_diagonalizable(W).status
            assert trivial_spectrum(V).status == trivial_spectrum(W).status
