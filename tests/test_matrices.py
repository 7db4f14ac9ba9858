import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from matspace import (
    Matrix,
    Poly,
    PrimeField,
    RationalField,
    Vector,
    char_poly,
    det,
    eigenvalues_in_field,
    invert,
    is_diagonalizable,
    kernel_basis,
    min_poly,
    rref,
)
from matspace.errors import FieldMismatch, ShapeMismatch, Singular
from matspace.matrices import _matmul, rref_rows
from matspace.polys import _simple_factor_mod

from oracles import (
    berkowitz_oracle,
    det_oracle,
    diagonalizable_min_poly_oracle,
    diagonalizable_oracle,
    eigenvalues_oracle,
    eigenvalues_split_oracle,
    matmul_field_ops_oracle,
    random_invertible,
    random_matrix,
    rref_field_ops_oracle,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)
Q = RationalField()


def test_rref_examples():
    M = Matrix(F2, [[1, 1], [1, 1]])
    R, rank, pivots = rref(M)
    assert R == Matrix(F2, [[1, 1], [0, 0]])
    assert rank == 1 and pivots == [0]

    R, rank, pivots = rref(Matrix.identity(Q, 3))
    assert R == Matrix.identity(Q, 3)
    assert rank == 3 and pivots == [0, 1, 2]

    R, rank, pivots = rref(Matrix.zero(Q, 2))
    assert R == Matrix.zero(Q, 2)
    assert rank == 0 and pivots == []


def test_rref_is_idempotent_random():
    rng = random.Random(1)
    for field in (F2, F3, F7, Q):
        for _ in range(20):
            M = random_matrix(field, 3, rng)
            R, _, _ = rref(M)
            R2, _, _ = rref(R)
            assert R == R2


@pytest.mark.parametrize("p", (2, 3, 101, 2**31 - 1))
def test_rref_rows_on_ints_matches_field_op_reference(p):
    F = PrimeField(p)
    rng = random.Random(p)
    cases = [[], [[]], [[0, 0, 0]], [[0], [0]]]
    for _ in range(60):
        m, k, w = rng.randint(1, 5), rng.randint(0, 4), rng.randint(1, 6)
        # m x w of rank at most k, with zero rows and repeated rows mixed in
        A = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        B = [[rng.randrange(p) for _ in range(w)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(r, col)) % p for col in zip(*B)] if B else [0] * w for r in A]
        rows += rng.sample(rows, rng.randint(0, len(rows))) + [[0] * w] * rng.randint(0, 1)
        rng.shuffle(rows)
        cases.append(rows)
        cases.append([[rng.randrange(p) for _ in range(w)] for _ in range(m)])
    for rows in cases:
        assert rref_rows(F, rows) == rref_field_ops_oracle(F, rows), rows


def test_kernel_examples():
    e12 = Matrix.unit(F7, 2, 0, 1)
    assert kernel_basis(e12) == [Vector.basis(F7, 2, 0)]
    assert kernel_basis(Matrix(Q, [[1, 2], [3, 4]])) == []
    assert kernel_basis(Matrix.zero(Q, 2)) == [
        Vector.basis(Q, 2, 0),
        Vector.basis(Q, 2, 1),
    ]


def test_kernel_really_annihilates():
    rng = random.Random(2)
    for field in (F2, F3, Q):
        for _ in range(20):
            M = random_matrix(field, 3, rng)
            for v in kernel_basis(M):
                assert (M * v).is_zero
            R, rank, _ = rref(M)
            assert len(kernel_basis(M)) == 3 - rank


def test_invert_examples():
    M = Matrix(Q, [[3, 4], [-4, 3]])
    expected = Matrix(
        Q,
        [
            [Fraction(3, 25), Fraction(-4, 25)],
            [Fraction(4, 25), Fraction(3, 25)],
        ],
    )
    assert invert(M) == expected
    assert invert(Matrix.diagonal(F3, [1, 2])) == Matrix.diagonal(F3, [1, 2])
    with pytest.raises(Singular):
        invert(Matrix(F2, [[1, 1], [1, 1]]))
    with pytest.raises(ShapeMismatch):
        invert(Matrix.zero(F2, 2, 3))


def test_matrix_ops_field_mismatch():
    with pytest.raises(FieldMismatch):
        Matrix.identity(F2, 2) + Matrix.identity(F3, 2)


def test_char_poly_examples():
    # (E12 + E21) * diag(1,2)^-1 over GF(7): ratio 2^-1 = 4, chi = t^2 - 4
    J = Matrix.unit(F7, 2, 0, 1) + Matrix.unit(F7, 2, 1, 0)
    M = J * invert(Matrix.diagonal(F7, [1, 2]))
    assert char_poly(M) == Poly(F7, [3, 0, 1])  # t^2 - 4 = t^2 + 3

    assert char_poly(Matrix.unit(F3, 2, 0, 1)) == Poly(F3, [0, 0, 1])  # t^2
    assert char_poly(Matrix.identity(Q, 2)) == Poly(Q, [1, -2, 1])  # (t-1)^2


@pytest.mark.parametrize("p", (2, 3, 101, 2**31 - 1, 0))
def test_int_char_poly_matches_field_generic_berkowitz(p):
    # p = 0 stands for Q, with entry denominators in {1, 2, 3, 7}.
    F = PrimeField(p) if p else Q
    rng = random.Random(p + 1)
    for n in range(6):
        for density in (0.3, 1.0):
            for _ in range(4):
                def entry():
                    if rng.random() > density:
                        return 0
                    if p:
                        return rng.randrange(p)
                    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))

                M = Matrix(F, [[entry() for _ in range(n)] for _ in range(n)])
                assert char_poly(M) == Poly(F, berkowitz_oracle(F, M.rows)), M


def test_cayley_hamilton_random():
    rng = random.Random(3)
    for field in (F7, Q):
        for n in range(1, 6):
            for _ in range(4):
                M = random_matrix(field, n, rng)
                chi = char_poly(M)
                acc = Matrix.zero(field, n)
                for c in reversed(chi.coeffs):  # Horner
                    acc = acc * M + Matrix.identity(field, n) * c
                assert acc.is_zero


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=9, max_size=9))
def test_cayley_hamilton_hypothesis(entries):
    M = Matrix(F7, [entries[0:3], entries[3:6], entries[6:9]])
    chi = char_poly(M)
    acc = Matrix.zero(F7, 3)
    for c in reversed(chi.coeffs):  # Horner
        acc = acc * M + Matrix.identity(F7, 3) * c
    assert acc.is_zero


def test_det_matches_oracle():
    rng = random.Random(4)
    for field in (F2, F3, F7, Q):
        for n in (1, 2, 3, 4):
            for _ in range(5):
                M = random_matrix(field, n, rng)
                assert det(M) == det_oracle(M)


def test_min_poly_examples():
    assert min_poly(Matrix.identity(F7, 3)) == Poly(F7, [-1, 1])  # t - 1
    assert min_poly(Matrix.diagonal(F7, [1, 2])) == Poly(F7, [2, 4, 1])  # t^2+4t+2
    assert min_poly(Matrix(F2, [[1, 1], [1, 1]])) == Poly(F2, [0, 0, 1])  # t^2
    assert min_poly(Matrix.zero(F7, 2)) == Poly(F7, [0, 1])  # t


def test_min_poly_of_the_empty_matrix_is_one_like_char_poly():
    for field in (F3, Q):
        empty = Matrix(field, [])
        assert min_poly(empty) == char_poly(empty) == Poly(field, [1])


def test_min_poly_divides_char_poly_and_conjugation_invariance():
    rng = random.Random(5)
    for field in (F3, F7, Q):
        for _ in range(10):
            M = random_matrix(field, 3, rng)
            m, chi = min_poly(M), char_poly(M)
            assert (chi % m).is_zero
            P = random_invertible(field, 3, rng)
            conj = P * M * invert(P)
            assert char_poly(conj) == chi
            assert min_poly(conj) == m


def test_eigenvalues_examples():
    assert eigenvalues_in_field(Matrix.diagonal(F3, [1, 2])) == [1, 2]
    assert eigenvalues_in_field(Matrix(F3, [[0, 1], [2, 0]])) == []
    assert eigenvalues_in_field(Matrix(Q, [[0, 1], [1, 1]])) == []
    assert eigenvalues_in_field(Matrix(Q, [[2, 0], [0, Fraction(1, 2)]])) == [
        Fraction(1, 2),
        Fraction(2),
    ]


def test_eigenvalues_against_scan_oracle():
    rng = random.Random(6)
    for field in (F2, F3, PrimeField(5), F7, PrimeField(11)):
        for _ in range(15):
            M = random_matrix(field, 3, rng)
            assert eigenvalues_in_field(M) == eigenvalues_oracle(M)


def test_eigenvalues_large_field_uses_splitting():
    p = 10007  # above the exhaustive-scan threshold
    F = PrimeField(p)
    M = Matrix.diagonal(F, [5, 1234, 9876])
    assert eigenvalues_in_field(M) == [5, 1234, 9876]
    # companion matrix of an irreducible quadratic: no roots
    M2 = Matrix(F, [[0, -1], [1, 0]])  # chi = t^2 + 1; p = 3 mod 4 so no roots
    assert p % 4 == 3
    assert eigenvalues_in_field(M2) == []


@pytest.mark.parametrize("p", (999983, 2**31 - 1))
def test_eigenvalues_above_the_scan_limit_match_poly_splitting(p):
    F = PrimeField(p)
    rng = random.Random(p)
    found = 0
    for n in (1, 2, 3, 4):
        for _ in range(6):
            S = random_invertible(F, n, rng)
            pool = [0, 1, rng.randrange(p), rng.randrange(p)]
            D = Matrix.diagonal(F, [rng.choice(pool) for _ in range(n)])
            for M in (random_matrix(F, n, rng), S * D * invert(S), S * (D + Matrix.unit(F, n, 0, n - 1)) * invert(S)):
                got = eigenvalues_in_field(M)
                assert got == eigenvalues_split_oracle(M), M
                found += len(got)
    assert found > 50


def test_is_diagonalizable_examples():
    assert not is_diagonalizable(Matrix(F2, [[1, 1], [1, 1]]))  # nonzero nilpotent
    assert not is_diagonalizable(Matrix(F3, [[1, 1], [1, 0]]))  # chi irreducible mod 3
    assert is_diagonalizable(Matrix.identity(F7, 4))
    assert is_diagonalizable(Matrix.zero(Q, 3))
    assert not is_diagonalizable(Matrix(Q, [[0, 1], [1, 1]]))  # irrational eigenvalues
    assert is_diagonalizable(Matrix(Q, [[0, 1], [1, 0]]))  # eigenvalues +-1


def test_is_diagonalizable_oracle_random():
    rng = random.Random(7)
    for field in (F2, F3, PrimeField(5)):
        for n in (2, 3):
            for _ in range(20):
                M = random_matrix(field, n, rng)
                assert is_diagonalizable(M) == diagonalizable_oracle(M)


@pytest.mark.parametrize("p", (2, 3, 101, 2**31 - 1))
def test_is_diagonalizable_on_ints_matches_the_min_poly_test(p):
    F = PrimeField(p)
    rng = random.Random(p)
    seen = set()
    for n in (1, 2, 3, 4):
        for _ in range(10):
            S = random_invertible(F, n, rng)
            D = [rng.randrange(min(p, 4)) for _ in range(n)]
            # D plus a 1 above each repeated diagonal pair: not diagonalizable then
            J = Matrix(F, [[D[i] if j == i else int(j == i + 1 and D[i] == D[j]) for j in range(n)]
                           for i in range(n)])
            for M in (random_matrix(F, n, rng), S * Matrix.diagonal(F, D) * invert(S), S * J * invert(S)):
                got = is_diagonalizable(M)
                assert got == diagonalizable_min_poly_oracle(M), M
                seen.add(got)
    assert seen == {True, False}


def monic_polys(field, d):
    for tail in itertools.product(range(field.p), repeat=d):
        yield Poly(field, list(tail) + [1])


def test_simple_factor_mod_against_trial_division():
    # Every monic f of degree 1..5 over GF(2), GF(3) and 1..4 over GF(5).
    # With a simple root, the answer is t - r for the least simple root r.
    # Otherwise it is the simple irreducible factor of the least degree at
    # which f has exactly one, and None when no degree has exactly one.
    for p, top in ((2, 5), (3, 5), (5, 4)):
        F = PrimeField(p)
        irreducibles = []
        for d in range(1, top + 1):
            irreducibles += [g for g in monic_polys(F, d) if all(not (g % h).is_zero for h in irreducibles)]
        for d in range(1, top + 1):
            for f in monic_polys(F, d):
                simple = []
                for g in irreducibles:
                    k, rest = 0, f
                    while (rest % g).is_zero:
                        rest, k = rest // g, k + 1
                    if k == 1:
                        simple.append(g)
                degrees = [g.degree for g in simple]
                lone = [g for g in simple if g.degree == 1 or degrees.count(g.degree) == 1]
                want = min(lone, key=lambda g: (g.degree, F.neg(g.coeffs[0]))) if lone else None
                got = _simple_factor_mod(list(f.coeffs), p)
                assert got == (list(want.coeffs) if want else None), (p, f)


def test_simple_factor_mod_beyond_the_root_scan():
    # Above SCAN_LIMIT two simple linear factors stay unsplit: t(t - 1)(t + 1)
    # has no lone degree, while t(t - 1)(t^2 + 1) gives its quadratic factor.
    p = 10007
    F = PrimeField(p)
    t = Poly(F, [0, 1])
    linear = t * (t - Poly.one(F)) * (t + Poly.one(F))
    assert _simple_factor_mod(list(linear.coeffs), p) is None
    mixed = t * (t - Poly.one(F)) * Poly(F, [1, 0, 1])  # p = 3 mod 4: t^2 + 1 irreducible
    assert _simple_factor_mod(list(mixed.coeffs), p) == [1, 0, 1]
    assert _simple_factor_mod(list(mixed.coeffs), 7) == [0, 1]


def test_matrix_constructors():
    E = Matrix.unit(F3, 2, 0, 1)
    assert E.rows == ((0, 1), (0, 0))
    assert Matrix.identity(F3, 2).rows == ((1, 0), (0, 1))
    D = Matrix.diagonal(Q, [Fraction(1, 2), 3])
    assert D.rows == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(3)))
    assert D.transpose() == D
    assert (E + E.transpose()).is_symmetric
    assert Matrix.identity(F3, 3).trace() == 0  # 3 = 0 mod 3


def test_vector_ops():
    v = Vector(F7, [1, 2])
    w = Vector(F7, [3, 4])
    assert (v + w).entries == (4, 6)
    assert v.dot(w) == (3 + 8) % 7
    assert Vector.basis(F7, 3, 1).entries == (0, 1, 0)
    M = Matrix(F7, [[1, 2], [3, 4]])
    assert (M * v).entries == (5, 4)  # (1+4, 3+8) mod 7


KERNEL_FIELDS = (F2, F3, PrimeField(101), PrimeField(2**31 - 1), Q)


def _entries(F, rng, nrows, ncols):
    """Sparse random rows; over Q the denominators come from {1, 2, 3, 7}."""
    def entry():
        if rng.random() < 0.3:
            return F.zero()
        if F.is_finite:
            return F.coerce(rng.randrange(F.cardinality))
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=str)
def test_native_arithmetic_matches_field_op_reference(F):
    rng = random.Random(91)
    p = F.cardinality or 0
    for n, m, k in [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 4), (3, 1, 2), (1, 4, 3)]:
        rows_a, rows_b, rows_c = _entries(F, rng, n, m), _entries(F, rng, m, k), _entries(F, rng, n, m)
        A, B, C = Matrix(F, rows_a), Matrix(F, rows_b), Matrix(F, rows_c)
        want = matmul_field_ops_oracle(F, rows_a, rows_b)
        assert (A * B).rows == tuple(map(tuple, want))
        assert [list(map(F.coerce, r)) for r in _matmul(rows_a, rows_b, p)] == want
        if p:  # reduced mod p: already canonical residues
            assert _matmul(rows_a, rows_b, p) == want
        else:  # over Q the product is exact without p
            assert _matmul(rows_a, rows_b) == want
        v, w = Vector(F, _entries(F, rng, 1, m)[0]), Vector(F, _entries(F, rng, 1, m)[0])
        column = matmul_field_ops_oracle(F, rows_a, [[x] for x in v.entries])
        assert (A * v).entries == tuple(r[0] for r in column)
        assert v.dot(w) == matmul_field_ops_oracle(F, [v.entries], [[x] for x in w.entries])[0][0]
        assert (A + C).rows == tuple(tuple(F.add(a, b) for a, b in zip(r, s)) for r, s in zip(A.rows, C.rows))
        assert (A - C).rows == tuple(tuple(F.sub(a, b) for a, b in zip(r, s)) for r, s in zip(A.rows, C.rows))
        assert (-A).rows == tuple(tuple(F.neg(a) for a in r) for r in A.rows)
        assert (v + w).entries == tuple(F.add(a, b) for a, b in zip(v.entries, w.entries))
        assert (v - w).entries == tuple(F.sub(a, b) for a, b in zip(v.entries, w.entries))
        assert (-v).entries == tuple(F.neg(a) for a in v.entries)
        for c in (3, -2, Fraction(5, 7), Fraction(-1, 3)):
            if F.is_finite and Fraction(c).denominator % F.cardinality == 0:
                continue
            cf = F.coerce(c)
            scaled = tuple(tuple(F.mul(cf, a) for a in r) for r in A.rows)
            assert (A * c).rows == (c * A).rows == scaled
            assert v.scale(c).entries == tuple(F.mul(cf, a) for a in v.entries)
        S = Matrix(F, _entries(F, rng, n, n))
        trace = F.zero()
        for i in range(n):
            trace = F.add(trace, S.rows[i][i])
        assert S.trace() == trace and type(S.trace()) is type(trace)
        assert type(v.dot(w)) is type(F.zero())
