"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from matspace import (
    Matrix,
    MatSpace,
    Poly,
    PrimeField,
    RationalField,
    census,
    char_poly,
    gaussian_binomial,
    invert,
    irreducible,
    is_diagonalizable,
    max_diag_dim,
    non_isotropic,
    recover,
    trivial_spectrum,
    all_diagonalizable,
    block_decompose,
    Vector,
)
from matspace.predicates import HOLDS
from matspace.recovery import CONDITIONAL, FAILURE, SUCCESS
from matspace.serialize import canonical_json, census_result

from oracles import (
    diagonalizable_oracle,
    irreducible_lines_oracle,
    random_invertible,
    random_space,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)
Q = RationalField()
ALL_FIELDS = (F2, F3, F7, Q)


def checked(num, limit, description):
    """Decorator: time the criterion body and print one pass/fail line."""

    def wrap(fn):
        def run():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d}: FAIL - {description}")
                raise
            elapsed = time.perf_counter() - t0
            print(
                f"criterion {num:2d}: PASS in {elapsed:6.2f}s (limit {limit:4.0f}s) - {description}"
            )
            assert elapsed < limit, f"criterion {num} overran its {limit}s budget"

        run.__name__ = fn.__name__
        return run

    return wrap


def sym(n, field):
    return MatSpace.standard("sym", n, field)


@checked(1, 5, "trace-form orthogonality suite")
def test_criterion_1():
    rng = random.Random(101)
    for field in ALL_FIELDS:
        for n in (2, 3, 4):
            assert sym(n, field).orth() == MatSpace.standard("alt", n, field)
    combos = [(f, n) for f in ALL_FIELDS for n in (2, 3, 4)]
    for i in range(200):
        field, n = combos[i % len(combos)]
        V = random_space(field, n, rng)
        W = V.orth()
        assert V.dim + W.dim == n * n
        assert W.orth() == V
    for i in range(50):
        field, n = combos[i % len(combos)]
        V = random_space(field, n, rng)
        P = random_invertible(field, n, rng)
        assert V.conjugate(P).orth() == V.orth().conjugate(P)


@checked(2, 30, "recovery identity and random round-trips")
def test_criterion_2():
    for field in (F3, F7, Q):
        for n in (2, 3, 4):
            rep = recover(sym(n, field))
            assert rep.status in (SUCCESS, CONDITIONAL)
            assert sym(n, field).conjugate(rep.S) == sym(n, field)
    rng = random.Random(102)
    for k in range(25):
        n = 2 if k % 2 == 0 else 3
        S0 = random_invertible(F7, n, rng)
        V = sym(n, F7).conjugate(S0)
        rep = recover(V)
        assert rep.status == SUCCESS
        assert sym(n, F7).conjugate(rep.S) == V


@checked(3, 1, "square-class falsification witness")
def test_criterion_3():
    V = sym(2, F3).transform(invert(Matrix.diagonal(F3, [1, 2])), "right")
    rep = recover(V)
    assert rep.status == FAILURE
    assert rep.failure_stage == "square_class"
    J = Matrix.unit(F3, 2, 0, 1) + Matrix.unit(F3, 2, 1, 0)
    expected = J * invert(Matrix.diagonal(F3, [1, 2]))
    assert rep.witness == expected
    assert char_poly(rep.witness) == Poly(F3, [1, 0, 1])  # t^2 - 2 over GF(3)
    assert not is_diagonalizable(rep.witness)
    assert V.contains(rep.witness)


@checked(4, 5, "off-diagonal pair characteristic polynomial identity")
def test_criterion_4():
    rng = random.Random(104)
    for k in range(100):
        field = F7 if k % 2 == 0 else Q
        n = 2 + k % 3
        if field.is_finite:
            d = [rng.randrange(1, 7) for _ in range(n)]
        else:
            from fractions import Fraction

            d = [
                Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
                for _ in range(n)
            ]
        P = Matrix.diagonal(field, d)
        i = rng.randrange(1, n)
        M = (Matrix.unit(field, n, 0, i) + Matrix.unit(field, n, i, 0)) * invert(P)
        r = field.mul(field.inv(field.coerce(d[i])), field.inv(field.coerce(d[0])))
        expected = Poly(field, [field.neg(r), field.zero(), field.one()]).shift(n - 2)
        assert char_poly(M) == expected


@checked(5, 1, "3-dimensional subspaces of Mat_2(F_2) are never diagonalizable")
def test_criterion_5():
    rep = census(2, 2, 3, ["diag"])
    assert rep.total == 15
    assert rep.counts["all_diagonalizable"] == 0
    d_max, witness = max_diag_dim(2, 2)
    assert d_max == 2
    assert all_diagonalizable(witness).status == HOLDS


@checked(6, 5, "maximal trivial-spectrum classification at (n, q) = (2, 3)")
def test_criterion_6():
    rep = census(2, 3, 2, ["trivspec", "irred"])
    assert rep.total == 130
    assert rep.counts["irreducible"] == 0  # conjunction count

    alt = MatSpace.standard("alt", 2, F3)
    candidates = []
    for space in __import__("matspace").subspace_stream(2, 3, 1):
        if (
            trivial_spectrum(space).status == HOLDS
            and irreducible(space).status == HOLDS
        ):
            candidates.append(space)
    assert candidates  # maximal dimension (2 choose 2) = 1 is attained
    import itertools

    for V in candidates:
        found = False
        for values in itertools.product(range(3), repeat=4):
            P = Matrix(F3, [values[:2], values[2:]])
            try:
                invert(P)
            except Exception:
                continue
            if non_isotropic(P).status != HOLDS:
                continue
            if alt.transform(P, "left") == V:
                found = True
                break
        assert found, f"no non-isotropic factorization for {V}"


@checked(7, 10, "diagonalizable spans meet the strictly upper space trivially")
def test_criterion_7():
    rng = random.Random(107)
    for k in range(100):
        n = 2 + k % 3
        P = random_invertible(F7, n, rng)
        Pinv = invert(P)
        gens = [
            P * Matrix.diagonal(F7, [rng.randrange(7) for _ in range(n)]) * Pinv
            for _ in range(n)
        ]
        V = MatSpace.span(gens, field=F7, n=n)
        meet = V & MatSpace.standard("strict_upper", n, F7)
        assert meet.dim == 0
    rep = census(2, 3, 3, ["diag"])
    assert rep.total == 40
    assert rep.counts["all_diagonalizable"] == 0


@checked(8, 5, "block decomposition rank bookkeeping")
def test_criterion_8():
    rng = random.Random(108)
    fields = (F2, F3, F7, Q)
    for k in range(100):
        field = fields[k % 4]
        n = 2 + k % 3
        V = random_space(field, n, rng)
        bm = block_decompose(V)
        assert V.dim == bm.dim_CV + bm.dim_W
        for M in bm.corner_kernel.basis():
            assert (M * M).is_zero
    quota = 0
    while quota < 100:
        field = fields[quota % 4]
        n = 2 + quota % 3
        V = random_space(field, n, rng)
        bm = block_decompose(V)
        for M in bm.W.basis():
            K = bm.block_of(M)
            for idx in range(n):
                v = Vector.basis(field, n, idx)
                piv = Vector(field, v.entries[1:])
                assert K * piv == Vector(field, (M * v).entries[1:])
            quota += 1
            if quota >= 100:
                break


@checked(9, 600, "heavy exhaustive censuses over Mat_3(F_2)")
def test_criterion_9():
    rep1a = census(3, 2, 6, ["diag"], heavy=True, workers=1)
    assert rep1a.total == 788_035
    assert rep1a.counts["all_diagonalizable"] == 0
    rep1b = census(3, 2, 6, ["diag"], heavy=True, workers=4)
    assert canonical_json(census_result(rep1a)) == canonical_json(census_result(rep1b))

    rep2a = census(3, 2, 4, ["trivspec", "irred"], heavy=True, workers=4)
    assert rep2a.total == 3_309_747
    assert rep2a.counts["irreducible"] == 0  # nothing of dim 4 > 3 survives
    rep2b = census(3, 2, 4, ["trivspec", "irred"], heavy=True, workers=8)
    assert canonical_json(census_result(rep2a)) == canonical_json(census_result(rep2b))


@checked(10, 60, "library tests agree with brute-force oracles")
def test_criterion_10():
    for field, n in ((F2, 2), (F3, 2), (F2, 3)):
        q = field.cardinality
        import itertools

        for values in itertools.product(range(q), repeat=n * n):
            M = Matrix(field, [values[i * n : (i + 1) * n] for i in range(n)])
            assert is_diagonalizable(M) == diagonalizable_oracle(M)
    rng = random.Random(110)
    for k in range(500):
        field = F2 if k % 2 == 0 else F3
        V = random_space(field, 2, rng)
        assert (irreducible(V).status == HOLDS) == irreducible_lines_oracle(V)
