"""Quadratic forms on native numbers against the former field-method code.

`forms` runs congruence, square-class scaling, the repair and the witness on
residues mod p and Fractions, `non_isotropic` reads definiteness over Q from
the congruence diagonal, and `_squarefree_part` uses the int-list gcd.  The
references in oracles.py are the code they replaced: every Q, D, scale,
repair, witness and verdict must agree with them, entry for entry.
"""

import random
from fractions import Fraction

import pytest

from matspace import Matrix, PrimeField, RationalField
from matspace.errors import Char2AlternatingResidual, MatSpaceError, ShapeMismatch, ZeroDiagonalEntry
from matspace.fields import Field
from matspace.forms import (
    _single_class_rediagonalize,
    congruence_diagonalize,
    nondiag_witness,
    square_class_normalize,
)
from matspace.polys import _integer_roots, _squarefree_part
from matspace.predicates import HOLDS, UNKNOWN, non_isotropic

from oracles import (
    congruence_diagonalize_field_ops_oracle,
    definite_by_minors_oracle,
    nondiag_witness_field_ops_oracle,
    random_invertible,
    single_class_rediagonalize_field_ops_oracle,
    square_class_normalize_field_ops_oracle,
    squarefree_part_oracle,
)

Q = RationalField()
FIELDS = [PrimeField(3), PrimeField(7), PrimeField(101), PrimeField(2**31 - 1), Q]
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def random_symmetric(F, n, rng, kind):
    """A symmetric n x n matrix: "any", "zero_diagonal" or "singular" (rank < n)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = 0 if kind == "zero_diagonal" and i == j else rng.randint(-3, 3)
    if kind == "singular":  # zero the last row and column, then conjugate
        S = Matrix(F, [r[:-1] + [0] for r in rows[:-1]] + [[0] * n])
        T = random_invertible(F, n, rng)
        return T * S * T.transpose()
    return Matrix(F, rows)


def outcome(fn, *args):
    """fn's result, or the type of the library error it raised."""
    try:
        return fn(*args)
    except MatSpaceError as exc:
        return type(exc)


def symmetric_cases(F, seed, count=12, sizes=range(1, 5)):
    rng = random.Random(seed)
    for n in sizes:
        for kind in ("any", "zero_diagonal", "singular"):
            for _ in range(count):
                yield random_symmetric(F, n, rng, kind)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_forms_match_the_field_method_code(F):
    repaired = witnessed = 0
    for P in symmetric_cases(F, seed=F.cardinality or 0):
        Qm, D = congruence_diagonalize(P)
        assert (Qm, D) == congruence_diagonalize_field_ops_oracle(P)
        if any(x == 0 for x in D.diagonal_entries()):
            assert outcome(square_class_normalize, D) is ZeroDiagonalEntry
            continue
        norm = square_class_normalize(D)
        assert (norm.scales, norm.c, norm.offending_index) == square_class_normalize_field_ops_oracle(D)
        if norm.ok:
            continue
        if F.is_finite:
            repair = _single_class_rediagonalize(D)
            assert repair == single_class_rediagonalize_field_ops_oracle(D)
            repaired += repair is not None
            if repair is not None:
                continue
        i = norm.offending_index
        assert nondiag_witness(D, i) == nondiag_witness_field_ops_oracle(D, i)
        witnessed += 1
    assert witnessed and (repaired or not F.is_finite)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_square_class_normalize_rejects_the_empty_diagonal(F):
    with pytest.raises(ShapeMismatch):
        square_class_normalize(Matrix(F, []))


def test_congruence_in_characteristic_2_matches_the_field_method_code():
    F2 = PrimeField(2)
    for P in symmetric_cases(F2, seed=2):
        got = outcome(congruence_diagonalize, P)
        assert got == outcome(congruence_diagonalize_field_ops_oracle, P)
    P = Matrix(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert outcome(congruence_diagonalize, P) is Char2AlternatingResidual


def test_rational_definiteness_matches_leading_minors():
    # An indefinite n = 4 form without a small isotropic vector costs 11^4
    # dot products, so n = 4 takes definite forms and one isotropic one.
    rng = random.Random(5)
    A = [random_invertible(Q, 4, rng) for _ in range(6)]
    n4 = [M * M.transpose() for M in A]
    n4 += [-P for P in n4] + [Matrix.diagonal(Q, [1, 1, 1, -1])]
    verdicts = set()
    for P in [*symmetric_cases(Q, seed=5, count=20, sizes=range(1, 4)), *n4]:
        status = non_isotropic(P).status
        assert (status == HOLDS) == definite_by_minors_oracle(P)
        verdicts.add(status)
    assert verdicts == {"holds", "fails", UNKNOWN}


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_squarefree_part_matches_the_poly_gcd():
    rng = random.Random(9)
    for _ in range(200):
        g = [1]
        for _ in range(rng.randint(1, 5)):
            # a monic t - r or t^2 + b t + c, up to three times over
            linear = rng.random() < 0.7
            factor = [-rng.randint(-4, 4), 1] if linear else [rng.randint(-3, 3), rng.randint(-3, 3), 1]
            for _ in range(rng.choice((1, 1, 2, 3))):
                g = poly_mul(g, factor)
        assert _squarefree_part(g) == squarefree_part_oracle(g)


@pytest.fixture()
def no_field_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("field arithmetic method called")

    for cls in (Field, PrimeField, RationalField):
        for op in FIELD_OPS:
            if op in cls.__dict__:
                monkeypatch.setattr(cls, op, refuse)


def test_forms_and_rational_roots_make_no_field_arithmetic_call(no_field_arithmetic):
    F7 = PrimeField(7)
    P = Matrix(F7, [[0, 1, 2], [1, 0, 3], [2, 3, 0]])  # the zero-diagonal repair
    Qm, D = congruence_diagonalize(P)
    assert Qm * P * Qm.transpose() == D
    assert not square_class_normalize(Matrix.diagonal(F7, [1, 3])).ok
    assert nondiag_witness(Matrix.diagonal(F7, [1, 3]), 1) == Matrix(F7, [[0, 5], [1, 0]])
    R, D2 = _single_class_rediagonalize(Matrix.diagonal(F7, [1, 3, 3]))
    assert square_class_normalize(D2).ok and R * Matrix.diagonal(F7, [1, 3, 3]) * R.transpose() == D2
    Qm, D = congruence_diagonalize(Matrix(Q, [[0, 1], [1, 0]]))
    assert D == Matrix.diagonal(Q, [2, Fraction(-1, 2)])
    assert square_class_normalize(Matrix.diagonal(Q, [2, 8])).scales == [1, Fraction(1, 2)]
    assert nondiag_witness(Matrix.diagonal(Q, [1, 2]), 1) == Matrix(Q, [[0, Fraction(1, 2)], [1, 0]])
    assert non_isotropic(Matrix.diagonal(Q, [1, 2])).status == HOLDS
    # (t - 2)^2 (t + 3): the squarefree part and the root finder run on ints
    assert _integer_roots([12, -8, -1, 1]) == [-3, 2]
