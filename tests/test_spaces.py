import random
from fractions import Fraction

import pytest

from matspace import Matrix, MatSpace, PrimeField, RationalField, invert
from matspace.errors import (
    BudgetExceeded,
    FieldMismatch,
    InfiniteField,
    ShapeMismatch,
    Singular,
)

from oracles import (
    members_oracle,
    multipliers_oracle,
    projective_members_oracle,
    random_invertible,
    random_matrix,
    random_space,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
Q = RationalField()
ALL_FIELDS = (F2, F3, F7, Q)


def test_span_examples():
    I2 = Matrix.identity(PrimeField(5), 2)
    assert MatSpace.span([I2, I2 * 2]).dim == 1
    assert MatSpace.span([], field=F3, n=2).dim == 0
    d = MatSpace.span([Matrix.unit(Q, 2, 0, 0), Matrix.unit(Q, 2, 1, 1)])
    assert d.dim == 2


def test_span_validation():
    with pytest.raises(FieldMismatch):
        MatSpace.span([Matrix.identity(F2, 2), Matrix.identity(F3, 2)])
    with pytest.raises(ShapeMismatch):
        MatSpace.span([Matrix.zero(F2, 2, 3)])
    with pytest.raises(ShapeMismatch):
        MatSpace.span([], field=F2)


def test_contains_examples():
    sym = MatSpace.standard("sym", 2, F7)
    assert sym.contains(Matrix.identity(F7, 2))
    upper = MatSpace.standard("strict_upper", 2, F7)
    assert upper.contains(Matrix.unit(F7, 2, 0, 1))
    alt3 = MatSpace.standard("alt", 2, F3)
    assert not alt3.contains(Matrix.identity(F3, 2))


def test_lattice_examples():
    sym, alt = MatSpace.standard("sym", 2, F7), MatSpace.standard("alt", 2, F7)
    assert (sym + alt) == MatSpace.standard("full", 2, F7)
    assert (sym & alt).dim == 0
    sym2, alt2 = MatSpace.standard("sym", 2, F2), MatSpace.standard("alt", 2, F2)
    assert (sym2 & alt2) == alt2  # characteristic 2: alternating inside symmetric
    assert alt2.dim == 1


def test_lattice_dimension_formula():
    rng = random.Random(11)
    for field in ALL_FIELDS:
        for _ in range(10):
            V = random_space(field, 3, rng)
            U = random_space(field, 3, rng)
            s = (V + U).dim
            i = (V & U).dim
            assert V.dim + U.dim == s + i


def _small_space_pairs(field, rng):
    """Random (V, T) pairs in Mat_2, plus V = 0, T = 0 and T = full."""
    zero, full = MatSpace.zero(field, 2), MatSpace.standard("full", 2, field)
    pairs = [(random_space(field, 2, rng), random_space(field, 2, rng)) for _ in range(12)]
    for V in (random_space(field, 2, rng), MatSpace.standard("sym", 2, field)):
        pairs += [(zero, V), (V, zero), (V, full)]
    return pairs


@pytest.mark.parametrize("field", [F2, F3])
def test_multipliers_match_brute_force(field):
    rng = random.Random(29)
    for V, T in _small_space_pairs(field, rng):
        for side in ("left", "right"):
            X = V.multipliers(T, side)
            assert members_oracle(X) == multipliers_oracle(V, T, side), (V.rows, T.rows, side)


@pytest.mark.parametrize("field", [F2, F3])
def test_intersection_matches_brute_force(field):
    rng = random.Random(31)
    for V, U in _small_space_pairs(field, rng):
        assert members_oracle(V & U) == members_oracle(V) & members_oracle(U)


def test_multipliers_examples():
    for field in ALL_FIELDS:
        sym, alt = MatSpace.standard("sym", 3, field), MatSpace.standard("alt", 3, field)
        scalar = MatSpace.standard("scalar", 3, field)
        # Sym_3 * X inside Sym_3 only for scalar X; Alt_3 * X inside Alt_3 likewise
        assert sym.multipliers(sym, "right") == scalar
        assert alt.multipliers(alt, "left") == scalar
        S = random_invertible(field, 3, random.Random(3))
        assert sym.transform(S, "right").multipliers(sym, "right").contains(invert(S))
    with pytest.raises(ShapeMismatch):
        sym.multipliers(sym, "both")
    with pytest.raises(FieldMismatch):
        MatSpace.standard("sym", 2, F2).multipliers(MatSpace.standard("sym", 2, F3), "left")


def test_standard_space_dims():
    assert MatSpace.standard("sym", 3, F7).dim == 6
    assert MatSpace.standard("alt", 3, F2).dim == 3
    assert MatSpace.standard("scalar", 5, F3).dim == 1
    assert MatSpace.standard("strict_upper", 4, Q).dim == 6
    assert MatSpace.standard("diagonal", 3, Q).dim == 3
    assert MatSpace.standard("full", 3, F2).dim == 9


def test_standard_spaces_are_built_once():
    sym = MatSpace.standard("sym", 3, Q)
    assert MatSpace.standard("sym", 3, RationalField()) is sym
    assert MatSpace.standard("sym", 3, PrimeField(7)) is MatSpace.standard("sym", 3, F7)
    assert MatSpace.standard("sym", 3, F7) is not MatSpace.standard("sym", 3, F2)
    assert MatSpace.standard("alt", 3, Q) is not sym


def test_orth_examples():
    for field in ALL_FIELDS:
        for n in (2, 3, 4):
            sym = MatSpace.standard("sym", n, field)
            alt = MatSpace.standard("alt", n, field)
            assert sym.orth() == alt
    assert MatSpace.zero(F3, 2).orth() == MatSpace.standard("full", 2, F3)
    upper = MatSpace.standard("strict_upper", 3, F7)
    upper_tri = upper + MatSpace.standard("diagonal", 3, F7)
    assert upper.orth() == upper_tri
    assert upper_tri.dim == 6


def test_orth_matches_direct_trace():
    rng = random.Random(12)
    for field in ALL_FIELDS:
        for _ in range(5):
            V = random_space(field, 3, rng)
            W = V.orth()
            for A in V.basis():
                for B in W.basis():
                    assert (A * B).trace() == 0


def test_orth_dimension_and_biduality():
    rng = random.Random(13)
    for field in ALL_FIELDS:
        for n in (2, 3, 4):
            for _ in range(5):
                V = random_space(field, n, rng)
                W = V.orth()
                assert V.dim + W.dim == n * n
                assert W.orth() == V


def test_conjugation_orth_identity():
    rng = random.Random(14)
    for field in ALL_FIELDS:
        for _ in range(5):
            V = random_space(field, 3, rng)
            P = random_invertible(field, 3, rng)
            left = V.conjugate(P).orth()
            right = V.orth().conjugate(P)
            assert left == right


def test_transform_examples():
    alt = MatSpace.standard("alt", 2, F3)
    assert alt.conjugate(Matrix.identity(F3, 2)) == alt
    assert alt.transform(Matrix.identity(F3, 2), "left") == alt
    scaled = MatSpace.standard("sym", 2, F3).transform(
        invert(Matrix.diagonal(F3, [1, 2])), "right"
    )
    assert scaled.dim == 3
    assert scaled.contains(Matrix(F3, [[0, 2], [1, 0]]))
    with pytest.raises(Singular):
        alt.conjugate(Matrix.zero(F3, 2))
    with pytest.raises(ShapeMismatch):
        alt.transform(Matrix.identity(F3, 2), "sideways")


def test_transform_preserves_dimension():
    rng = random.Random(15)
    for field in (F3, F7, Q):
        for _ in range(5):
            V = random_space(field, 3, rng)
            P = random_invertible(field, 3, rng)
            for mode in ("conjugate", "left", "right"):
                assert V.transform(P, mode).dim == V.dim


@pytest.mark.parametrize("field", (F2, F3, PrimeField(101), Q), ids=str)
def test_transform_matches_matrix_products(field):
    # The products as Matrix objects, spanned: the path before transform
    # multiplied row lists straight into the canonical elimination.
    rng = random.Random(16)
    for n in (1, 2, 3):
        for _ in range(6):
            V = random_space(field, n, rng)
            P, M = random_invertible(field, n, rng), random_matrix(field, n, rng)
            Pinv = invert(P)
            cases = [
                ("conjugate", P, [P * B * Pinv for B in V.basis()]),
                ("left", M, [M * B for B in V.basis()]),
                ("right", M, [B * M for B in V.basis()]),
            ]
            for mode, T, mats in cases:
                assert V.transform(T, mode) == MatSpace.span(mats, field=field, n=n)


def test_elements_enumeration():
    alt = MatSpace.standard("alt", 2, F3)
    elems = list(alt.elements())
    assert len(elems) == 3
    assert len(set(elems)) == 3
    assert Matrix.zero(F3, 2) in elems

    sym2 = MatSpace.standard("sym", 2, F2)
    assert len(list(sym2.elements())) == 8

    big = MatSpace.standard("full", 3, F3)  # 3^9 = 19683 elements
    with pytest.raises(BudgetExceeded):
        list(big.elements(budget=10**4))
    huge = MatSpace.standard("full", 4, F3)  # 3^16 exceeds the default budget
    with pytest.raises(BudgetExceeded):
        next(iter(huge.elements()))
    with pytest.raises(InfiniteField):
        list(MatSpace.standard("sym", 2, Q).elements())


def test_elements_order_first_coefficient_fastest():
    sym = MatSpace.standard("sym", 2, F3)
    elems = list(sym.elements())
    basis = sym.basis()
    assert elems[0] == Matrix.zero(F3, 2)
    assert elems[1] == basis[0]
    assert elems[2] == basis[0] * 2
    assert elems[3] == basis[1]
    assert elems[4] == basis[0] + basis[1]


@pytest.mark.parametrize("field", (F2, F3, F5))
def test_projective_rows_keep_last_nonzero_coefficient_one(field):
    rng = random.Random(17)
    q = field.cardinality
    for n in (1, 2):
        for k in range(4):
            V = random_space(field, n, rng, k)
            kept = [Matrix(field, [r[i * n : (i + 1) * n] for i in range(n)]) for r in V.projective_rows()]
            assert kept == projective_members_oracle(V)
            assert len(kept) == (q**V.dim - 1) // (q - 1)
            # one member per projective class: no kept member is a multiple of another
            lines = {frozenset(M.vec() for M in (K * c for c in range(1, q))) for K in kept}
            assert len(lines) == len(kept)


def test_projective_rows_budget_counts_every_member():
    sym = MatSpace.standard("sym", 2, F3)  # 27 members, 13 kept
    with pytest.raises(BudgetExceeded):
        next(sym.projective_rows(budget=26))
    assert len(list(sym.projective_rows(budget=27))) == 13


def test_canonical_equality_independent_of_generators():
    rng = random.Random(16)
    for field in (F3, Q):
        V = random_space(field, 3, rng, k=4)
        mats = V.basis()
        rng.shuffle(mats)
        doubled = [M + M for M in mats] + mats
        assert MatSpace.span(doubled, field=field, n=3) == V


def test_coordinates_roundtrip():
    sym = MatSpace.standard("sym", 3, F7)
    M = Matrix(F7, [[1, 2, 3], [2, 0, 5], [3, 5, 6]])
    coords = sym.coordinates(M)
    acc = Matrix.zero(F7, 3)
    for c, B in zip(coords, sym.basis()):
        acc = acc + B * c
    assert acc == M
    assert sym.coordinates(Matrix.unit(F7, 3, 0, 1)) is None
