import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from matspace import PrimeField, RationalField, is_prime, make_field
from matspace.errors import (
    DivisionByZero,
    InfiniteField,
    InvalidInput,
    NotPrime,
    Unsupported,
)


def test_make_field_prime():
    F = make_field("gf7")
    assert isinstance(F, PrimeField)
    assert F.characteristic == 7
    assert F.cardinality == 7


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field("prime 6")
    with pytest.raises(NotPrime):
        PrimeField(91)


def test_make_field_rational():
    F = make_field("rational")
    assert isinstance(F, RationalField)
    assert F.characteristic == 0
    assert F.cardinality is None
    assert not F.is_finite


def test_make_field_range_checks():
    with pytest.raises(Unsupported):
        PrimeField(2**31 + 11)
    with pytest.raises(Unsupported):
        PrimeField(1)
    with pytest.raises(InvalidInput):
        make_field("gfx")


def test_make_field_json_descriptor():
    assert make_field({"kind": "prime", "p": 5}) == PrimeField(5)
    assert make_field({"kind": "rational"}) == RationalField()
    with pytest.raises(InvalidInput):
        make_field({"kind": "real"})


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_inverse_examples():
    assert PrimeField(7).inv(2) == 4  # 2*4 = 8 = 1 mod 7
    assert PrimeField(3).inv(2) == 2  # 2*2 = 4 = 1 mod 3
    with pytest.raises(DivisionByZero):
        PrimeField(7).inv(0)
    with pytest.raises(DivisionByZero):
        RationalField().inv(Fraction(0))


def test_rational_arithmetic():
    Q = RationalField()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.div(Fraction(3), Fraction(4)) == Fraction(3, 4)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    F = PrimeField(p)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            if b != 0:
                assert F.mul(F.div(a, b), b) == a
            for c in elems:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    for a in elems:
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1


@given(st.integers(), st.integers(), st.integers())
def test_field_axioms_large_prime(a, b, c):
    F = PrimeField(2**31 - 1)
    a, b, c = F.coerce(a), F.coerce(b), F.coerce(c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.sub(F.add(a, b), b) == a
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


def test_square_examples():
    F7 = PrimeField(7)
    assert F7.is_square(2)  # 3^2 = 9 = 2 mod 7
    assert not F7.is_square(3)  # squares mod 7 are {0, 1, 2, 4}
    assert F7.sqrt(2) == 3  # the smaller root of {3, 4}
    assert PrimeField(3).sqrt(2) is None  # squares mod 3 are {0, 1}
    Q = RationalField()
    assert Q.is_square(Fraction(1, 25))
    assert Q.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert Q.sqrt(Fraction(2)) is None
    assert not Q.is_square(Fraction(-4))


@pytest.mark.parametrize(
    "p",
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97],
)
def test_sqrt_against_scan_oracle(p):
    F = PrimeField(p)
    for x in range(p):
        roots = [r for r in range(p) if r * r % p == x]
        assert F.is_square(x) == bool(roots)
        got = F.sqrt(x)
        if roots:
            assert got == min(roots)
            assert got * got % p == x
        else:
            assert got is None


def test_sqrt_large_prime_tonelli():
    p = 2**31 - 1
    F = PrimeField(p)
    rng = random.Random(0)
    for _ in range(50):
        r = rng.randrange(1, p)
        x = r * r % p
        s = F.sqrt(x)
        assert s is not None and s * s % p == x
        assert s == min(s, p - s)


def test_elements_stream():
    assert list(PrimeField(3).elements()) == [0, 1, 2]
    assert list(PrimeField(2).elements()) == [0, 1]
    with pytest.raises(InfiniteField):
        RationalField().elements()


def test_scalar_serialization():
    F7 = PrimeField(7)
    assert F7.scalar_to_json(F7.coerce(12)) == 5
    assert F7.scalar_from_json(5) == 5
    with pytest.raises(InvalidInput):
        F7.scalar_from_json("5")
    Q = RationalField()
    assert Q.scalar_to_json(Fraction(-3, 6)) == "-1/2"
    assert Q.scalar_from_json("-1/2") == Fraction(-1, 2)
    assert Q.scalar_from_json(4) == Fraction(4)
    with pytest.raises(InvalidInput):
        Q.scalar_from_json("1/0")


def test_field_equality_and_coercion():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert PrimeField(7) != RationalField()
    assert PrimeField(7).coerce(Fraction(1, 2)) == 4  # 2^-1 mod 7
    with pytest.raises(InvalidInput):
        PrimeField(7).coerce(0.5)
