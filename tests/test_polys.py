import random
from fractions import Fraction

import pytest

from matspace import MatSpace, Matrix, Poly, PrimeField, RationalField, char_poly, det, min_poly, recover
from matspace.errors import DivisionByZero
from matspace.fields import Field

from oracles import FieldPoly


F7 = PrimeField(7)
Q = RationalField()


def test_zero_and_degree():
    z = Poly.zero(F7)
    assert z.is_zero and z.degree == -1
    assert Poly(F7, [0, 0, 0]).is_zero
    assert Poly(F7, [3, 0, 1]).degree == 2


def test_arithmetic_roundtrip():
    a = Poly(F7, [1, 2, 3])
    b = Poly(F7, [5, 6])
    assert (a + b) - b == a
    assert a * Poly.one(F7) == a
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divmod_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(Poly(F7, [1, 1]), Poly.zero(F7))


def test_gcd_monic():
    # (t-1)(t-2) and (t-1)(t-3) share the factor t-1
    a = Poly(Q, [2, -3, 1])
    b = Poly(Q, [3, -4, 1])
    g = Poly.gcd(a, b)
    assert g == Poly(Q, [-1, 1])
    assert Poly.gcd(a, Poly.zero(Q)) == a.monic()


def test_eval_and_derivative():
    p = Poly(Q, [Fraction(1), Fraction(0), Fraction(3)])  # 3t^2 + 1
    assert p.eval(Fraction(2)) == 13
    assert p.derivative() == Poly(Q, [0, 6])
    # derivative in characteristic p kills t^p
    tp = Poly.x(F7).shift(6)  # t^7
    assert tp.derivative().is_zero


def test_pow_mod():
    m = Poly(F7, [1, 0, 1])  # t^2 + 1
    t = Poly.x(F7)
    assert Poly.pow_mod(t, 49, m) == t % m  # t^(q^2) = t for the quadratic extension
    assert Poly.pow_mod(t, 7, m) == Poly(F7, [0, 6])  # t^7 = -t mod t^2+1


@pytest.mark.parametrize("F", [F7, Q])
def test_pow_mod_rejects_a_negative_exponent(F):
    # e >>= 1 stays at -1, so the square-and-multiply loop must not start
    with pytest.raises(ValueError):
        Poly.pow_mod(Poly.x(F), -1, Poly(F, [1, 0, 1]))


def test_shift_and_repr():
    p = Poly(F7, [3, 0, 1]).shift(2)
    assert p.coeffs == (0, 0, 3, 0, 1)
    assert Poly.zero(F7).shift(3).is_zero


# -- parity with the field-method arithmetic ------------------------------------

FIELDS = [PrimeField(2), PrimeField(3), F7, PrimeField(101), PrimeField(2**31 - 1), Q]


def random_poly(F, rng):
    """A Poly of degree -1 (zero) to 5 with random coefficients."""
    if F.is_finite:
        draw = lambda: rng.randrange(F.cardinality)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))  # noqa: E731
    return Poly(F, [draw() for _ in range(rng.randint(0, 6))])


def same(got, want):
    assert got.field == want.field and got.coeffs == want.coeffs, (got, want.coeffs)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_poly_matches_the_field_method_arithmetic(F):
    rng = random.Random(12)
    zero, one = Poly.zero(F), Poly.one(F)
    cases = [(zero, zero, one), (zero, one, zero), (one, zero, Poly(F, [3]))]
    cases += [tuple(random_poly(F, rng) for _ in range(3)) for _ in range(150)]
    for a, b, m in cases:
        fa, fb, fm = FieldPoly.of(a), FieldPoly.of(b), FieldPoly.of(m)
        same(a + b, fa + fb)
        same(a - b, fa - fb)
        same(-a, -fa)
        same(a * b, fa * fb)
        c = rng.randrange(3)
        same(a.scale(c), fa.scale(c))
        same(a.monic(), fa.monic())
        same(a.derivative(), fa.derivative())
        same(Poly.gcd(a, b), FieldPoly.gcd(fa, fb))
        x = F.coerce(rng.randint(-3, 3))
        assert a.eval(x) == fa.eval(x)
        if b.is_zero:
            with pytest.raises(DivisionByZero):
                divmod(a, b)
        else:
            (q, r), (fq, fr) = divmod(a, b), divmod(fa, fb)
            same(q, fq)
            same(r, fr)
            same(a // b, fa // fb)
            same(a % b, fa % fb)
        if m.is_zero:
            with pytest.raises(DivisionByZero):
                Poly.pow_mod(a, 2, m)
        else:
            for e in (0, 1, 2, rng.randint(3, 40)):
                same(Poly.pow_mod(a, e, m), FieldPoly.pow_mod(fa, e, fm))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_poly_edge_cases_match_the_field_method_arithmetic(F):
    zero, t = Poly.zero(F), Poly.x(F)
    same(Poly.gcd(zero, zero), FieldPoly.gcd(FieldPoly.of(zero), FieldPoly.of(zero)))
    assert Poly.gcd(zero, zero).is_zero
    one = Poly.one(F)
    for e in (0, 1, 5):
        assert Poly.pow_mod(t, e, one).is_zero  # everything is 0 modulo a unit
        same(Poly.pow_mod(t, e, one), FieldPoly.pow_mod(FieldPoly.of(t), e, FieldPoly.of(one)))
    assert Poly.pow_mod(t, 0, Poly(F, [1, 1])) == Poly.one(F)
    # t^p has derivative p * t^(p-1) = 0 in characteristic p; t^7 has 7t^6 elsewhere
    k = F.characteristic if 0 < F.characteristic <= 101 else 7
    tk = t.shift(k - 1)
    same(tk.derivative(), FieldPoly.of(tk).derivative())
    assert tk.derivative().is_zero == (k == F.characteristic)


def test_polys_matrices_and_q_recovery_make_no_field_arithmetic_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("field arithmetic method called")

    # kernel_rows' field.neg is the one field op left outside fields.py.
    for cls in (Field, PrimeField, RationalField):
        for op in ("add", "sub", "mul", "inv", "div", "pow"):
            if op in cls.__dict__:
                monkeypatch.setattr(cls, op, refuse)
    for F in (F7, Q):
        a, b = Poly(F, [1, 2, 3]), Poly(F, [5, 6])
        q, r = divmod(a, b)
        assert q * b + r == a and (a - b) + b == a and -(-a) == a
        assert a.scale(3).monic() == a.monic() == Poly.gcd(a, a)
        assert a.eval(2) == F.coerce(17) and a.derivative() == Poly(F, [2, 6])
        assert Poly.pow_mod(a, 5, b) == (a * a * a * a * a) % b
        M = Matrix(F, [[1, 2], [3, 4]])
        assert det(M) == F.coerce(-2)
        assert min_poly(M) == char_poly(M) == Poly(F, [-2, -5, 1])
    V = MatSpace.standard("sym", 2, Q).conjugate(Matrix(Q, [[1, 2], [0, 1]]))
    assert recover(V).succeeded
