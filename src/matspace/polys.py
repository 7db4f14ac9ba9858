"""Polynomials in one variable over GF(p) and Q: one arithmetic, on coefficient lists.

A polynomial is a list of coefficients, low degree first, with no trailing
zeros (the zero polynomial is []): canonical residues over GF(p), ints and
Fractions over Q.  Every function takes the characteristic p, with p = 0
standing for Q, and runs on Python's operators, never on `Field` methods.
`Poly` is the public value type over these lists: each of its operations is
one call into them, with p = field.cardinality or 0.

Roots mod p (`_roots_mod`) come from a scan of every residue up to
SCAN_LIMIT, and above it from gcd(g, t^p - t), split apart by gcds with
(t + s)^((p-1)/2) - 1 for seeded shifts s.  `_simple_factor_mod` finds an
irreducible factor of multiplicity 1, for Norton's irreducibility test.
Integer roots (`_integer_roots`, the rational eigenvalues of L*M) pass a
small-prime sieve, then the roots of the squarefree part g / gcd(g, g')
(the same division and gcd, with p = 0) modulo a prime where it stays
squarefree are Hensel-lifted, and each candidate is checked exactly.
`_roots(g, p)` calls one of the two by p, so its callers need no field fork.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .errors import DivisionByZero, FieldMismatch
from .fields import Field, Scalar, is_prime

# Root finding mod p scans every residue only up to this prime; larger
# primes use the gcd/splitting path.
SCAN_LIMIT = 10**4

# A polynomial without a root modulo one of these has no nonzero integer root.
_SIEVE_PRIMES = (3, 5, 7, 11, 13)


def _inv(a, p: int):
    """1 / a: a residue mod p, or a Fraction when p = 0 (a may be an int)."""
    return pow(a, -1, p) if p else 1 / Fraction(a)


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _add(f: list, g: list, p: int) -> list:
    """f + g over GF(p), or over Q when p = 0."""
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim([c % p for c in out] if p else out)


def _scale(f: list, c, p: int) -> list:
    """c * f over GF(p), or over Q when p = 0."""
    return _trim([c * a % p for a in f] if p else [c * a for a in f])


def _monic(f: list, p: int) -> list:
    return _scale(f, _inv(f[-1], p), p) if f else f


def _mul(f: list, g: list, p: int) -> list:
    """f * g over GF(p), or over Q when p = 0."""
    out = [0] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([c % p for c in out] if p else out)


def _divmod_mod(f: list, g: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of f by a nonzero g over GF(p), or over Q when p = 0."""
    r = list(f)
    dg = len(g) - 1
    inv = _inv(g[-1], p)
    quo = [0] * max(0, len(r) - dg)
    for i in range(len(quo) - 1, -1, -1):
        c = r[i + dg] * inv % p if p else r[i + dg] * inv
        if c:
            quo[i] = c
            for j, x in enumerate(g):
                r[i + j] = (r[i + j] - c * x) % p if p else r[i + j] - c * x
    return _trim(quo), _trim(r[:dg])


def _gcd_mod(f: list, g: list, p: int) -> list:
    """Monic gcd over GF(p), or over Q when p = 0; the gcd of 0 and 0 is 0."""
    while g:
        f, g = g, _divmod_mod(f, g, p)[1]
    return _monic(f, p)


def _mulmod_mod(f: list, g: list, m: list, p: int) -> list:
    """f * g reduced modulo a nonzero m over GF(p), or over Q when p = 0."""
    return _divmod_mod(_mul(f, g, p), m, p)[1]


def _powmod_mod(f: list, e: int, m: list, p: int) -> list:
    """f^e reduced modulo a nonzero m over GF(p), or over Q when p = 0, for e >= 0."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    base, out = f, [1] if len(m) > 1 else []
    while e:
        if e & 1:
            out = _mulmod_mod(out, base, m, p)
        base = _mulmod_mod(base, base, m, p)
        e >>= 1
    return out


def _horner(g: list, x):
    """g(x), unreduced: reduce mod p afterwards."""
    out = 0
    for c in reversed(g):
        out = out * x + c
    return out


def _derivative(g: list, p: int) -> list:
    """g' over GF(p), or over Q when p = 0."""
    d = [i * c for i, c in enumerate(g)][1:]
    return _trim([c % p for c in d]) if p else d


def _linear_part_mod(f: list[int], p: int) -> list[int]:
    """gcd(f, t^p - t) for a monic f over GF(p): the product of its distinct linear factors."""
    return _gcd_mod(f, _add(_powmod_mod([0, 1], p, f, p), [0, -1], p), p)


def _roots_mod(g: list[int], p: int) -> list[int]:
    """Distinct roots, ascending, modulo p of an integer polynomial g, monic mod p.

    A scan of all residues when p <= SCAN_LIMIT.  Above it, the roots of
    gcd(g, t^p - t) are split apart by gcd with (t + s)^((p-1)/2) - 1 for
    seeded shifts s.
    """
    if p <= SCAN_LIMIT:
        gp = [c % p for c in reversed(g)]
        out = []
        for x in range(p):
            v = 0
            for c in gp:
                v = (v * x + c) % p
            if v == 0:
                out.append(x)
        return out
    rng = random.Random(0)
    parts, roots = [_linear_part_mod([c % p for c in g], p)], []
    while parts:
        f = parts.pop()
        if len(f) == 2:
            roots.append(-f[0] % p)
        elif len(f) > 2:
            h = _powmod_mod([rng.randrange(p), 1], (p - 1) // 2, f, p)
            d = _gcd_mod(f, _add(h, [-1], p), p)
            parts += [d, _divmod_mod(f, d, p)[0]] if 1 < len(d) < len(f) else [f]
    return sorted(roots)


def _simple_factor_mod(f: list[int], p: int) -> list[int] | None:
    """A monic irreducible factor of multiplicity 1 of the monic f over GF(p), or None.

    With g = gcd(f, f') and r = f / g (the factors whose multiplicity p does
    not divide), u = r / gcd(r, g) is the product of the simple factors.  A
    distinct-degree split of u returns the first degree part that is a single
    factor.  A part of several linear factors gives t - r for its least root
    r when p <= SCAN_LIMIT; any other part of several factors of one degree
    is divided out.
    """
    g = _gcd_mod(f, _derivative(f, p), p)
    r = _divmod_mod(f, g, p)[0]
    u = _divmod_mod(r, _gcd_mod(r, g, p), p)[0]
    h, d = [0, 1], 0  # h = t^(p^d) mod u
    while len(u) > 1:
        d += 1
        if 2 * d > len(u) - 1:
            return u  # every factor of degree below d is gone
        h = _powmod_mod(h, p, u, p)
        part = _gcd_mod(u, _add(h, [0, -1], p), p)
        if len(part) - 1 == d:
            return part
        if d == 1 and len(part) > 2 and p <= SCAN_LIMIT:
            return [-_roots_mod(part, p)[0] % p, 1]
        if len(part) > 1:
            u = _divmod_mod(u, part, p)[0]
            h = _divmod_mod(h, u, p)[1]
    return None


def _integer_roots(g: list[int]) -> list[int]:
    """Distinct integer roots, ascending, of a monic integer polynomial (low degree first).

    Zero roots are pulled off first, and the sieve rejects most of the rest.
    Every other root r has |r| <= B, the Cauchy bound.  The roots of the
    squarefree part h modulo a prime p where h stays squarefree are simple,
    so each lifts uniquely (Hensel) to a root modulo p^k > 2B; the centred
    residues that pass an exact check are the integer roots.
    """
    k = 0
    while g[k] == 0:
        k += 1
    roots = [0] if k else []
    g = g[k:]
    if len(g) == 1 or not all(_roots_mod(g, p) for p in _SIEVE_PRIMES):
        return roots
    h = _squarefree_part(g)
    bound = 1 + max(abs(c) for c in h[:-1])
    p = _separable_prime(h)
    dh = _derivative(h, 0)
    lifted, m = _roots_mod(h, p), p
    while m <= 2 * bound:
        # Newton step: a root mod m becomes the unique root mod m^2 above it.
        lifted = [(r - _horner(h, r) * pow(_horner(dh, r), -1, m)) % (m * m) for r in lifted]
        m *= m
    centred = (r if 2 * r <= m else r - m for r in lifted)
    return sorted(roots + [r for r in centred if _horner(g, r) == 0])


def _roots(g: list[int], p: int) -> list[int]:
    """Distinct roots, ascending, of a monic integer polynomial: modulo p, or in Z when p = 0."""
    return _roots_mod(g, p) if p else _integer_roots(g)


def _squarefree_part(g: list[int]) -> list[int]:
    """g / gcd(g, g') for a monic g, monic over Z by Gauss's lemma."""
    d = _gcd_mod(g, _derivative(g, 0), 0)
    return g if len(d) == 1 else [c.numerator for c in _divmod_mod(g, d, 0)[0]]


def _separable_prime(h: list[int]) -> int:
    """The smallest prime modulo which the squarefree monic h stays squarefree."""
    p = 2
    while True:
        if is_prime(p):
            dh = _derivative(h, p)
            if dh and len(_gcd_mod([c % p for c in h], dh, p)) == 1:
                return p
        p += 1


class Poly:
    """Immutable polynomial over a field; coeffs low degree first, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[Scalar]):
        coeffs = [field.coerce(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (field.zero(), field.one()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _p(self, other: "Poly | None" = None) -> int:
        """The p of the list functions, after checking that other shares the field."""
        if other is not None and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return self.field.cardinality or 0

    def _divisor(self, other: "Poly") -> int:
        p = self._p(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        return p

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.field, _add(self.coeffs, other.coeffs, self._p(other)))

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.field, _mul(self.coeffs, other.coeffs, self._p(other)))

    def scale(self, c: Scalar) -> "Poly":
        return Poly(self.field, _scale(self.coeffs, self.field.coerce(c), self._p()))

    def shift(self, k: int) -> "Poly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return Poly(self.field, (self.field.zero(),) * k + self.coeffs)

    def monic(self) -> "Poly":
        return Poly(self.field, _monic(self.coeffs, self._p()))

    def __divmod__(self, other: "Poly"):
        quo, rem = _divmod_mod(self.coeffs, other.coeffs, self._divisor(other))
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def eval(self, x: Scalar) -> Scalar:
        F = self.field
        return F.coerce(_horner(self.coeffs, F.coerce(x)))

    def derivative(self) -> "Poly":
        return Poly(self.field, _derivative(self.coeffs, self._p()))

    @staticmethod
    def gcd(a: "Poly", b: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        return Poly(a.field, _gcd_mod(a.coeffs, b.coeffs, a._p(b)))

    @staticmethod
    def pow_mod(base: "Poly", e: int, mod: "Poly") -> "Poly":
        """base^e reduced modulo mod."""
        return Poly(base.field, _powmod_mod(base.coeffs, e, mod.coeffs, base._divisor(mod)))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts)
