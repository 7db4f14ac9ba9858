"""Exact arithmetic for prime fields GF(p) and the rationals.

Scalars are plain values: canonical residues (``int`` in ``[0, p)``) for a
prime field, ``fractions.Fraction`` for the rationals.  A ``Field`` object
supplies the arithmetic, square-class utilities and (de)serialization for its
scalars.  Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterator, Union

from .errors import DivisionByZero, InfiniteField, InvalidInput, NotPrime, Unsupported

Scalar = Union[int, Fraction]

MAX_PRIME = 2**31

# Witnesses for a deterministic Miller-Rabin test, valid far beyond 2^31.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for word-size integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the supported ground fields."""

    kind: str
    characteristic: int
    cardinality: int | None  # None means infinite

    @property
    def is_finite(self) -> bool:
        return self.cardinality is not None

    def zero(self) -> Scalar:
        raise NotImplementedError

    def one(self) -> Scalar:
        raise NotImplementedError

    def coerce(self, x) -> Scalar:
        raise NotImplementedError

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_square(self, x: Scalar) -> bool:
        raise NotImplementedError

    def sqrt(self, x: Scalar) -> Scalar | None:
        raise NotImplementedError

    def elements(self) -> Iterator[Scalar]:
        """Yield every field element once, in canonical order (finite fields only)."""
        raise InfiniteField(f"{self} is infinite")

    def scalar_to_json(self, x: Scalar):
        raise NotImplementedError

    def scalar_from_json(self, obj) -> Scalar:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class PrimeField(Field):
    """GF(p) with scalars held as canonical residues in [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < MAX_PRIME:
            raise Unsupported(f"prime must satisfy 2 <= p < 2^31, got {p!r}")
        if not is_prime(p):
            raise NotPrime(p)
        self.p = p
        self.characteristic = p
        self.cardinality = p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            raise InvalidInput(f"cannot coerce {x!r} into GF({self.p})")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return pow(a, -1, self.p)

    def is_square(self, x) -> bool:
        x %= self.p
        if self.p == 2 or x == 0:
            return True
        return pow(x, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, x) -> int | None:
        """Modular square root, or None.

        Tonelli-Shanks for odd p; the returned root is always the smaller
        residue of the pair {r, p - r} so output is reproducible.
        """
        p = self.p
        x %= p
        if x == 0 or p == 2:
            return x
        if pow(x, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            r = pow(x, (p + 1) // 4, p)
            return min(r, p - r)
        # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(x, (q + 1) // 2, p)
        t = pow(x, q, p)
        m = s
        while t != 1:
            t2i = t
            i = 0
            for i in range(1, m):
                t2i = t2i * t2i % p
                if t2i == 1:
                    break
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
        return min(r, p - r)

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def scalar_to_json(self, x):
        return x % self.p

    def scalar_from_json(self, obj) -> int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise InvalidInput(f"GF({self.p}) scalar must be an integer, got {obj!r}")
        return obj % self.p

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField(Field):
    """The rational numbers, with scalars held as reduced Fractions."""

    kind = "rational"
    characteristic = 0
    cardinality = None

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, bool):
            raise InvalidInput(f"cannot coerce {x!r} into Q")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return self.scalar_from_json(x)
        raise InvalidInput(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in Q")
        return 1 / Fraction(a)

    def is_square(self, x) -> bool:
        x = Fraction(x)
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def sqrt(self, x) -> Fraction | None:
        """Non-negative rational square root, or None."""
        x = Fraction(x)
        if not self.is_square(x):
            return None
        return Fraction(isqrt(x.numerator), isqrt(x.denominator))

    def scalar_to_json(self, x):
        x = Fraction(x)
        return f"{x.numerator}/{x.denominator}"

    def scalar_from_json(self, obj) -> Fraction:
        if isinstance(obj, bool):
            raise InvalidInput(f"rational scalar must be an integer or 'a/b', got {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidInput(f"bad rational scalar {obj!r}") from exc
        raise InvalidInput(f"rational scalar must be an integer or 'a/b', got {obj!r}")

    def to_json(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Q"


def make_field(spec) -> Field:
    """Build a Field from a descriptor.

    Accepts the JSON form {"kind": "prime", "p": 7} / {"kind": "rational"},
    the CLI strings "gf7" / "rational", or "prime 7".
    """
    if isinstance(spec, Field):
        return spec
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "prime":
            if "p" not in spec:
                raise InvalidInput("prime field descriptor needs 'p'")
            return PrimeField(spec["p"])
        if kind == "rational":
            return RationalField()
        raise InvalidInput(f"unknown field kind {kind!r}")
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s in ("rational", "q"):
            return RationalField()
        if s.startswith("gf"):
            body = s[2:].lstrip("(").rstrip(")")
        elif s.startswith("prime"):
            body = s[len("prime"):].strip()
        else:
            raise InvalidInput(f"unknown field spec {spec!r}")
        try:
            p = int(body)
        except ValueError as exc:
            raise InvalidInput(f"bad prime in field spec {spec!r}") from exc
        return PrimeField(p)
    raise InvalidInput(f"unknown field spec {spec!r}")
