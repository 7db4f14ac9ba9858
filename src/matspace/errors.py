"""Exception types shared across the toolkit."""

from __future__ import annotations


class MatSpaceError(Exception):
    """Base class for all library errors."""


class NotPrime(MatSpaceError):
    def __init__(self, p: int):
        super().__init__(f"{p} is not prime")
        self.p = p


class Unsupported(MatSpaceError):
    """Field descriptor outside the supported range."""


class DivisionByZero(MatSpaceError, ZeroDivisionError):
    pass


class FieldMismatch(MatSpaceError):
    pass


class InfiniteField(MatSpaceError):
    """An exhaustive operation was asked of an infinite field."""


class ShapeMismatch(MatSpaceError):
    pass


class Singular(MatSpaceError):
    """Matrix inversion (or conjugation) with a non-invertible matrix."""


class ZeroVector(MatSpaceError):
    pass


def _count(x: int) -> str:
    """x in decimal, or by its bit length when it is too long for str() (4,300 digits)."""
    return str(x) if x.bit_length() <= 13_000 else f"a {x.bit_length()}-bit number of"


class BudgetExceeded(MatSpaceError):
    def __init__(self, required: int, budget: int):
        super().__init__(f"{_count(required)} element-tests exceed budget {budget}")
        self.required = required
        self.budget = budget


class CapExceeded(MatSpaceError):
    """`total` is the subspace count, or None when the run was refused on
    the lower bound 2^bound_log2 alone, before the count was computed."""

    def __init__(self, total: int | None, cap: int, hint: str = "", bound_log2: int = 0):
        count = f"at least 2^{bound_log2}" if total is None else _count(total)
        msg = f"{count} subspaces exceed cap {cap}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)
        self.total = total
        self.cap = cap


class NoInvertibleSolution(MatSpaceError):
    """The symmetrizer solution space holds no invertible element.

    ``exhaustive`` is True when the whole space was searched (finite field)
    and False when only a bounded search ran (rationals).
    """

    def __init__(self, msg: str, exhaustive: bool):
        super().__init__(msg)
        self.exhaustive = exhaustive


class NotSymmetric(MatSpaceError):
    pass


class Char2AlternatingResidual(MatSpaceError):
    """Congruence diagonalization stalled on a zero-diagonal block in characteristic 2."""


class SquareClassNotViolated(MatSpaceError):
    """Witness construction was asked for a diagonal ratio that is a square."""


class ZeroDiagonalEntry(MatSpaceError):
    def __init__(self, index: int):
        super().__init__(f"diagonal entry {index} is zero")
        self.index = index


class InvalidInput(MatSpaceError):
    """Malformed JSON input or inconsistent CLI flags."""


def checked_int(name: str, value, least: int | None = 0) -> int:
    """value if it is an int, not a bool, and at least `least` (None: any int); else InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise InvalidInput(f"{name} must be an integer{bound}, got {value!r}")
    return value
