"""Seeded benchmark inputs, built only with matspace's public constructors.

Recovery inputs come in blocks.  A block fixes how many inputs of each
(field, n, kind) class it holds; the seed picks the matrices and the order
inside the block.  A run measures a whole number of blocks, so its class mix
is fixed and the latency percentiles land in the same class on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from matspace import (
    MatSpace,
    Matrix,
    PrimeField,
    RationalField,
    Singular,
    invert,
)

CONJUGATE = "conjugate"  # S * Sym_n * S^-1: recovery must succeed
OBSTRUCTED = "obstructed"  # Sym_n * P^-1, disc(P) non-square, n even: square-class failure
RANDOM = "random"  # random span of dimension n(n+1)/2: any status

# recover-fp, one block of 25.  Sorted by latency the slots fall in three
# groups: 8 inputs of about 1 ms or less; 8 GF(7), n = 2 conjugates (a
# narrow class, quartiles within 10 %) in the 32-64 % slots, so that one
# class holds the median with a margin on both sides; and 9 slower ones.
# Three GF(101), n = 3 conjugates per block (about 1 s each, mostly spent
# spinning, also a narrow class) give a 6-block run 18 samples of one class
# around the tail percentile (the 11th slowest input).
FP_BLOCK = (
    (3, 2, CONJUGATE),
    (3, 2, CONJUGATE),
    (3, 2, OBSTRUCTED),
    (3, 2, OBSTRUCTED),
    (3, 2, RANDOM),
    (7, 2, OBSTRUCTED),
    (7, 2, RANDOM),
    (7, 2, RANDOM),
) + ((7, 2, CONJUGATE),) * 8 + (
    (3, 3, CONJUGATE),
    (7, 3, RANDOM),
    (3, 4, OBSTRUCTED),
    (101, 2, CONJUGATE),
    (101, 2, OBSTRUCTED),
    (7, 4, CONJUGATE),
) + ((101, 3, CONJUGATE),) * 3

# recover-q, one block of 10: nine n = 2 inputs (about 0.3 s each, a narrow
# class) hold both the median and the tail; one n = 3 input (about 1 s)
# keeps that path busy.
# `None` stands for the rationals.
Q_BLOCK = ((None, 2, CONJUGATE),) * 9 + ((None, 3, CONJUGATE),)

Q_ENTRY_RANGE = (-1, 1)


@dataclass(frozen=True)
class RecoverInput:
    kind: str
    space: MatSpace
    P: Matrix | None = None  # the obstructing symmetrizer of an OBSTRUCTED input


def random_invertible(F, n: int, rng: random.Random, lo: int, hi: int) -> Matrix:
    while True:
        S = Matrix(F, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        try:
            invert(S)
        except Singular:
            continue
        return S


def smallest_non_square(F: PrimeField) -> int:
    return next(x for x in range(2, F.p) if not F.is_square(x))


def make_input(p: int | None, n: int, kind: str, rng: random.Random) -> RecoverInput:
    F = RationalField() if p is None else PrimeField(p)
    lo, hi = Q_ENTRY_RANGE if p is None else (0, p - 1)
    sym = MatSpace.standard("sym", n, F)
    if kind == CONJUGATE:
        return RecoverInput(kind, sym.conjugate(random_invertible(F, n, rng, lo, hi)))
    if kind == OBSTRUCTED:
        if p is None or n % 2:
            raise ValueError("obstructed inputs need a prime field and even n")
        T = random_invertible(F, n, rng, lo, hi)
        P = T * Matrix.diagonal(F, [1] * (n - 1) + [smallest_non_square(F)]) * T.transpose()
        return RecoverInput(kind, sym.transform(invert(P), "right"), P)
    dim = n * (n + 1) // 2
    while True:
        mats = [
            Matrix(F, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
            for _ in range(dim)
        ]
        V = MatSpace.span(mats)
        if V.dim == dim:
            return RecoverInput(kind, V)


def recover_blocks(template, seed: int) -> Iterator[list[RecoverInput]]:
    """Endless stream of shuffled blocks; the same seed yields the same stream."""
    rng = random.Random(seed)
    while True:
        slots = list(template)
        rng.shuffle(slots)
        yield [make_input(p, n, kind, rng) for p, n, kind in slots]


@dataclass(frozen=True)
class CensusJob:
    n: int
    q: int
    d: int
    predicates: tuple[str, ...]
    engine: str
    total: int  # frozen: Gaussian binomial [n^2 choose d]_q
    counts: tuple[int, ...]  # frozen: survivors after each predicate in the chain

    @property
    def spec(self) -> tuple:
        """The job apart from the engine that runs it."""
        return (self.n, self.q, self.d, self.predicates)


# Frozen counts the seed code already reproduces.  The (3,2,1) pair is the
# cross-engine parity job: generic and bits must agree subspace for subspace.
CENSUS_JOBS = (
    CensusJob(3, 2, 6, ("diag",), "bits", 788_035, (0,)),
    CensusJob(3, 2, 4, ("trivspec", "irred"), "bits", 3_309_747, (0, 0)),
    CensusJob(3, 2, 3, ("trivspec", "irred"), "bits", 788_035, (273, 224)),
    CensusJob(3, 2, 2, ("diag",), "bits", 43_435, (140,)),
    CensusJob(3, 2, 1, ("diag",), "bits", 511, (57,)),
    CensusJob(3, 3, 1, ("diag",), "generic", 9_841, (1054,)),
    CensusJob(3, 3, 1, ("trivspec", "irred"), "generic", 9_841, (3145, 1728)),
    CensusJob(3, 2, 1, ("diag",), "generic", 511, (57,)),
)

CENSUS_WORKERS = (1, 2)
