"""Rational eigenvalues and sampled predicates, computed on integers.

The library finds rational eigenvalues with Berkowitz over the integers and a
sieve + Hensel integer root finder, and tests each projective class of the
seeded members once.  The references in oracles.py are the former Fraction
char poly with trial-division roots and the unskipped sampling loops; every
eigenvalue list, verdict and witness must agree with them.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from matspace import (
    MatSpace,
    Matrix,
    RationalField,
    eigenvalues_in_field,
    invert,
    is_diagonalizable,
    recover,
)
from matspace.errors import Singular
from matspace.fields import is_prime
from matspace.matrices import _integer_roots
from matspace.predicates import (
    FAILS,
    Verdict,
    _samples,
    all_diagonalizable,
    irreducible,
    trivial_spectrum,
)
from matspace.serialize import canonical_json, recovery_report

from oracles import (
    all_diagonalizable_q_oracle,
    diagonalizable_q_oracle,
    eigenvalues_q_oracle,
    irreducible_q_oracle,
    trivial_spectrum_q_oracle,
)

Q = RationalField()
DENOMINATORS = (1, 2, 3, 7)


def companion(low: list) -> Matrix:
    """Companion matrix of the monic t^n + low[n-1] t^(n-1) + ... + low[0]."""
    n = len(low)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = -low[i]
    return Matrix(Q, rows)


def horner(g, x):
    out = 0
    for c in reversed(g):
        out = out * x + c
    return out


def random_rational(rng, lo=-5, hi=5):
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def random_invertible_q(rng, n):
    while True:
        S = Matrix(Q, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            return S, invert(S)
        except Singular:
            continue


# -- the integer root finder ------------------------------------------------------


def test_integer_roots_examples():
    assert _integer_roots([1]) == []
    assert _integer_roots([0, 1]) == [0]
    assert _integer_roots([0, 0, 0, 1]) == [0]
    assert _integer_roots([7, 1]) == [-7]
    assert _integer_roots([-6, 1, 1]) == [-3, 2]  # (t + 3)(t - 2)
    assert _integer_roots([1, 0, 1]) == []  # t^2 + 1
    assert _integer_roots([0, 0, -4, 0, 1]) == [-2, 0, 2]  # t^2 (t^2 - 4)


def test_no_rational_root_although_a_root_mod_every_prime():
    # (t^2 - 2)(t^2 - 3)(t^2 - 6): one of 2, 3, 6 is a square modulo every prime,
    # so the sieve never rejects it and the Hensel step must.
    g = [-36, 0, 36, 0, -11, 0, 1]
    for p in (q for q in range(2, 200) if is_prime(q)):
        assert any(horner(g, x) % p == 0 for x in range(p))
    assert _integer_roots(g) == []
    C = companion(g[:-1])
    assert eigenvalues_in_field(C) == [] == eigenvalues_q_oracle(C)
    assert not is_diagonalizable(C)


def test_repeated_roots_go_through_the_squarefree_part():
    # (t - 1)^2 (t + 2) = t^3 - 3t + 2
    assert _integer_roots([2, -3, 0, 1]) == [-2, 1]
    assert _integer_roots([0, 2, -3, 0, 1]) == [-2, 0, 1]
    rng = random.Random(5)
    S, Sinv = random_invertible_q(rng, 3)
    jordan = Matrix(Q, [[1, 1, 0], [0, 1, 0], [0, 0, -2]])
    for D, diagonalizable in ((jordan, False), (Matrix.diagonal(Q, [1, 1, -2]), True)):
        M = S * D * Sinv
        assert eigenvalues_in_field(M) == [-2, 1] == eigenvalues_q_oracle(M)
        assert is_diagonalizable(M) is diagonalizable is diagonalizable_q_oracle(M)


def test_large_constant_terms():
    # The trial-division reference needs about 3e7 divisions for each of these.
    N = next(x for x in range(10**15, 10**15 + 1000) if is_prime(x))
    assert _integer_roots([-N, 0, 1]) == []
    assert eigenvalues_in_field(companion([-N, 0])) == []
    p = next(x for x in range(3 * 10**7, 3 * 10**7 + 1000) if is_prime(x))
    assert _integer_roots([-p * p, 0, 1]) == [-p, p]
    assert _integer_roots([p * (p + 1), -(2 * p + 1), 1]) == [p, p + 1]
    # Rational eigenvalues with a large numerator: M = companion / 7.
    M = companion([-p * p, 0]) * Fraction(1, 7)
    assert eigenvalues_in_field(M) == [Fraction(-p, 7), Fraction(p, 7)]
    assert is_diagonalizable(M)


# -- eigenvalues and diagonalizability against the reference ---------------------


def test_eigenvalues_match_the_reference_on_random_matrices():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 4)
        M = Matrix(Q, [[random_rational(rng) for _ in range(n)] for _ in range(n)])
        assert eigenvalues_in_field(M) == eigenvalues_q_oracle(M)
        assert is_diagonalizable(M) == diagonalizable_q_oracle(M)


def test_conjugated_diagonals_with_repeated_and_zero_eigenvalues():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        pool = [Fraction(0)] + [random_rational(rng, -4, 4) for _ in range(2)]
        d = [rng.choice(pool) for _ in range(n)]
        S, Sinv = random_invertible_q(rng, n)
        M = S * Matrix.diagonal(Q, d) * Sinv
        assert eigenvalues_in_field(M) == sorted(set(d)) == eigenvalues_q_oracle(M)
        assert is_diagonalizable(M) and diagonalizable_q_oracle(M)
        if n >= 2 and d[0] == d[1]:
            # A Jordan block on the repeated value is not diagonalizable.
            J = S * (Matrix.diagonal(Q, d) + Matrix.unit(Q, n, 0, 1)) * Sinv
            assert eigenvalues_in_field(J) == sorted(set(d))
            assert not is_diagonalizable(J) and not diagonalizable_q_oracle(J)


def jordan(lam, k) -> list:
    return [[lam if j == i else int(j == i + 1) for j in range(k)] for i in range(k)]


def block_diagonal(*blocks) -> Matrix:
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, r in enumerate(b):
            rows[at + i][at : at + len(r)] = r
        at += len(b)
    return Matrix(Q, rows)


def test_is_diagonalizable_on_structured_matrices_matches_the_min_poly_reference():
    # Integer-root product test against the min_poly / Poly gcd reference.
    half, third = Fraction(1, 2), Fraction(-1, 3)
    two = [[0, 2], [1, 0]]  # companion of t^2 - 2
    cases = [
        (block_diagonal([[0]]), True),
        (block_diagonal([[Fraction(5, 7)]]), True),
        (block_diagonal(jordan(0, 2)), False),
        (block_diagonal(jordan(half, 3)), False),
        (block_diagonal(jordan(1, 2), [[1]]), False),
        (block_diagonal(jordan(third, 2), [[2]], [[third]]), False),
        (block_diagonal(two), False),
        (block_diagonal(two, [[0]]), False),
        (block_diagonal(two, [[Fraction(1, 7)]], [[Fraction(1, 7)]]), False),
        (block_diagonal([[2]], [[2]], [[0]], [[0]]), True),
        (block_diagonal([[half]], [[half]], [[-3]]), True),
        (block_diagonal([[0]], [[0]], [[0]]), True),
        (block_diagonal(jordan(0, 4)), False),
    ]
    rng = random.Random(29)
    for D, want in cases:
        n = D.nrows
        S, Sinv = random_invertible_q(rng, n)
        for M in (D, S * D * Sinv, S * D * Sinv * Fraction(1, 3)):
            assert is_diagonalizable(M) is want is diagonalizable_q_oracle(M), M


# -- the sampler and the sampled predicates -------------------------------------------


def reference_samples(dim, seed, count, with_basis=True):
    """Every coefficient vector the unskipped loops test, first-of-class filtered."""
    rng = random.Random(seed)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)] if with_basis else []
    draws = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(count)]
    seen, out = set(), []
    for c in units + draws:
        lead = next((x for x in c if x), 0)
        if lead == 0:
            continue
        cls = tuple(Fraction(x, lead) for x in c)
        if cls not in seen:
            seen.add(cls)
            out.append(c)
    return out


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("with_basis", [True, False])
def test_sampler_draws_like_the_reference_and_skips_repeats(dim, with_basis):
    for seed in (0, 1, 7):
        got = list(_samples(dim, seed, 300, with_basis))
        assert got == reference_samples(dim, seed, 300, with_basis)
    if dim == 1:
        # Every member of a line is a multiple of its basis matrix.
        assert len(got) == 1


def random_q_space(rng, n, dim):
    mats = [
        Matrix(Q, [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3))) for _ in range(n)] for _ in range(n)])
        for _ in range(dim)
    ]
    return MatSpace.span(mats, field=Q, n=n)


def parity_spaces():
    rng = random.Random(31)
    spaces = [
        MatSpace.standard("strict_upper", 3, Q),
        MatSpace.standard("alt", 3, Q),
        MatSpace.standard("alt", 2, Q),
        MatSpace.standard("diagonal", 2, Q),
        MatSpace.span([Matrix(Q, [[0, 1], [2, 1]])]),  # a line with eigenvalues -1, 2
        MatSpace.zero(Q, 2),
    ]
    while len(spaces) < 40:
        n = rng.choice((1, 2, 2, 2, 3))
        spaces.append(random_q_space(rng, n, rng.randint(1, min(3, n * n))))
    return spaces


@pytest.mark.parametrize(
    "predicate,reference",
    [
        (trivial_spectrum, trivial_spectrum_q_oracle),
        (irreducible, irreducible_q_oracle),
        (all_diagonalizable, all_diagonalizable_q_oracle),
    ],
    ids=["trivial_spectrum", "irreducible", "all_diagonalizable"],
)
def test_sampled_predicates_match_the_unskipped_reference(predicate, reference):
    statuses = set()
    for i, V in enumerate(parity_spaces()):
        got, want = predicate(V, seed=i % 3), reference(V, seed=i % 3)
        assert got == want, V.rows
        statuses.add(got.status)
    assert statuses == {FAILS, "unknown"}


# Seven generators of a 7-dimensional space of Mat_3(Q) whose canonical basis
# has denominators up to 10^7: the lcm L is 4,528,425, and the integer
# members L*M of the sample have char polys with constant terms up to about
# 2e24.  The first basis member already has the nonzero eigenvalue below,
# and the trial-division reference finds the same pair.
BIG_GENERATORS = (
    (("-1", "-1", "-1/3"), ("1/2", "0", "-1"), ("-1/3", "1/2", "1")),
    (("1/2", "3/2", "1"), ("-2", "3/2", "-2/3"), ("3/2", "-3/2", "2")),
    (("1", "1/2", "1"), ("-2", "2/3", "-1/3"), ("0", "3", "-2/3")),
    (("1", "1", "-3"), ("1", "-1", "1/2"), ("-3/2", "-2/3", "-1")),
    (("-1", "-3/2", "0"), ("0", "-1/3", "1"), ("-3/2", "-3/2", "-1/2")),
    (("-1/2", "-1", "-2"), ("-1/3", "-3", "-1/2"), ("0", "-2/3", "2/3")),
    (("-2/3", "2", "-2"), ("2", "-1/3", "3/2"), ("-1/2", "2", "-1/3")),
)
BIG_WITNESS = (
    (("1", "0", "0"), ("0", "0", "0"), ("0", "-504919/301895", "-986059/1509475")),
    "-986059/1509475",
)


def test_large_denominator_space_keeps_the_reference_witness():
    V = MatSpace.span([Matrix(Q, [[Fraction(x) for x in r] for r in M]) for M in BIG_GENERATORS])
    assert V.dim == 7
    rows, lam = BIG_WITNESS
    expected = (Matrix(Q, [[Fraction(x) for x in r] for r in rows]), Fraction(lam))
    assert trivial_spectrum(V) == trivial_spectrum_q_oracle(V) == Verdict.fails(expected)
    # No sampled member of the complement has a rational eigenvalue, and their
    # constant terms are so large that trial division takes more than 30 s.
    assert trivial_spectrum(V.orth()).status == "unknown"


# -- frozen recovery reports ---------------------------------------------------------

FROZEN_Q_RECOVERY = {
    "conj2a": "b166a180ff8ec97ffbdfdcc6400648bcd92a9fcb85659042cddcea6d1f5298a4",
    "conj2b": "2e58e3d6f54cd98c180e31de88b61b3b1af9cb3735164103222672c4c813ad10",
    "conj3": "3c7f6d1c7f645070b47c3c8becb85a5ac652aee18ae4b8b67f2c9fab130afcd2",
    # Indefinite symmetrizers: non_isotropic finds a small isotropic vector.
    "indef2": "51e198ab2e4422a7e747905dc188f07d8e584c2b9d492317f3bec03afc336c61",
    "indef3": "594cdfef12b0561514ee84b3b6390956f6f827b2b820512b9b55738ea56920b3",
    "orth_eig": "06a44a62d0ff1bd25c6614d73619b73699327b1441c3ae85e432caea30e25481",
}


def frozen_q_input(name):
    sym = lambda n: MatSpace.standard("sym", n, Q)  # noqa: E731
    if name == "conj2a":
        return sym(2).conjugate(Matrix(Q, [[1, -1], [1, 0]]))
    if name == "conj2b":
        return sym(2).conjugate(Matrix(Q, [[0, 1], [1, 1]]))
    if name == "conj3":
        return sym(3).conjugate(Matrix(Q, [[1, 0, -1], [1, 1, 0], [0, -1, 1]]))
    if name.startswith("indef"):  # Sym_n * P^-1 with P = diag(1, -1) or diag(1, 2, -3)
        P = Matrix.diagonal(Q, [1, -1] if name == "indef2" else [1, 2, -3])
        return sym(P.nrows).transform(invert(P), "right")
    # V-perp is spanned by a matrix with eigenvalues -1 and 2.
    return MatSpace.span([Matrix(Q, [[0, 1], [2, 1]])]).orth()


@pytest.mark.parametrize("name", sorted(FROZEN_Q_RECOVERY))
def test_q_recovery_report_bytes(name):
    text = canonical_json(recovery_report(recover(frozen_q_input(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_Q_RECOVERY[name]
