"""GF(2) linear algebra on int bitsets.

Rows are Python ints with bit j = column j.  Whole n x n matrices are packed
row-major into a single n*n-bit int for the census hot loop.  Results must be
bit-identical to the generic elimination path; the test suite compares them.
The diagonalizability table is the one test `_diagonalizable_rows` of
`matrices`, run once on every unpacked matrix.
"""

from __future__ import annotations

from functools import lru_cache

from .matrices import _diagonalizable_rows


def unpack_row(bits: int, ncols: int) -> list[int]:
    return [(bits >> j) & 1 for j in range(ncols)]


def rref_bits(rows: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    work = list(rows)
    m = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        mask = 1 << c
        pivot = None
        for i in range(r, m):
            if work[i] & mask:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        for i in range(m):
            if i != r and (work[i] & mask):
                work[i] ^= prow
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, pivots


def rank_bits(rows: list[int], ncols: int) -> int:
    return len(rref_bits(rows, ncols)[1])


# -- packed n x n matrices ----------------------------------------------------


def mat_rows(m: int, n: int) -> list[int]:
    """Split a packed matrix into n row bitsets of n bits."""
    mask = (1 << n) - 1
    return [(m >> (n * i)) & mask for i in range(n)]


def identity_bits(n: int) -> int:
    out = 0
    for i in range(n):
        out |= 1 << (n * i + i)
    return out


def mat_vec(m: int, v: int, n: int) -> int:
    """Packed matrix times n-bit column vector."""
    out = 0
    mask = (1 << n) - 1
    for i in range(n):
        row = (m >> (n * i)) & mask
        if bin(row & v).count("1") & 1:
            out |= 1 << i
    return out


def invertible(m: int, n: int) -> bool:
    return rank_bits(mat_rows(m, n), n) == n


@lru_cache(maxsize=None)
def diagonalizable_table(n: int) -> tuple[bool, ...]:
    """diagonalizable over GF(2) <=> M^2 = M (minimal polynomial divides t^2 + t)."""
    return tuple(
        _diagonalizable_rows([unpack_row(r, n) for r in mat_rows(m, n)], 2) for m in range(1 << (n * n))
    )


@lru_cache(maxsize=None)
def eigenvalue_one_free_table(n: int) -> tuple[bool, ...]:
    """True when 1 is not an eigenvalue, i.e. M + I is invertible."""
    ident = identity_bits(n)
    return tuple(invertible(m ^ ident, n) for m in range(1 << (n * n)))


@lru_cache(maxsize=None)
def action_table(n: int) -> tuple[tuple[int, ...], ...]:
    """action_table(n)[m][v] = M*v for every packed matrix m and n-bit vector v."""
    return tuple(
        tuple(mat_vec(m, v, n) for v in range(1 << n)) for m in range(1 << (n * n))
    )


def span_insert(span_mask: int, v: int) -> int:
    """Extend an XOR-closed membership mask of F_2^n by the vector v."""
    if span_mask & (1 << v):
        return span_mask
    out = span_mask
    rest = span_mask
    u = 0
    while rest:
        if rest & 1:
            out |= 1 << (u ^ v)
        rest >>= 1
        u += 1
    return out


def irreducible_bits(basis: list[int], n: int, action) -> bool:
    """Exhaustive spinning over the nonzero vectors of F_2^n."""
    full = (1 << (1 << n)) - 1
    for start in range(1, 1 << n):
        span = span_insert(1, start)  # {0, start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for m in basis:
                w = action[m][v]
                if not span & (1 << w):
                    span = span_insert(span, w)
                    frontier.append(w)
            if span == full:
                break
        if span != full:
            return False
    return True
