import random

from matspace import (
    Matrix,
    MatSpace,
    PrimeField,
    Vector,
    eigenvalues_in_field,
    invert,
    irreducible,
    rref,
)
from matspace.errors import Singular
from matspace.gf2 import (
    action_table,
    diagonalizable_table,
    eigenvalue_one_free_table,
    identity_bits,
    invertible,
    irreducible_bits,
    mat_rows,
    mat_vec,
    rank_bits,
    rref_bits,
    unpack_row,
)
from matspace.predicates import HOLDS

from oracles import diagonalizable_oracle, rref_field_ops_oracle

F2 = PrimeField(2)


def pack_rows(rows: list[list[int]], ncols: int) -> list[int]:
    """0/1 rows as int bitsets, bit j = column j."""
    return [sum(1 << j for j in range(ncols) if r[j] & 1) for r in rows]


def to_matrix(m, n):
    return Matrix(F2, [unpack_row(r, n) for r in mat_rows(m, n)])


def test_pack_unpack_roundtrip():
    rows = [[1, 0, 1], [0, 1, 1]]
    packed = pack_rows(rows, 3)
    assert [unpack_row(b, 3) for b in packed] == rows
    assert mat_rows(0b110_011_101, 3) == [0b101, 0b011, 0b110]


def test_rref_bits_matches_generic():
    rng = random.Random(40)
    for _ in range(200):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 6)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        bit_rows, bit_pivots = rref_bits(pack_rows(rows, ncols), ncols)
        gen_rows, gen_pivots = rref_field_ops_oracle(F2, rows)
        assert bit_pivots == gen_pivots
        assert [unpack_row(b, ncols) for b in bit_rows] == gen_rows


def test_matrix_rref_dispatch_is_bit_identical():
    rng = random.Random(41)
    for _ in range(100):
        rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(3)]
        M = Matrix(F2, rows)
        R, rank, pivots = rref(M)
        gen_rows, gen_pivots = rref_field_ops_oracle(F2, rows)
        assert [list(r) for r in R.rows] == gen_rows
        assert pivots == gen_pivots
        assert rank == len(gen_pivots)


def test_mat_vec_matches_generic():
    rng = random.Random(42)
    for n in (2, 3):
        for _ in range(100):
            a = rng.randrange(1 << (n * n))
            v = rng.randrange(1 << n)
            vv = Vector(F2, [(v >> i) & 1 for i in range(n)])
            got = mat_vec(a, v, n)
            want = to_matrix(a, n) * vv
            assert [(got >> i) & 1 for i in range(n)] == list(want.entries)


def test_identity_and_invertibility():
    for n in (2, 3):
        ident = identity_bits(n)
        assert to_matrix(ident, n) == Matrix.identity(F2, n)
        for m in range(1 << (n * n)):
            M = to_matrix(m, n)
            try:
                invert(M)
                inv_ok = True
            except Singular:
                inv_ok = False
            assert invertible(m, n) == inv_ok
            assert rank_bits(mat_rows(m, n), n) == rref(M)[1]


def test_diagonalizable_table_matches_generic_exhaustively():
    # The eigenbasis-search oracle, since the table and is_diagonalizable
    # share `_diagonalizable_rows`.
    for n in (2, 3):
        table = diagonalizable_table(n)
        for m in range(1 << (n * n)):
            assert table[m] == diagonalizable_oracle(to_matrix(m, n))


def test_eigenvalue_one_table_matches_generic_exhaustively():
    for n in (2, 3):
        table = eigenvalue_one_free_table(n)
        for m in range(1 << (n * n)):
            has_one = 1 in eigenvalues_in_field(to_matrix(m, n))
            assert table[m] == (not has_one)


def test_irreducible_bits_matches_predicate():
    rng = random.Random(43)
    for n in (2, 3):
        action = action_table(n)
        for _ in range(60):
            k = rng.randint(0, n * n)
            mats = [rng.randrange(1 << (n * n)) for _ in range(k)]
            space = MatSpace.span([to_matrix(m, n) for m in mats], field=F2, n=n)
            bits_basis = [pack_rows([list(r) for r in [row]], n * n)[0] for row in space.rows]
            got = irreducible_bits(bits_basis, n, action)
            want = irreducible(space).status == HOLDS
            assert got == want
