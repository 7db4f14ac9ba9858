import hashlib
import random
import time
from fractions import Fraction

import pytest

from matspace import (
    Matrix,
    MatSpace,
    Poly,
    PrimeField,
    RationalField,
    block_decompose,
    char_poly,
    congruence_diagonalize,
    invert,
    is_diagonalizable,
    min_poly,
    nondiag_witness,
    recover,
    solve_symmetrizer,
    square_class_normalize,
)
from matspace import recovery
from matspace.errors import (
    BudgetExceeded,
    Char2AlternatingResidual,
    InvalidInput,
    NoInvertibleSolution,
    NotSymmetric,
    SquareClassNotViolated,
    ZeroDiagonalEntry,
)
from matspace.predicates import FAILS, HOLDS, UNKNOWN
from matspace.recovery import FAILURE, PARTIAL, SUCCESS
from matspace.serialize import analyze_result, canonical_json, recovery_report

from oracles import invertible_pick_oracle, random_invertible, random_space

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)
Q = RationalField()


def sym(n, field):
    return MatSpace.standard("sym", n, field)


# -- solve_symmetrizer ---------------------------------------------------------


def test_symmetrizer_identity_instance():
    space, P = solve_symmetrizer(sym(2, F7))
    assert space == MatSpace.standard("scalar", 2, F7)
    assert P == Matrix.identity(F7, 2)


def test_symmetrizer_scaled_instance():
    P0 = Matrix(F7, [[5, 2], [2, 1]])
    V = sym(2, F7).transform(invert(P0), "right")
    space, P = solve_symmetrizer(V)
    assert space == MatSpace.span([P0])
    # chosen P is a scalar multiple of P0
    coords = space.coordinates(P)
    assert coords is not None and P.rows != Matrix.zero(F7, 2).rows
    assert V.transform(P, "right") == sym(2, F7)


def test_symmetrizer_full_space_has_none():
    with pytest.raises(NoInvertibleSolution) as info:
        solve_symmetrizer(MatSpace.standard("full", 2, F3))
    assert info.value.exhaustive


def test_symmetrizer_condition_is_linear():
    rng = random.Random(30)
    for _ in range(5):
        S0 = random_invertible(F7, 3, rng)
        V = sym(3, F7).conjugate(S0)
        space, P = solve_symmetrizer(V)
        assert space.dim == 1
        for M in V.basis():
            assert (M * P).is_symmetric


def test_symmetrizer_pick_matches_the_full_scan():
    # The pick tries one member per projective class; it must return the
    # basis member or the first member of the scan over every member.
    rng = random.Random(31)
    scanned = 0
    for field in (F2, F3, PrimeField(5), F7):
        for n in (2, 3):
            for _ in range(12):
                V = random_space(field, n, rng, rng.randint(0, n))
                if rng.random() < 0.5:
                    V = V + MatSpace.standard("diagonal", n, field).conjugate(random_invertible(field, n, rng))
                space = V.multipliers(sym(n, field), "right")
                if space.dim == 0 or field.p**space.dim > 5000:
                    continue
                expected = invertible_pick_oracle(space)
                if expected is None:
                    with pytest.raises(NoInvertibleSolution):
                        solve_symmetrizer(V)
                else:
                    assert solve_symmetrizer(V) == (space, expected)
                    scanned += expected not in space.basis()
    assert scanned >= 10


def test_symmetrizer_rational_integer_combination_frozen():
    # Both canonical basis members E11 and E22 of the solution space are
    # singular, so the pick comes from the integer combinations; the first
    # invertible one in [-3, 3]^2 order is -3*E11 - 3*E22.
    diagonal = MatSpace.standard("diagonal", 2, Q)
    space, P = solve_symmetrizer(diagonal)
    assert space == diagonal
    assert P.rows == ((Fraction(-3), Fraction(0)), (Fraction(0), Fraction(-3)))


# -- congruence_diagonalize ------------------------------------------------------


def test_congruence_examples():
    P = Matrix(Q, [[5, 2], [2, 1]])
    Qm, D = congruence_diagonalize(P)
    assert Qm == Matrix(Q, [[1, 0], [Fraction(-2, 5), 1]])
    assert D == Matrix.diagonal(Q, [5, Fraction(1, 5)])

    P2 = Matrix.diagonal(F7, [3, 1, 4])
    Qm2, D2 = congruence_diagonalize(P2)
    assert Qm2 == Matrix.identity(F7, 3)
    assert D2 == P2

    P3 = Matrix(F3, [[1, 1], [1, 0]])
    Qm3, D3 = congruence_diagonalize(P3)
    assert Qm3 == Matrix(F3, [[1, 0], [2, 1]])
    assert D3 == Matrix.diagonal(F3, [1, 2])


def test_congruence_exactness_random():
    rng = random.Random(31)
    for field in (F3, F7, Q):
        for _ in range(10):
            A = random_invertible(field, 3, rng)
            P = A * A.transpose()
            Qm, D = congruence_diagonalize(P)
            assert Qm * P * Qm.transpose() == D
            assert all(
                D.rows[i][j] == 0 for i in range(3) for j in range(3) if i != j
            )


def test_congruence_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        congruence_diagonalize(Matrix(F3, [[0, 1], [2, 0]]))


def test_congruence_char2_zero_diagonal_repair_and_failure():
    # repairable in odd characteristic
    P = Matrix(F3, [[0, 1], [1, 0]])
    Qm, D = congruence_diagonalize(P)
    assert Qm * P * Qm.transpose() == D
    # not repairable over GF(2)
    with pytest.raises(Char2AlternatingResidual):
        congruence_diagonalize(Matrix(F2, [[0, 1], [1, 0]]))


# -- square_class_normalize -------------------------------------------------------


def test_normalize_examples():
    res = square_class_normalize(Matrix.diagonal(Q, [5, Fraction(1, 5)]))
    assert res.ok
    assert res.scales == [Fraction(1), Fraction(5)]
    assert res.c == 5

    res2 = square_class_normalize(Matrix.diagonal(F3, [1, 2]))
    assert not res2.ok
    assert res2.offending_index == 1  # 0-based: the second entry

    res3 = square_class_normalize(Matrix.diagonal(F7, [4, 4, 4]))
    assert res3.ok and res3.scales == [1, 1, 1] and res3.c == 4

    with pytest.raises(ZeroDiagonalEntry):
        square_class_normalize(Matrix.diagonal(F7, [1, 0]))


def test_normalize_scaling_identity():
    rng = random.Random(32)
    for field in (F7, Q):
        for _ in range(10):
            A = random_invertible(field, 3, rng)
            _, D = congruence_diagonalize(A * A.transpose())
            res = square_class_normalize(D)
            if res.ok:
                mu = Matrix.diagonal(field, res.scales)
                assert mu * D * mu == Matrix.identity(field, 3) * res.c


# -- nondiag_witness ---------------------------------------------------------------


def test_nondiag_witness_examples():
    M = nondiag_witness(Matrix.diagonal(F3, [1, 2]), 1)
    assert M == Matrix(F3, [[0, 2], [1, 0]])
    assert char_poly(M) == Poly(F3, [1, 0, 1])  # t^2 - 2 = t^2 + 1
    assert not is_diagonalizable(M)

    M2 = nondiag_witness(Matrix.diagonal(F7, [1, 1, 3]), 2)
    assert char_poly(M2) == Poly(F7, [0, 2, 0, 1])  # t(t^2 - 5)
    assert not is_diagonalizable(M2)

    with pytest.raises(SquareClassNotViolated):
        nondiag_witness(Matrix.diagonal(F7, [1, 4]), 1)  # 4^-1 = 2 = 3^2


def test_nondiag_witness_min_poly_has_irreducible_quadratic():
    M = nondiag_witness(Matrix.diagonal(F7, [1, 1, 3]), 2)
    m = min_poly(M)
    quad = Poly(F7, [2, 0, 1])  # t^2 - 5
    assert (m % quad).is_zero


# -- block_decompose -----------------------------------------------------------------


def test_block_decompose_sym2():
    bm = block_decompose(sym(2, F7))
    assert bm.dim_CV == 1
    assert bm.dim_W == 2
    assert bm.space.dim == bm.dim_CV + bm.dim_W
    assert bm.corner_kernel.dim == 0


def test_block_decompose_diagonal_space():
    V = MatSpace.standard("diagonal", 3, F7)
    bm = block_decompose(V)
    assert bm.C.is_zero
    assert bm.W == V
    assert bm.dim_CV == 0


def test_block_reassembly_and_rank_identity():
    rng = random.Random(33)
    for field in (F2, F3, F7, Q):
        for _ in range(10):
            V = random_space(field, 3, rng)
            bm = block_decompose(V)
            assert V.dim == bm.dim_CV + bm.dim_W
            for M in V.basis():
                top = [bm.corner_of(M)] + bm.row_of(M)
                rebuilt = Matrix(
                    field,
                    [top]
                    + [
                        [bm.column_of(M)[i - 1]] + list(bm.block_of(M).rows[i - 1])
                        for i in range(1, 3)
                    ],
                )
                assert rebuilt == M


def test_block_decompose_subspaces_match_intersections():
    # W keeps the members of V with a zero first column below the corner, the
    # corner kernel those that are zero outside the first row's off-corner
    # entries; both are computed here as intersections with coordinate spaces.
    def units(field, n, cells):
        return MatSpace.span([Matrix.unit(field, n, i, j) for i, j in cells], field, n)

    rng = random.Random(35)
    for field in (F2, F7, Q):
        for _ in range(15):
            n = rng.choice((2, 3))
            V = random_space(field, n, rng)
            bm = block_decompose(V)
            cells = [(i, j) for i in range(n) for j in range(n)]
            assert bm.W == V & units(field, n, [(i, j) for i, j in cells if j or not i])
            assert bm.corner_kernel == V & units(field, n, [(0, j) for j in range(1, n)])
            lower = MatSpace.span([bm.block_of(M) for M in bm.W.basis()], field, n - 1)
            assert bm.dim_KW == lower.dim


def test_corner_kernel_squares_to_zero():
    rng = random.Random(34)
    for field in (F3, F7):
        for _ in range(10):
            V = random_space(field, 3, rng)
            bm = block_decompose(V)
            for M in bm.corner_kernel.basis():
                assert (M * M).is_zero


def test_quotient_action_identity():
    from matspace import Vector

    rng = random.Random(35)
    for field in (F3, F7, Q):
        for _ in range(10):
            V = random_space(field, 3, rng)
            bm = block_decompose(V)
            for M in bm.W.basis():
                K = bm.block_of(M)
                # pi drops the first coordinate: K(M) . pi = pi . M on F^n
                for idx in range(3):
                    v = Vector.basis(field, 3, idx)
                    piv = Vector(field, v.entries[1:])
                    pi_of_Mv = Vector(field, (M * v).entries[1:])
                    assert K * piv == pi_of_Mv


# -- recover ---------------------------------------------------------------------------


def stage_status(rep, name):
    v = rep.stage(name)
    return None if v is None else v.status


def test_recover_identity_instances():
    for field in (F3, F7):
        for n in (2, 3):
            rep = recover(sym(n, field))
            assert rep.status == SUCCESS
            assert sym(n, field).conjugate(rep.S) == sym(n, field)


def test_recover_n1_short_circuit():
    rep = recover(MatSpace.standard("full", 1, F3))
    assert rep.status == SUCCESS
    assert rep.S == Matrix.identity(F3, 1)


def test_recover_wrong_dimension():
    rep = recover(MatSpace.standard("diagonal", 2, F7))
    assert rep.status == FAILURE
    assert rep.failure_stage == "dimension"


def test_recover_conjugated_instance():
    S0 = Matrix(F7, [[1, 2], [0, 1]])
    V = sym(2, F7).conjugate(S0)
    rep = recover(V)
    assert rep.status == SUCCESS
    assert sym(2, F7).conjugate(rep.S) == V  # S need not equal S0


def test_recover_square_class_failure_exact_witness():
    V = sym(2, F3).transform(invert(Matrix.diagonal(F3, [1, 2])), "right")
    rep = recover(V)
    assert rep.status == FAILURE
    assert rep.failure_stage == "square_class"
    assert rep.witness == Matrix(F3, [[0, 2], [1, 0]])
    assert char_poly(rep.witness) == Poly(F3, [1, 0, 1])  # t^2 - 2
    assert not is_diagonalizable(rep.witness)
    assert V.contains(rep.witness)
    # soft hypothesis stages recorded as failing for this input
    assert stage_status(rep, "orth_irreducible") == FAILS
    assert stage_status(rep, "orth_trivial_spectrum") == FAILS


def test_recover_square_class_rescue():
    S0 = Matrix(F7, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    V = sym(3, F7).conjugate(S0)
    rep = recover(V)
    assert rep.status == SUCCESS
    assert rep.notes  # the repair left a note
    assert sym(3, F7).conjugate(rep.S) == V


def test_recover_succeeds_despite_soft_failures():
    # over GF(3), the trace-orthogonal complement of Sym_3 has eigenvalue 1
    # members and the symmetrizer is isotropic, yet recovery must succeed
    rep = recover(sym(3, F3))
    assert rep.status == SUCCESS
    assert stage_status(rep, "orth_trivial_spectrum") == FAILS
    assert stage_status(rep, "non_isotropic") == FAILS


def test_recover_random_conjugates():
    rng = random.Random(36)
    for n in (2, 3):
        for _ in range(5):
            S0 = random_invertible(F7, n, rng)
            V = sym(n, F7).conjugate(S0)
            rep = recover(V)
            assert rep.status == SUCCESS
            assert sym(n, F7).conjugate(rep.S) == V


def test_recover_sym_over_rationals_succeeds():
    # P = I is definite, so both orth stages are derived and none is unknown.
    for n in (2, 3):
        rep = recover(sym(n, Q))
        assert rep.status == SUCCESS
        assert sym(n, Q).conjugate(rep.S) == sym(n, Q)
        assert all(s.verdict.status == HOLDS for s in rep.stages)


def test_recover_rational_conjugates_n2_succeed():
    # for n = 2 the determinant forces the diagonal ratio into the square
    # class, so random conjugated instances succeed over the rationals too
    rng = random.Random(38)
    for _ in range(3):
        S0 = random_invertible(Q, 2, rng)
        V = sym(2, Q).conjugate(S0)
        rep = recover(V)
        assert rep.status == SUCCESS
        assert sym(2, Q).conjugate(rep.S) == V


def test_recover_over_rationals_partial():
    V = sym(3, Q).transform(invert(Matrix.diagonal(Q, [1, 2, 2])), "right")
    rep = recover(V)
    assert rep.status == PARTIAL
    assert rep.failure_stage == "square_class"
    assert rep.witness is None
    assert stage_status(rep, "square_class") == UNKNOWN


def test_recover_char2_congruence_failure():
    J = Matrix(F2, [[0, 1], [1, 0]])
    V = sym(2, F2).transform(J, "right")  # J^-1 = J
    rep = recover(V)
    assert rep.status == FAILURE
    assert rep.failure_stage == "congruence"


def test_recover_char2_identity_instance():
    for n in (2, 3):
        rep = recover(sym(n, F2))
        assert rep.status == SUCCESS
        assert sym(n, F2).conjugate(rep.S) == sym(n, F2)


def test_recover_outcome_matches_discriminant_theory():
    # V = Sym_n * P0^-1 is similar to Sym_n iff P0 is congruent to a scalar
    # matrix; over a finite field of odd characteristic that happens always
    # for odd n, and exactly when disc(P0) is a square for even n.  The
    # pipeline outcome must match, and every failure must carry a valid
    # falsifying member of V.
    from matspace import det

    rng = random.Random(37)
    for p in (3, 5, 7, 13):
        field = PrimeField(p)
        for n in (2, 3, 4):
            for _ in range(4):
                A = random_invertible(field, n, rng)
                P0 = A * Matrix.diagonal(
                    field, [rng.randrange(1, p) for _ in range(n)]
                ) * A.transpose()
                V = sym(n, field).transform(invert(P0), "right")
                rep = recover(V, seed=0)
                expect_success = n % 2 == 1 or field.is_square(det(P0))
                if expect_success:
                    assert rep.status == SUCCESS, (p, n, P0)
                    assert sym(n, field).conjugate(rep.S) == V
                else:
                    assert rep.status == FAILURE, (p, n, P0)
                    assert rep.failure_stage == "square_class"
                    w = rep.witness
                    assert V.contains(w)
                    assert not is_diagonalizable(w)


def test_recover_no_symmetrizer():
    # dim. 3 subspace that is not Sym * P^-1 for any invertible P
    V = MatSpace.span(
        [
            Matrix.unit(F3, 2, 0, 0),
            Matrix.unit(F3, 2, 0, 1),
            Matrix.unit(F3, 2, 1, 0),
        ]
    )
    rep = recover(V)
    assert rep.status == FAILURE
    assert rep.failure_stage in ("symmetrizer", "right_mul_is_sym")


# -- frozen finite-field recovery reports ----------------------------------------
#
# sha256 of the whole canonical report, taken from the code before Norton's
# criterion decided irreducibility: the orth_irreducible verdicts (holds for
# GF(101), n = 3 and GF(7), n = 4, fails with a witness for GF(101), n = 2)
# and every other byte must stay as the exhaustive scan left them.

FROZEN_FP_RECOVERY = {
    "gf101_conj3": "42f5aa0be8ddbd7e4a20a4b6ef1b3171935644ed2bd38c0addd6fe695ffb99b1",
    "gf101_conj2": "5ba5e483348fdb0788377530e5687f545e694eabbeb1585d54e42639c851bf7a",
    "gf7_conj4": "17b32e85296ceecf443a4e0a1638b88c9e97595c06caf94f87a9639388b996fd",
    "gf3_obstructed4": "908f2e4d0a2c90d7fbb8d52945ef54c2cea3f21c56c489359f39f9627aae41f1",
    # Taken from the code that scanned every member of V-perp and every
    # projective point for isotropy.  gf101_obstructed2: orth trivial spectrum
    # holds over all 101 members.  The V-perp of gf7_conj2 is a line with an
    # irreducible char poly (Norton proves it); that of gf7_obstructed2 is a
    # line whose char poly splits, so it goes straight to the scan, and its
    # trivial spectrum and isotropy stages fail with witnesses.
    "gf101_obstructed2": "9b386a3e903f61d3f707913d929850139e0bf082bf3be3631f487c9a1f58bdf8",
    "gf7_conj2": "d636c1ffc18dacd24c3f3ab6eace5eecb80efcdd0b6ab3ce54c9add4d462a7c0",
    "gf7_obstructed2": "beb550a52f539fedcea88051aef0ac9f694a66c82c0355a8f9075170cad873bf",
}


def obstructed2(F, T, nu):
    """Sym_2 * P^-1 with P = T * diag(1, nu) * T^T, so disc(P) is the non-square nu."""
    T = Matrix(F, T)
    return sym(2, F).transform(invert(T * Matrix.diagonal(F, [1, nu]) * T.transpose()), "right")


def frozen_fp_input(name):
    if name == "gf101_conj3":
        F = PrimeField(101)
        return sym(3, F).conjugate(Matrix(F, [[3, 1, 4], [1, 5, 9], [2, 6, 5]]))
    if name == "gf101_conj2":
        F = PrimeField(101)
        return sym(2, F).conjugate(Matrix(F, [[2, 7], [1, 8]]))
    if name == "gf101_obstructed2":
        return obstructed2(PrimeField(101), [[3, 8], [5, 1]], 2)
    if name == "gf7_obstructed2":
        return obstructed2(F7, [[1, 2], [3, 1]], 3)
    if name == "gf7_conj2":
        return sym(2, F7).conjugate(Matrix(F7, [[3, 5], [1, 2]]))
    if name == "gf7_conj4":
        S = Matrix(F7, [[1, 2, 0, 3], [0, 1, 4, 1], [5, 0, 1, 2], [1, 1, 1, 0]])
        return sym(4, F7).conjugate(S)
    # Sym_4 * P^-1 with disc(P) = 2, a non-square mod 3.
    T = Matrix(F3, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
    P = T * Matrix.diagonal(F3, [1, 1, 1, 2]) * T.transpose()
    return sym(4, F3).transform(invert(P), "right")


@pytest.mark.parametrize("name", sorted(FROZEN_FP_RECOVERY))
def test_fp_recovery_report_bytes(name):
    text = canonical_json(recovery_report(recover(frozen_fp_input(name))))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_FP_RECOVERY[name]


@pytest.mark.parametrize(
    "kwargs",
    [{"seed": 1.5}, {"seed": "x"}, {"seed": True}, {"budget": None}, {"budget": 2.5}, {"budget": -1}],
)
def test_recover_and_analyze_reject_seeds_and_budgets_that_are_not_ints(kwargs):
    # Before, budget=None raised TypeError and the others ran to a report
    # that verify rejects (over GF(p), budget=2.5 raised BudgetExceeded).
    V = MatSpace.standard("sym", 2, Q)
    for fn in (recover, analyze_result):
        with pytest.raises(InvalidInput, match="must be an integer"):
            fn(V, **kwargs)


def test_recover_over_a_large_prime_still_stops_at_the_first_budget_check():
    # Over GF(p) the orth scans still run before the symmetrizer chain, so
    # irreducible's (p^3 - 1)/(p - 1) starts refuse the input at once.
    p = 2**31 - 1
    F = PrimeField(p)
    V = sym(3, F).conjugate(Matrix(F, [[1, 2, 0], [0, 1, 3], [4, 0, 1]]))
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        recover(V)
    assert time.perf_counter() - t0 < 2
    assert exc.value.required == p * p + p + 1


def test_recover_passes_its_budget_to_non_isotropic(monkeypatch):
    budgets = []
    isotropy = recovery.non_isotropic
    monkeypatch.setattr(recovery, "non_isotropic", lambda P, budget: budgets.append(budget) or isotropy(P, budget))
    for F in (F7, Q):
        assert recover(sym(2, F), budget=1234).status == SUCCESS
    assert budgets == [1234, 1234]
