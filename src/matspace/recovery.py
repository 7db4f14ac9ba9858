"""Recovery of conjugated symmetric-matrix spaces.

Given a subspace V of Mat_n(F) of dimension n(n+1)/2, the pipeline solves for
an invertible symmetrizer P (M*P symmetric for every M in V, so V*P = Sym_n),
congruence-diagonalizes P and normalizes the diagonal into a single square
class (the form functions live in `forms`; this module re-exports them), and
assembles an invertible S with V = S * Sym_n * S^-1 — or stops with a staged
failure.  A square-class failure over a finite field is a result, not an
error: it yields a constructive non-diagonalizable member of V.

Hypothesis checks along the way (identity membership, irreducibility and
trivial spectrum of the trace-orthogonal complement, non-isotropy of P) are
recorded but do not block the constructive path; the final similarity is
re-verified exactly before success is reported.

Over Q the two orth stages are derived from the symmetrizer instead of
searched for.  Once V*P = Sym_n is checked, the complement V-perp is P*Alt_n;
`recover` compares the two exactly, and when they agree and P is
non-isotropic (x^T P x != 0 for x != 0) both stages hold, over any field:

* Trivial spectrum.  Say P*A*x = lam*x with A alternating, lam != 0, and set
  w = A*x.  Then w^T P w = lam * (A*x)^T x = -lam * x^T A x = 0, so w = 0,
  and lam*x = P*w = 0 contradicts x != 0.
* Irreducible, n >= 3.  Alt_n * x = x-perp for x != 0, so a P*Alt_n-stable
  W containing x contains P(x-perp), of dimension n - 1.  If dim W = n - 1,
  then x-perp = P^-1 W for every nonzero x in W, so W is a line and n = 2.
  Hence W = F^n, for any invertible P.
* Irreducible, n = 2.  V-perp = <P*J> with J = [[0, 1], [-1, 0]].  P*J is
  invertible with no nonzero eigenvalue, so it has no eigenvector, and no
  line is stable.

Where the argument applies, the samplers it replaces could only return
Unknown over Q; the derived stages carry a reason that names the
derivation.  Over GF(p) the exhaustive scans still run before the
symmetrizer, so their budget checks come first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import Char2AlternatingResidual, NoInvertibleSolution, ShapeMismatch, checked_int
from .fields import Scalar
from .forms import ScaleNormalization, _single_class_rediagonalize, congruence_diagonalize  # noqa: F401
from .forms import nondiag_witness, square_class_normalize
from .matrices import Matrix, _matmul, invert, is_diagonalizable, kernel_rows, rref_rows
from .predicates import FAILS, HOLDS, UNKNOWN, Verdict, _members, irreducible, non_isotropic, trivial_spectrum
from .spaces import DEFAULT_BUDGET, MatSpace, _canonical, _unflatten

SUCCESS = "success"
CONDITIONAL = "conditional_success"
FAILURE = "failure"
PARTIAL = "partial"

# The verdict of both orth stages over Q when the module docstring's argument applies.
_DERIVED_ORTH = Verdict(HOLDS, reason="derived: V*P = Sym_n with P non-isotropic, so V-perp = P*Alt_n")


@dataclass
class StageResult:
    name: str
    verdict: Verdict


@dataclass
class RecoveryReport:
    space: MatSpace
    status: str = ""
    stages: list[StageResult] = dc_field(default_factory=list)
    P: Matrix | None = None
    Q: Matrix | None = None
    D: Matrix | None = None
    scales: list | None = None
    c: Scalar | None = None
    S: Matrix | None = None
    witness: Matrix | None = None
    failure_stage: str | None = None
    notes: list[str] = dc_field(default_factory=list)
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    @property
    def succeeded(self) -> bool:
        return self.status in (SUCCESS, CONDITIONAL)

    def stage(self, name: str) -> Verdict | None:
        for s in self.stages:
            if s.name == name:
                return s.verdict
        return None


@dataclass
class BlockMaps:
    """First-row/first-column block structure of a subspace, n = 1 + (n-1).

    The four linear maps are realized as matrices over the canonical basis of
    V: corner (1 x dim V), column (n-1 x dim V), row (n-1 x dim V) and the
    lower block ((n-1)^2 x dim V).  W is the kernel of the column map inside V.
    """

    n: int
    split: int
    space: MatSpace
    a: Matrix
    C: Matrix
    R: Matrix
    K: Matrix
    W: MatSpace
    corner_kernel: MatSpace  # W with lower block and corner both zero
    dim_CV: int
    dim_W: int
    dim_KW: int
    dim_corner_kernel: int

    @staticmethod
    def corner_of(M: Matrix) -> Scalar:
        return M.rows[0][0]

    @staticmethod
    def column_of(M: Matrix) -> list:
        return [M.rows[i][0] for i in range(1, M.nrows)]

    @staticmethod
    def row_of(M: Matrix) -> list:
        return list(M.rows[0][1:])

    @staticmethod
    def block_of(M: Matrix) -> Matrix:
        return Matrix(M.field, [r[1:] for r in M.rows[1:]])


def solve_symmetrizer(V: MatSpace, budget: int = DEFAULT_BUDGET) -> tuple[MatSpace, Matrix]:
    """Solution space of "M*P symmetric for every M in V", plus an invertible pick.

    The solution space is V.multipliers(Sym_n, "right").  The choice scans its
    canonical basis first, then its elements (finite fields, one per
    projective class, within the budget on all of them) or integer
    combinations with coefficients in [-3, 3] (rationals).  Candidates are
    tested as rows; a Matrix is built only for the P returned.
    """
    F, n = V.field, V.n
    space = V.multipliers(MatSpace.standard("sym", n, F), "right")
    if space.dim == 0:
        raise NoInvertibleSolution("solution space is zero", exhaustive=True)
    basis = (_unflatten(n, flat) for flat in space.rows)
    if F.is_finite:
        # Invertibility is scale-invariant, so the first invertible member is a walked one.
        rest = _members(space, budget)[1]
    else:
        combos = itertools.product(range(-3, 4), repeat=space.dim) if 7**space.dim <= budget else ()
        rest = (_unflatten(n, _matmul([c], space.rows)[0]) for c in combos if any(c))
    P = next((rows for rows in itertools.chain(basis, rest) if len(rref_rows(F, rows)[1]) == n), None)
    if P is not None:
        return space, Matrix(F, P)
    if F.is_finite:
        raise NoInvertibleSolution(
            f"no invertible element among the {F.cardinality}^{space.dim} solutions",
            exhaustive=True,
        )
    raise NoInvertibleSolution(
        "bounded search over integer combinations found no invertible solution",
        exhaustive=False,
    )


def _symmetrizer_chain(V: MatSpace, budget: int) -> tuple[Matrix | None, list[StageResult], str | None]:
    """The stages symmetrizer .. non_isotropic of `recover`, each decided once.

    Returns P (None when no invertible symmetrizer was found), the stage
    results in report order, and the status that ends the recovery when a
    stage stopped it (None when every stage ran).
    """
    try:
        _, P = solve_symmetrizer(V, budget)
    except NoInvertibleSolution as exc:
        if exc.exhaustive:
            return None, [StageResult("symmetrizer", Verdict(FAILS, reason=str(exc)))], FAILURE
        return None, [StageResult("symmetrizer", Verdict.unknown(str(exc)))], PARTIAL
    stages = [StageResult("symmetrizer", Verdict.holds())]
    if not P.is_symmetric:
        return P, [*stages, StageResult("symmetrizer_symmetric", Verdict(FAILS, witness=P))], FAILURE
    stages.append(StageResult("symmetrizer_symmetric", Verdict.holds()))
    if V.transform(P, "right") != MatSpace.standard("sym", V.n, V.field):
        return P, [*stages, StageResult("right_mul_is_sym", Verdict(FAILS, witness=P))], FAILURE
    stages.append(StageResult("right_mul_is_sym", Verdict.holds()))
    stages.append(StageResult("non_isotropic", non_isotropic(P, budget)))
    return P, stages, None


def block_decompose(V: MatSpace) -> BlockMaps:
    """Split every member into corner, first column, first row and lower block.

    The four maps are returned as matrices over the canonical basis of V,
    together with W = Ker(column map) and the rank bookkeeping
    dim V = dim C(V) + dim W.
    """
    if V.n < 2:
        raise ShapeMismatch("block decomposition needs n >= 2")
    F = V.field
    n = V.n
    p = F.cardinality or 0
    basis = V.basis()
    dim = len(basis)

    def columns_to_matrix(columns):
        height = len(columns[0]) if columns else 0
        return Matrix(F, [[col[r] for col in columns] for r in range(height)])

    a_cols = [[BlockMaps.corner_of(B)] for B in basis]
    c_cols = [BlockMaps.column_of(B) for B in basis]
    r_cols = [BlockMaps.row_of(B) for B in basis]
    k_cols = [list(BlockMaps.block_of(B).vec()) for B in basis]

    a_mat = columns_to_matrix(a_cols) if dim else Matrix.zero(F, 1, 0)
    c_mat = columns_to_matrix(c_cols) if dim else Matrix.zero(F, n - 1, 0)
    r_mat = columns_to_matrix(r_cols) if dim else Matrix.zero(F, n - 1, 0)
    k_mat = columns_to_matrix(k_cols) if dim else Matrix.zero(F, (n - 1) ** 2, 0)

    def coeff_space(kernel_vectors):
        return MatSpace(F, n, _canonical(F, _matmul(kernel_vectors, V.rows, p)))

    c_kernel = kernel_rows(F, c_mat.rows, dim)
    W = coeff_space(c_kernel)
    dim_cv = dim - len(c_kernel)  # rank-nullity for C

    # K restricted to W: images of W's coefficient-kernel basis.
    _, kw_pivots = rref_rows(F, _matmul(c_kernel, k_cols, p))
    dim_kw = len(kw_pivots)

    corner = coeff_space(kernel_rows(F, c_mat.rows + k_mat.rows + a_mat.rows, dim))

    return BlockMaps(
        n=n,
        split=1,
        space=V,
        a=a_mat,
        C=c_mat,
        R=r_mat,
        K=k_mat,
        W=W,
        corner_kernel=corner,
        dim_CV=dim_cv,
        dim_W=W.dim,
        dim_KW=dim_kw,
        dim_corner_kernel=corner.dim,
    )


def recover(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> RecoveryReport:
    """Run the full pipeline on V; see the module docstring for the stages."""
    checked_int("budget", budget)
    checked_int("seed", seed, None)
    F = V.field
    n = V.n
    report = RecoveryReport(space=V, seed=seed, budget=budget)
    stages = report.stages

    def hard_fail(name: str, verdict: Verdict):
        stages.append(StageResult(name, verdict))
        report.status = FAILURE
        report.failure_stage = name

    expected_dim = n * (n + 1) // 2
    if V.dim != expected_dim:
        hard_fail(
            "dimension",
            Verdict(FAILS, reason=f"dim {V.dim}, expected {expected_dim}"),
        )
        return report
    stages.append(StageResult("dimension", Verdict.holds()))

    if n == 1:
        # one-dimensional case is immediate: V = Mat_1 = Sym_1
        report.S = Matrix.identity(F, 1)
        stages.append(StageResult("similarity", Verdict.holds()))
        report.status = SUCCESS
        return report

    ident = Matrix.identity(F, n)
    stages.append(
        StageResult(
            "contains_identity",
            Verdict.holds() if V.contains(ident) else Verdict(FAILS, witness=ident),
        )
    )

    Vp = V.orth()
    if Vp.dim != n * (n - 1) // 2:
        hard_fail("orth_dimension", Verdict(FAILS, reason=f"dim {Vp.dim}"))
        return report
    stages.append(StageResult("orth_dimension", Verdict.holds()))

    if F.is_finite:  # the exhaustive scans run first, and so do their budget checks
        orth = irreducible(Vp, budget, seed), trivial_spectrum(Vp, budget, seed)
        P, chain, status = _symmetrizer_chain(V, budget)
    else:
        P, chain, status = _symmetrizer_chain(V, budget)
        if (
            status is None
            and chain[-1].verdict.status == HOLDS
            and MatSpace.standard("alt", n, F).transform(P, "left") == Vp
        ):
            orth = _DERIVED_ORTH, _DERIVED_ORTH
        else:
            orth = irreducible(Vp, budget, seed), trivial_spectrum(Vp, budget, seed)
    stages.append(StageResult("orth_irreducible", orth[0]))
    stages.append(StageResult("orth_trivial_spectrum", orth[1]))
    report.P = P
    stages.extend(chain)
    if status is not None:
        report.status = status
        report.failure_stage = chain[-1].name
        return report

    try:
        Qc, D = congruence_diagonalize(P)
    except Char2AlternatingResidual as exc:
        hard_fail("congruence", Verdict(FAILS, reason=str(exc)))
        return report
    report.Q, report.D = Qc, D
    stages.append(StageResult("congruence", Verdict.holds()))

    norm = square_class_normalize(D)
    if not norm.ok and F.is_finite:
        repaired = _single_class_rediagonalize(D)
        if repaired is not None:
            R, D2 = repaired
            Qc = R * Qc
            D = D2
            report.Q, report.D = Qc, D
            report.notes.append(
                "diagonal square classes repaired by an extra congruence"
            )
            norm = square_class_normalize(D)
            if not norm.ok:
                raise AssertionError("square-class repair left a non-square ratio")
        else:
            w_raw = nondiag_witness(D, norm.offending_index)
            Qinv = invert(Qc)
            w = Qinv * w_raw * Qc
            if not V.contains(w):
                raise AssertionError("square-class witness escaped the input space")
            if is_diagonalizable(w):
                raise AssertionError("square-class witness is diagonalizable")
            report.witness = w
            hard_fail("square_class", Verdict(FAILS, witness=w))
            return report
    if not norm.ok:
        stages.append(
            StageResult(
                "square_class",
                Verdict.unknown(
                    "rationals: scalar normalization not certified "
                    f"(offending index {norm.offending_index})"
                ),
            )
        )
        report.status = PARTIAL
        report.failure_stage = "square_class"
        return report
    report.scales, report.c = norm.scales, norm.c
    stages.append(StageResult("square_class", Verdict.holds()))

    Q1 = Matrix.diagonal(F, norm.scales) * Qc
    S = invert(Q1)
    sym = MatSpace.standard("sym", n, F)
    if sym.conjugate(S) != V:
        raise AssertionError("assembled similarity failed re-verification")
    report.S = S
    stages.append(StageResult("similarity", Verdict.holds()))

    report.status = (
        CONDITIONAL if any(s.verdict.status == UNKNOWN for s in stages) else SUCCESS
    )
    return report
