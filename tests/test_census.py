import pytest

from matspace import (
    MatSpace,
    Matrix,
    PrimeField,
    all_diagonalizable,
    census,
    gaussian_binomial,
    max_diag_dim,
    subspace_stream,
    verify_classification,
)
from matspace.errors import BudgetExceeded, CapExceeded, InvalidInput
from matspace.predicates import HOLDS, non_isotropic
from matspace.serialize import (
    canonical_json,
    census_result,
    classification_result,
    max_diag_dim_result,
)

from oracles import alt_multiplier_oracle, gaussian_binomial_oracle

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 3, 2) == 15
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(9, 6, 2) == 788_035
    assert gaussian_binomial(9, 4, 2) == 3_309_747
    for m in range(1, 7):
        for d in range(m + 1):
            for q in (2, 3, 5):
                assert gaussian_binomial(m, d, q) == gaussian_binomial_oracle(m, d, q)


def test_stream_totals_match_closed_form():
    for d in range(5):
        assert sum(1 for _ in subspace_stream(2, 2, d)) == gaussian_binomial(4, d, 2)
    assert sum(1 for _ in subspace_stream(2, 3, 1)) == 40
    assert sum(1 for _ in subspace_stream(2, 3, 2)) == 130
    assert sum(1 for _ in subspace_stream(2, 5, 1)) == gaussian_binomial(4, 1, 5)


def test_stream_yields_distinct_canonical_spaces():
    seen = set()
    for space in subspace_stream(2, 3, 2):
        assert space.dim == 2
        assert space not in seen
        seen.add(space)
        # canonical: re-spanning the basis reproduces the same rows
        assert MatSpace.span(space.basis(), field=F3, n=2) == space
    assert len(seen) == 130


def test_stream_validation():
    with pytest.raises(InvalidInput):
        list(subspace_stream(2, 7, 1))
    with pytest.raises(InvalidInput):
        list(subspace_stream(2, 2, 5))
    with pytest.raises(InvalidInput):
        subspace_stream(0, 2, 0)


def test_census_counts():
    rep = census(2, 2, 3, ["diag"])
    assert rep.total == 15
    assert rep.counts["all_diagonalizable"] == 0
    assert rep.engine == "bits"

    rep = census(2, 3, 3, ["diag"])
    assert rep.total == 40
    assert rep.counts["all_diagonalizable"] == 0

    rep = census(2, 3, 2, ["trivspec", "irred"])
    assert rep.total == 130
    assert rep.counts["irreducible"] == 0


def test_census_nonzero_counts_and_witnesses():
    rep = census(2, 2, 2, ["diag"], witness_limit=3)
    # diagonalizable 2-dim subspaces of Mat_2(F_2) exist (the diagonal space)
    assert rep.counts["all_diagonalizable"] > 0
    assert 0 < len(rep.witnesses["all_diagonalizable"]) <= 3
    for rows in rep.witnesses["all_diagonalizable"]:
        space = MatSpace.from_canonical_rows(F2, 2, rows)
        assert all_diagonalizable(space).status == HOLDS


def test_census_engine_parity():
    for d in range(5):
        bit = census(2, 2, d, ["diag", "trivspec", "irred"], engine="bits")
        gen = census(2, 2, d, ["diag", "trivspec", "irred"], engine="generic")
        assert canonical_json(census_result(bit).get("counts")) == canonical_json(
            census_result(gen).get("counts")
        )
        assert bit.witnesses == gen.witnesses
        assert bit.total == gen.total
    bit = census(3, 2, 1, ["diag", "trivspec"], engine="bits")
    gen = census(3, 2, 1, ["diag", "trivspec"], engine="generic")
    assert bit.counts == gen.counts
    assert bit.witnesses == gen.witnesses


def test_census_engine_parity_full_sweep_3_2_2():
    # 43,435 subspaces through both engines; counts and witnesses must match.
    # A trivial-spectrum subspace that is also all-diagonalizable consists of
    # diagonalizable matrices whose only eigenvalue is 0, i.e. the zero space,
    # so the filtered count past the first predicate is forced to 0.
    gen = census(3, 2, 2, ["diag", "trivspec", "irred"], engine="generic")
    bit = census(3, 2, 2, ["diag", "trivspec", "irred"], engine="bits")
    assert gen.total == bit.total == 43_435
    assert gen.counts == bit.counts
    assert gen.counts["trivial_spectrum"] == 1495
    assert gen.counts["all_diagonalizable"] == 0
    assert gen.witnesses == bit.witnesses


def test_census_engine_parity_irreducible_alone():
    # make sure the spinning path itself runs census-wide in both engines
    for n, d in ((2, 2), (3, 1)):
        bit = census(n, 2, d, ["irred"], engine="bits", witness_limit=3)
        gen = census(n, 2, d, ["irred"], engine="generic", witness_limit=3)
        assert bit.counts == gen.counts
        assert bit.witnesses == gen.witnesses
        assert bit.counts["irreducible"] > 0


def test_census_worker_determinism():
    for workers in (1, 2, 3):
        rep = census(2, 2, 3, ["diag", "trivspec"], workers=workers)
        single = census(2, 2, 3, ["diag", "trivspec"], workers=1)
        assert canonical_json(census_result(rep)) == canonical_json(census_result(single))


def test_census_q5_generic_engine():
    assert gaussian_binomial(4, 2, 5) == 806
    rep = census(2, 5, 2, ["trivspec"], witness_limit=2)
    assert rep.engine == "generic"
    assert rep.total == 806
    # dim-2 trivial-spectrum subspaces of Mat_2 do not exist over any field:
    # a stable-line reduction forces a strictly upper-triangular form of dim 1
    assert rep.counts["trivial_spectrum"] == 0


def test_census_counts_conjugation_spot_check():
    # conjugating the enumeration permutes subspaces, so predicate verdicts on
    # conjugated witnesses must not change
    import random

    from matspace import trivial_spectrum
    from oracles import random_invertible

    rng = random.Random(50)
    rep = census(2, 3, 1, ["trivspec"], witness_limit=10)
    assert rep.counts["trivial_spectrum"] > 0
    P = random_invertible(F3, 2, rng)
    for rows in rep.witnesses["trivial_spectrum"]:
        space = MatSpace.from_canonical_rows(F3, 2, rows)
        assert trivial_spectrum(space.conjugate(P)).status == HOLDS


def test_census_gates():
    with pytest.raises(CapExceeded):
        census(3, 3, 4, ["diag"])  # way over the default cap
    with pytest.raises(CapExceeded) as info:
        census(3, 2, 4, ["trivspec"])  # heavy-gated below the cap
    assert "--heavy" in str(info.value)
    with pytest.raises(BudgetExceeded):
        census(2, 2, 3, ["diag"], budget=4)
    for n in (0, -1):
        with pytest.raises(InvalidInput):
            census(n, 2, 0, ["diag"])
    with pytest.raises(InvalidInput):
        census(2, 2, 3, ["nope"])
    with pytest.raises(InvalidInput):
        census(2, 3, 2, ["diag"], engine="bits")


def test_oversized_counts_print_by_bit_length():
    # str() refuses an int of more than 4,300 digits
    assert str(BudgetExceeded(7**6000, 10)) == "a 16845-bit number of element-tests exceed budget 10"
    assert str(CapExceeded(2**20000, 10)) == "a 20001-bit number of subspaces exceed cap 10"
    assert str(BudgetExceeded(7**6, 10)) == "117649 element-tests exceed budget 10"


def test_census_rejects_unknown_engine_and_bad_counts():
    for kwargs in ({"engine": "turbo"}, {"workers": 0}, {"workers": -4}, {"witness_limit": -1}):
        with pytest.raises(InvalidInput):
            census(2, 2, 1, ["diag"], **kwargs)
    assert census(2, 2, 1, ["diag"], witness_limit=0).witnesses == {"all_diagonalizable": []}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cap": 1.5}, {"cap": True}, {"witness_limit": 1.5},
        {"budget": 2.5}, {"workers": True}, {"workers": 2.0},
    ],
)
def test_census_rejects_counts_that_are_not_ints(kwargs):
    # Before, cap=1.5 raised AttributeError, witness_limit=1.5 TypeError, and
    # the others ran (cap=True as cap 1).
    with pytest.raises(InvalidInput, match="must be an integer"):
        census(2, 2, 1, ["diag"], **kwargs)


def test_census_budget_bounds_irreducible_starts_on_both_engines():
    # 7 projective points of F_2^3 to spin from: a budget of 4 is too small,
    # 7 is enough, whichever engine runs
    counts = []
    for engine in ("bits", "generic"):
        with pytest.raises(BudgetExceeded):
            census(3, 2, 1, ["irred"], budget=4, engine=engine)
        counts.append(census(3, 2, 1, ["irred"], budget=7, engine=engine).counts)
    assert counts[0] == counts[1] == {"irreducible": 48}


def test_census_predicate_order_normalization():
    rep = census(2, 2, 2, ["irred", "diag", "trivspec"])
    assert rep.predicates == ["trivial_spectrum", "all_diagonalizable", "irreducible"]


def test_census_custom_predicate_order():
    rep = census(2, 2, 2, ["diag", "trivspec"], keep_order=True)
    assert rep.predicates == ["all_diagonalizable", "trivial_spectrum"]
    default = census(2, 2, 2, ["trivspec", "diag"])
    # the conjunction count is order-independent
    assert (
        rep.counts["trivial_spectrum"] == default.counts["all_diagonalizable"]
    )
    from matspace.serialize import census_report_json, verify_report

    ok, _ = verify_report(census_report_json(rep))
    assert ok


def test_max_diag_dim():
    d_max, witness = max_diag_dim(2, 2)
    assert d_max == 2
    assert all_diagonalizable(witness).status == HOLDS
    d_max3, _ = max_diag_dim(2, 3)
    assert d_max3 == 2
    d1, w1 = max_diag_dim(1, 2)
    assert d1 == 1 and w1.dim == 1
    for n in (0, -1, -2):
        with pytest.raises(InvalidInput):
            max_diag_dim(n, 2)


# Result sections as emitted while max_diag_dim and verify_classification had
# enumeration loops of their own; taking the subspaces from census() must not
# move a byte.
FROZEN_MAX_DIAG_DIM = {
    (1, 2): (
        '{"d_max":1,"n":1,"q":2,"witness":{"basis":[{"n":1,"rows":[[1]]}],'
        '"field":{"kind":"prime","p":2},"n":1}}'
    ),
    (2, 2): (
        '{"d_max":2,"n":2,"q":2,"witness":{"basis":[{"n":2,"rows":[[1,0],[0,1]]},'
        '{"n":2,"rows":[[0,1],[0,1]]}],"field":{"kind":"prime","p":2},"n":2}}'
    ),
    (2, 3): (
        '{"d_max":2,"n":2,"q":3,"witness":{"basis":[{"n":2,"rows":[[1,0],[0,1]]},'
        '{"n":2,"rows":[[0,1],[0,1]]}],"field":{"kind":"prime","p":3},"n":2}}'
    ),
    (2, 5): (
        '{"d_max":2,"n":2,"q":5,"witness":{"basis":[{"n":2,"rows":[[1,0],[0,1]]},'
        '{"n":2,"rows":[[0,1],[0,1]]}],"field":{"kind":"prime","p":5},"n":2}}'
    ),
}

FROZEN_CLASSIFICATION = {
    (2, 2): (
        '{"diagonalizable_form":{"all_similar":true,"dim":3,"instances":0,'
        '"vacuous":true},"n":2,"q":2,"trivial_spectrum_form":{"all_expressible":true,'
        '"candidates":2,"dim":1,"expressible":2}}'
    ),
    (2, 3): (
        '{"diagonalizable_form":{"all_similar":true,"dim":3,"instances":0,'
        '"vacuous":true},"n":2,"q":3,"trivial_spectrum_form":{"all_expressible":true,'
        '"candidates":9,"dim":1,"expressible":9}}'
    ),
    (2, 5): (
        '{"diagonalizable_form":{"all_similar":true,"dim":3,"instances":0,'
        '"vacuous":true},"n":2,"q":5,"trivial_spectrum_form":{"all_expressible":true,'
        '"candidates":50,"dim":1,"expressible":50}}'
    ),
}


@pytest.mark.parametrize("n,q", sorted(FROZEN_MAX_DIAG_DIM))
def test_max_diag_dim_result_bytes(n, q):
    d_max, witness = max_diag_dim(n, q)
    assert canonical_json(max_diag_dim_result(n, q, d_max, witness)) == FROZEN_MAX_DIAG_DIM[n, q]


@pytest.mark.parametrize("n,q", sorted(FROZEN_CLASSIFICATION))
def test_classification_result_bytes(n, q):
    res = verify_classification(n, q)
    assert canonical_json(classification_result(res)) == FROZEN_CLASSIFICATION[n, q]


@pytest.mark.heavy
def test_maxdim_and_classification_3_2():
    d_max, witness = max_diag_dim(3, 2, heavy=True)
    assert d_max == 3
    def E(i, j):
        return Matrix.unit(F2, 3, i, j)

    # <I, E12 + E22, E13 + E33> in 0-based indices, as its canonical basis
    assert witness.basis() == [Matrix.identity(F2, 3), E(0, 1) + E(1, 1), E(0, 2) + E(2, 2)]

    res = verify_classification(3, 2, heavy=True)
    t1 = res["trivial_spectrum_form"]
    assert (t1["dim"], t1["candidates"], t1["expressible"]) == (3, 224, 0)
    assert not t1["all_expressible"]
    t2 = res["diagonalizable_form"]
    assert t2["dim"] == 6 and t2["instances"] == 0 and t2["vacuous"]


def test_verify_classification_2_3():
    res = verify_classification(2, 3)
    t1 = res["trivial_spectrum_form"]
    assert t1["dim"] == 1
    assert t1["candidates"] == 9
    assert t1["all_expressible"]
    t2 = res["diagonalizable_form"]
    assert t2["instances"] == 0 and t2["vacuous"]


def test_verify_classification_2_2():
    res = verify_classification(2, 2)
    t1 = res["trivial_spectrum_form"]
    assert t1["candidates"] == 2
    assert t1["all_expressible"]
    assert res["diagonalizable_form"]["vacuous"]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_verify_classification_matches_gl_search(q):
    alt = MatSpace.standard("alt", 2, PrimeField(q))
    for case in verify_classification(2, q)["trivial_spectrum_form"]["cases"]:
        assert case["expressible"] == (alt_multiplier_oracle(case["space"]) is not None)
        if case["expressible"]:
            P = case["P"]
            assert alt.transform(P, "left") == case["space"]
            assert non_isotropic(P).status == HOLDS


def test_verify_classification_gate():
    with pytest.raises(InvalidInput):
        verify_classification(2, 4)  # the census supports q in (2, 3, 5)
    with pytest.raises(CapExceeded):
        verify_classification(3, 2)  # needs --heavy
    with pytest.raises(BudgetExceeded):
        verify_classification(2, 2, budget=2)  # 3 spin starts in F_2^2
