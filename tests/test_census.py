import importlib
import itertools
import random
from operator import mul

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
from matspace import gf2, predicates
from matspace.errors import BudgetExceeded, CapExceeded, InvalidInput
from matspace.matrices import char_poly_rows
from matspace.predicates import HOLDS, non_isotropic
from matspace.serialize import (
    canonical_json,
    census_result,
    classification_result,
    max_diag_dim_result,
)
from matspace.spaces import _unflatten

from oracles import (
    alt_multiplier_oracle,
    census_oracle,
    diagonalizable_lines,
    gaussian_binomial_oracle,
    irreducible_lines,
    maximal_diagonalizable_spaces,
    trivial_spectrum_lines,
)

census_module = importlib.import_module("matspace.census")  # the package exports the function
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


CHAINS = (
    ("all_diagonalizable",),
    ("trivial_spectrum",),
    ("trivial_spectrum", "all_diagonalizable"),
    ("trivial_spectrum", "irreducible"),
    ("all_diagonalizable", "irreducible"),
    ("irreducible",),
)
PARITY_SIZES = (
    [(2, 2, d) for d in range(5)]
    + [(2, 3, d) for d in range(4)]
    + [(2, 5, 1), (2, 5, 2)]
    + [(3, 2, d) for d in range(1, 4)]
    + [(3, 3, 1)]
)


def _predicate_holds(n, q):
    field = PrimeField(q)

    def holds(name, rows):
        space = MatSpace.from_canonical_rows(field, n, rows)
        return getattr(predicates, name)(space).status == HOLDS

    return holds


def _table_holds(n):
    """GF(2): the tables on every member of the span, spinning for irreducibility."""
    tables = {
        "all_diagonalizable": gf2.diagonalizable_table(n),
        "trivial_spectrum": gf2.eigenvalue_one_free_table(n),
    }
    action = gf2.action_table(n)
    weights = [1 << j for j in range(n * n)]
    last = [None, None]  # the last basis asked about and its members; each chain asks in turn

    def holds(name, rows):
        if last[0] is not rows:
            bits = [sum(map(mul, r, weights)) for r in rows]
            span = [0]
            for b in bits:
                span += [b ^ x for x in span]
            last[:] = rows, (bits, span)
        bits, span = last[1]
        if name == "irreducible":
            return gf2.irreducible_bits(bits, n, action)
        return all(map(tables[name].__getitem__, span))

    return holds


@pytest.mark.parametrize("n,q,d", PARITY_SIZES)
def test_census_matches_the_unpruned_enumeration(n, q, d):
    # Pruning at failing prefixes must not move a count or a witness.  For
    # n = 3 and d >= 2 the predicates on MatSpaces take seconds per census, so
    # the reference decides by the GF(2) tables and only the bits engine runs
    # (test_census_engine_parity_full_sweep_3_2_2 compares the engines
    # there).  The irred-only chain is never pruned, so it is left out where
    # it only costs time: at (3,2,3) it spins 788,035 times, and at (3,3,1)
    # its 9,841 generic spins would double the test.
    big = n == 3 and d >= 2
    unpruned = ("irreducible",)
    chains = [c for c in CHAINS if c != unpruned or (n, q, d) not in ((3, 2, 3), (3, 3, 1))]
    holds = _table_holds(n) if big else _predicate_holds(n, q)
    expected = census_oracle(n, q, d, chains, holds)
    total = gaussian_binomial(n * n, d, q)
    engines = (["bits"] if q == 2 else []) + ([] if big else ["generic"])
    for engine in engines:
        for workers in (1, 2):
            for chain in chains:
                rep = census(n, q, d, chain, workers=workers, witness_limit=total, engine=engine, heavy=True)
                assert (rep.counts, rep.witnesses) == expected[chain], (engine, workers, chain)


def test_generic_member_tests_build_no_matrix_and_no_space(monkeypatch):
    # Both hereditary predicates test each new member on its int rows, so a
    # generic census whose chain starts with one builds no Matrix or MatSpace.
    built = {}
    for cls in (Matrix, MatSpace):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] = built.get(_name, 0) + 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    for chain in (["diag"], ["trivspec"], ["trivspec", "diag"]):
        assert census(2, 3, 2, chain, engine="generic").tested > 0
    assert built == {}


def test_tested_counts_the_subspaces_the_chain_ran_on():
    # A failing basis prefix decides its whole subtree, whichever worker walks it.
    tested = {
        w: census(3, 2, 4, ["trivspec", "irred"], workers=w, heavy=True).tested for w in (1, 2, 4)
    }
    assert tested[1] == tested[2] == tested[4]
    assert 0 < tested[1] < 3_309_747 // 1000
    # irreducibility is not hereditary: an irred-only chain tests every subspace
    assert census(2, 2, 2, ["irred"]).tested == 35


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
        {"n": True}, {"n": 2.0}, {"q": 2.0}, {"d": 1.0}, {"d": True},
    ],
)
def test_census_rejects_counts_that_are_not_ints(kwargs):
    # Before, cap=1.5 and q=2.0 raised AttributeError, witness_limit=1.5 and
    # d=1.0 TypeError, and the others ran (cap=True as cap 1, n=True as n = 1).
    with pytest.raises(InvalidInput, match="must be an integer"):
        census(**{"n": 2, "q": 2, "d": 1, "predicates": ["diag"], **kwargs})


@pytest.mark.parametrize(
    "fn, args",
    [
        (subspace_stream, (2, 2.0, 1)), (subspace_stream, (2, 2, True)),
        (max_diag_dim, (2.0, 2)), (max_diag_dim, (True, 2)),
        (verify_classification, (2.0, 2)), (verify_classification, (2, 2.0)),
    ],
)
def test_every_census_entry_rejects_sizes_that_are_not_ints(fn, args):
    with pytest.raises(InvalidInput, match="must be an integer"):
        fn(*args)


def test_census_budget_bounds_irreducible_starts_on_both_engines():
    # 7 projective points of F_2^3 to spin from: a budget of 4 is too small,
    # 7 is enough, whichever engine runs
    counts = []
    for engine in ("bits", "generic"):
        with pytest.raises(BudgetExceeded):
            census(3, 2, 1, ["irred"], budget=4, engine=engine)
        counts.append(census(3, 2, 1, ["irred"], budget=7, engine=engine).counts)
    assert counts[0] == counts[1] == {"irreducible": 48}


def _engines(q):
    return (["bits"] if q == 2 else []) + ["generic"]


@pytest.mark.parametrize(
    "n,q,count", [(2, 2, 2), (2, 3, 9), (2, 5, 50), (3, 2, 48), (3, 3, 1728), (3, 5, 120000)]
)
def test_irreducible_line_counts_match_the_closed_form(n, q, count):
    # (3, 5) has 488,281 lines, past the non-heavy limit.
    assert irreducible_lines(n, q) == count
    for engine in _engines(q):
        assert census(n, q, 1, ["irred"], engine=engine, heavy=True).counts == {"irreducible": count}


@pytest.mark.parametrize("n,q,count", [(2, 2, 7), (2, 3, 19), (2, 5, 76), (3, 2, 57), (3, 3, 1054)])
def test_diagonalizable_line_counts_match_the_closed_form(n, q, count):
    assert diagonalizable_lines(n, q) == count
    for engine in _engines(q):
        assert census(n, q, 1, ["diag"], engine=engine).counts == {"all_diagonalizable": count}


@pytest.mark.parametrize("n,q,count", [(2, 2, 3), (2, 3, 6), (2, 5, 15), (3, 2, 28)])
def test_maximal_diagonalizable_space_counts_match_the_closed_form(n, q, count):
    # d = n is the largest dimension: nothing above it is all-diagonalizable.
    assert maximal_diagonalizable_spaces(n, q) == count
    for engine in _engines(q):
        for d, expected in ((n, count), (n + 1, 0)):
            rep = census(n, q, d, ["diag"], engine=engine, heavy=True)
            assert rep.counts == {"all_diagonalizable": expected}


@pytest.mark.parametrize("n,q,count", [(2, 2, 5), (2, 3, 13), (2, 5, 56), (3, 2, 167)])
def test_trivial_spectrum_line_counts_match_the_closed_form(n, q, count):
    assert trivial_spectrum_lines(n, q) == count
    for engine in _engines(q):
        assert census(n, q, 1, ["trivspec"], engine=engine).counts == {"trivial_spectrum": count}


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_every_line_rule_is_its_library_predicate(n, q):
    # Each census line rule, on every line against the library predicate
    # (irreducibility spins); test_census_matches_the_unpruned_enumeration
    # compares the census with the predicates on the same lines.
    ruled = [rec for rec in census_module.PREDICATES if rec.line_rule]
    assert ruled
    for space in subspace_stream(n, q, 1):
        chi = char_poly_rows(_unflatten(n, space.rows[0]), q)
        for rec in ruled:
            expected = getattr(predicates, rec.name)(space).status == HOLDS
            assert rec.line_rule(chi, q) == expected, (rec.name, space.rows)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_the_line_char_poly_is_berkowitz(q):
    # chi_a is affine in the last row of a; the helper builds it from the
    # char polys of the head with a zero last row and with each unit row.
    rng = random.Random(q)
    cases = [(1, (c,)) for c in range(q)]  # n = 1: the head is empty
    cases += [(2, a) for a in itertools.product(range(q), repeat=4)]
    for n in (3, 4):
        cases += [(n, tuple(rng.randrange(q) for _ in range(n * n))) for _ in range(150)]
        zero_head = [0] * (n * n - n)
        cases += [(n, (*zero_head, *(rng.randrange(q) for _ in range(n)))) for _ in range(20)]
    helpers = {n: census_module._line_char_poly(n, q) for n in (1, 2, 3, 4)}
    for n, a in cases:
        assert helpers[n](a) == char_poly_rows(_unflatten(n, list(a)), q), (n, a)


def test_line_censuses_run_berkowitz_per_head_and_each_rule_once_per_char_poly(monkeypatch):
    # Generic (3, 3, 1) `trivspec,irred`: 365 heads of 3 x 3 matrices with
    # n + 1 = 4 Berkowitz runs each, against one or two runs per line for
    # 9,841 lines without the affine rule; 27 monic cubics over GF(3).
    calls = {"berkowitz": 0, "roots": [], "factor": []}

    def berkowitz(*args, _call=char_poly_rows):
        calls["berkowitz"] += 1
        return _call(*args)

    monkeypatch.setattr(census_module, "char_poly_rows", berkowitz)
    monkeypatch.setattr(predicates, "char_poly_rows", berkowitz)
    for name, key in (("_roots", "roots"), ("_simple_factor_mod", "factor")):

        def counting(chi, q, _call=getattr(census_module, name), _key=key):
            calls[_key].append(tuple(chi))
            return _call(chi, q)

        monkeypatch.setattr(census_module, name, counting)
    rep = census(3, 3, 1, ["trivspec", "irred"], engine="generic")
    assert rep.counts == {"trivial_spectrum": 3145, "irreducible": 1728}
    assert calls["berkowitz"] <= 1460
    for key in ("roots", "factor"):
        assert len(calls[key]) == len(set(calls[key])) <= 27, key


def test_line_censuses_decide_irreducibility_without_spinning(monkeypatch):
    calls = []
    for module, name in ((census_module, "irreducible"), (gf2, "irreducible_bits"), (predicates, "spin")):

        def counting(*args, _call=getattr(module, name), _name=name):
            calls.append(_name)
            return _call(*args)

        monkeypatch.setattr(module, name, counting)
    for n, q, chain in ((3, 2, ["irred"]), (2, 2, ["diag", "irred"]), (2, 3, ["trivspec", "irred"])):
        for engine in _engines(q):
            rep = census(n, q, 1, chain, engine=engine)
            assert rep.counts[rep.predicates[0]] > 0  # some lines reached the irreducibility test
    assert calls == []


MEMBER_PREDICATES = [rec for rec in census_module.PREDICATES if rec.member_test]


def test_every_predicate_record_has_its_names_and_a_library_predicate():
    for rec in census_module.PREDICATES:
        for alias in (rec.name, *rec.aliases):
            assert census_module.normalize_predicates([alias.upper()]) == [rec.name]
        assert callable(getattr(predicates, rec.name))
        assert (rec.member_test is None) == (rec.gf2_table is None)
        # A line is decided by a line rule or by its generator's member test;
        # only `irreducible`, which is not hereditary, has a rule without a test.
        assert rec.line_rule is not None or rec.member_test is not None
        assert rec.line_rule is None or rec.member_test is not None or rec.name == "irreducible"
    # A prefix keeps a member list only when the chain starts with a member
    # predicate, so every predicate without a member test comes last.
    has_test = [rec.member_test is not None for rec in census_module.PREDICATES]
    assert has_test == sorted(has_test, reverse=True)


@pytest.mark.parametrize("n", [2, 3])
def test_each_gf2_table_is_its_records_member_test(n):
    # bit n*i + j of a packed matrix is entry (i, j)
    for rec in MEMBER_PREDICATES:
        table = rec.gf2_table(n)
        assert len(table) == 1 << (n * n)
        for m, verdict in enumerate(table):
            rows = [[(m >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
            assert verdict == rec.member_test(rows, 2), (rec.name, rows)


@pytest.mark.parametrize("q", [3, 5])
def test_every_member_test_is_scale_invariant(q):
    # The prefix rule tests one member per projective class.
    for rec in MEMBER_PREDICATES:
        for a, b, c, d in itertools.product(range(q), repeat=4):
            verdict = rec.member_test([[a, b], [c, d]], q)
            for k in range(2, q):
                assert rec.member_test([[k * a % q, k * b % q], [k * c % q, k * d % q]], q) == verdict


def test_census_predicate_order_normalization():
    rep = census(2, 2, 2, ["irred", "diag", "trivspec"])
    assert rep.predicates == ["trivial_spectrum", "all_diagonalizable", "irreducible"]


@pytest.mark.parametrize("names", ["diag", "all_diagonalizable", 5, None])
def test_census_rejects_a_string_of_predicates(names):
    # A string is iterable, so it would be read letter by letter; 5 and None
    # are not iterable at all.
    with pytest.raises(InvalidInput, match="predicates must be a list of names"):
        census(2, 2, 1, names)


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
