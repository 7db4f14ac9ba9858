from fractions import Fraction

import pytest

from matspace import (
    Matrix,
    MatSpace,
    PrimeField,
    RationalField,
    VecSpace,
    Vector,
    census,
    invert,
    make_field,
    recover,
)
from matspace.errors import InvalidInput
from matspace.predicates import Verdict
from matspace.serialize import (
    analyze_report,
    canonical_json,
    census_report_json,
    check_recovery_transcript,
    matrix_from_json,
    matrix_to_json,
    recovery_report,
    space_from_json,
    space_to_json,
    verdict_to_json,
    verify_report,
    witness_to_json,
)

F3 = PrimeField(3)
F7 = PrimeField(7)
Q = RationalField()


def test_field_descriptor_roundtrip():
    for F in (F3, F7, Q):
        assert make_field(F.to_json()) == F


def test_matrix_roundtrip():
    M = Matrix(F7, [[1, 2], [3, 4]])
    assert matrix_from_json(F7, matrix_to_json(M)) == M
    MQ = Matrix(Q, [[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
    enc = matrix_to_json(MQ)
    assert enc["rows"][0][0] == "1/2"
    assert matrix_from_json(Q, enc) == MQ


def test_matrix_json_validation():
    with pytest.raises(InvalidInput):
        matrix_from_json(F7, {"n": 2, "rows": [[1, 2]]})
    with pytest.raises(InvalidInput):
        matrix_from_json(F7, {"n": 2, "rows": [[1, 2], [3]]})
    with pytest.raises(InvalidInput):
        matrix_from_json(F7, [1, 2])


def test_space_roundtrip_and_canonical_emit():
    V = MatSpace.span([Matrix(F3, [[1, 1], [0, 2]]), Matrix(F3, [[0, 1], [1, 0]])])
    enc = space_to_json(V)
    assert enc["field"] == {"kind": "prime", "p": 3}
    assert space_from_json(enc) == V
    # emitted basis is canonical: encoding the decoded space is a fixed point
    assert canonical_json(space_to_json(space_from_json(enc))) == canonical_json(enc)


def test_space_field_flag_interplay():
    V = MatSpace.standard("sym", 2, F7)
    enc = space_to_json(V)
    assert space_from_json(enc, field=F7) == V
    with pytest.raises(InvalidInput):
        space_from_json(enc, field=F3)
    bare = {"n": 2, "basis": enc["basis"]}
    assert space_from_json(bare, field=F7) == V
    with pytest.raises(InvalidInput):
        space_from_json(bare)


def test_witness_encodings():
    M = Matrix(F3, [[1, 0], [0, 1]])
    assert witness_to_json(F3, M)["kind"] == "matrix"
    v = Vector(F3, [1, 2])
    assert witness_to_json(F3, v)["kind"] == "vector"
    W = VecSpace.from_vectors(F3, 2, [v])
    assert witness_to_json(F3, W)["kind"] == "vector_space"
    pair = witness_to_json(F3, (M, 2))
    assert pair["kind"] == "matrix_eigenvalue" and pair["eigenvalue"] == 2
    assert witness_to_json(F3, None) is None
    enc = verdict_to_json(F3, Verdict.unknown("sampled"))
    assert enc == {"status": "unknown", "witness": None, "reason": "sampled"}


def test_recovery_report_roundtrip_success():
    V = MatSpace.standard("sym", 2, F7)
    rep = recover(V)
    report = recovery_report(rep)
    checks = check_recovery_transcript(report)
    assert checks and all(c["ok"] for c in checks)
    ok, details = verify_report(report)
    assert ok, details


def test_recovery_report_roundtrip_failure_with_witness():
    V = MatSpace.standard("sym", 2, F3).transform(
        invert(Matrix.diagonal(F3, [1, 2])), "right"
    )
    report = recovery_report(recover(V))
    assert report["result"]["status"] == "failure"
    assert report["result"]["witness"] == {"n": 2, "rows": [[0, 2], [1, 0]]}
    names = [c["check"] for c in report["result"]["transcript"]]
    assert "witness_in_space" in names and "witness_non_diagonalizable" in names
    ok, details = verify_report(report)
    assert ok, details


def test_recovery_report_tampering_detected():
    V = MatSpace.standard("sym", 2, F7)
    report = recovery_report(recover(V))
    report["result"]["S"] = {"n": 2, "rows": [[1, 1], [0, 1]]}
    ok, details = verify_report(report)
    assert not ok


def test_analyze_report_verify():
    report = analyze_report(MatSpace.standard("strict_upper", 3, F7), 10**7, 0)
    ok, details = verify_report(report)
    assert ok, details
    report["result"]["dim"] = 99
    ok, _ = verify_report(report)
    assert not ok


def test_census_report_verify_and_meta_split():
    rep = census(2, 2, 3, ["diag"])
    report = census_report_json(rep)
    assert "elapsed_seconds" in report["meta"]
    assert "elapsed_seconds" not in canonical_json(report["result"])
    ok, details = verify_report(report)
    assert ok, details
    report["result"]["counts"]["all_diagonalizable"] = 1
    ok, _ = verify_report(report)
    assert not ok


def test_verify_rejects_a_census_report_without_a_list_of_predicates():
    report = census_report_json(census(2, 2, 1, ["diag"]))
    report["result"]["predicates"] = None
    with pytest.raises(InvalidInput, match="predicates must be a list of names"):
        verify_report(report)


def test_verify_rejects_unknown_type():
    with pytest.raises(InvalidInput):
        verify_report({"type": "mystery"})
    with pytest.raises(InvalidInput):
        verify_report({})
