import json
import time

import pytest

from matspace import Matrix, MatSpace, PrimeField, RationalField, invert
from matspace.cli import main
from matspace.serialize import space_to_json

F3 = PrimeField(3)
F7 = PrimeField(7)
Q = RationalField()


@pytest.fixture()
def sym3_path(tmp_path):
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps(space_to_json(MatSpace.standard("sym", 3, F7))))
    return str(path)


@pytest.fixture()
def scaled_path(tmp_path):
    V = MatSpace.standard("sym", 2, F3).transform(
        invert(Matrix.diagonal(F3, [1, 2])), "right"
    )
    path = tmp_path / "sym2_scaled.json"
    path.write_text(json.dumps(space_to_json(V)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def test_recover_success_exit0(capsys, sym3_path, tmp_path):
    out_path = str(tmp_path / "report.json")
    code, report = run(
        capsys, "recover", "--field", "gf7", "--input", sym3_path, "--output", out_path
    )
    assert code == 0
    assert report["result"]["status"] == "success"
    assert read_json(out_path) == report


def test_recover_witness_exit1(capsys, scaled_path):
    code, report = run(capsys, "recover", "--input", scaled_path)
    assert code == 1
    assert report["result"]["status"] == "failure"
    assert report["result"]["witness"] == {"n": 2, "rows": [[0, 2], [1, 0]]}


def test_recover_field_mismatch_exit2(capsys, sym3_path):
    code, _ = run(capsys, "recover", "--field", "gf3", "--input", sym3_path)
    assert code == 2


def test_recover_partial_exit3(capsys, tmp_path):
    V = MatSpace.standard("sym", 3, Q).transform(
        invert(Matrix.diagonal(Q, [1, 2, 2])), "right"
    )
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(space_to_json(V)))
    code, report = run(capsys, "recover", "--input", str(path))
    assert code == 3
    assert report["result"]["status"] == "partial"


def test_analyze_exit_codes(capsys, tmp_path):
    # strict upper space over GF(7): all_diagonalizable fails (E12 nilpotent)
    upper = MatSpace.standard("strict_upper", 2, F7)
    p1 = tmp_path / "upper.json"
    p1.write_text(json.dumps(space_to_json(upper)))
    code, report = run(capsys, "analyze", "--input", str(p1))
    assert code == 1
    assert report["result"]["verdicts"]["all_diagonalizable"]["status"] == "fails"
    assert report["result"]["verdicts"]["trivial_spectrum"]["status"] == "holds"

    # over Q nothing fails only when nothing nonzero is sampled; the verdicts
    # stay Unknown and block a definitive answer: exit 3
    zero_q = MatSpace.zero(Q, 1)
    p2 = tmp_path / "zero_q.json"
    p2.write_text(json.dumps(space_to_json(zero_q)))
    code, report = run(capsys, "analyze", "--input", str(p2))
    assert code == 3
    assert report["result"]["verdicts"]["all_diagonalizable"]["status"] == "unknown"

    # diagonal space over GF(3): everything decided, irreducible fails
    diag = MatSpace.standard("diagonal", 2, F3)
    p3 = tmp_path / "diag.json"
    p3.write_text(json.dumps(space_to_json(diag)))
    code, report = run(capsys, "analyze", "--input", str(p3))
    assert code == 1
    assert report["result"]["verdicts"]["irreducible"]["status"] == "fails"


def test_census_count_exit_codes(capsys):
    code, report = run(capsys, "census", "--n", "2", "--q", "2", "--d", "3", "--pred", "diag")
    assert code == 1
    assert report["result"]["total"] == 15
    assert report["result"]["counts"]["all_diagonalizable"] == 0

    # a predicate every subspace satisfies: exit 0
    code, report = run(
        capsys, "census", "--n", "2", "--q", "2", "--d", "1", "--pred", "trivspec"
    )
    assert code in (0, 1)  # informative: not all 1-dim spaces are trivial spectrum
    assert report["result"]["total"] == 15


def test_census_maxdim_and_classify(capsys):
    code, report = run(capsys, "census", "--task", "maxdim", "--n", "2", "--q", "2")
    assert code == 0
    assert report["result"]["d_max"] == 2

    code, report = run(capsys, "census", "--task", "classify", "--n", "2", "--q", "3")
    assert code == 0
    assert report["result"]["trivial_spectrum_form"]["all_expressible"]


def test_census_missing_flags_exit2(capsys):
    code, _ = run(capsys, "census", "--n", "2", "--q", "2")
    assert code == 2


def test_census_heavy_gate_exit4(capsys):
    code, _ = run(capsys, "census", "--n", "3", "--q", "2", "--d", "4", "--pred", "trivspec")
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "30", "--d", "450", "--pred", "diag"],
        ["--n", "100", "--d", "5000", "--pred", "diag"],
        ["--task", "maxdim", "--n", "100"],
    ],
)
def test_census_oversized_count_exit4_at_once(capsys, argv):
    # The lower bound 2^(d(n^2-d)) on the count refuses these runs; the
    # exact count would take minutes, and its decimal form is too long for str().
    started = time.perf_counter()
    code, _ = run(capsys, "census", "--q", "2", *argv)
    assert code == 4
    assert time.perf_counter() - started < 10


def test_budget_exit4(capsys, tmp_path):
    big = MatSpace.standard("full", 3, F3)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(space_to_json(big)))
    code, _ = run(capsys, "analyze", "--input", str(path), "--budget", "10")
    assert code == 4


def test_bad_input_exit2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _ = run(capsys, "analyze", "--input", str(path))
    assert code == 2
    code, _ = run(capsys, "analyze", "--input", str(tmp_path / "missing.json"))
    assert code == 2
    mangled = tmp_path / "mangled.json"
    mangled.write_text(json.dumps({"type": "recovery", "result": {}}))
    code, _ = run(capsys, "verify", "--input", str(mangled))
    assert code == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"field": {"kind": "prime", "p": 3}, "n": -1, "basis": []},
        {"field": {"kind": "prime", "p": 3}, "n": "2", "basis": []},
        {"field": {"kind": "prime", "p": 3}, "n": 2.0, "basis": []},
        {"field": {"kind": "prime", "p": 3}, "n": True, "basis": []},
        {"field": {"kind": "prime", "p": 3}, "n": 2, "basis": 5},
        {"field": {"kind": "prime", "p": 3}, "n": 2, "basis": [{"n": 2, "rows": 5}]},
        {"field": {"kind": "prime", "p": 3}, "n": 1, "basis": [{"n": True, "rows": [[1]]}]},
        {"field": {"kind": "prime", "p": 3}, "n": 2, "basis": [{"n": 2.0, "rows": [[1, 0], [0, 1]]}]},
    ],
)
def test_malformed_space_exit2(capsys, tmp_path, doc):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, _ = run(capsys, "analyze", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "-1", "--q", "2", "--d", "1", "--pred", "diag"],
        ["--n", "0", "--q", "2", "--d", "0", "--pred", "diag"],
        ["--task", "maxdim", "--n", "-2", "--q", "2"],
        ["--task", "maxdim", "--n", "0", "--q", "2"],
        ["--task", "classify", "--n", "-1", "--q", "2"],
    ],
)
def test_census_bad_size_exit2(capsys, argv):
    code, _ = run(capsys, "census", *argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--workers", "0"],
        ["--workers", "-4"],
        ["--witness-limit", "-1"],
        ["--budget", "-1"],
        ["--cap", "-1"],
    ],
)
def test_census_bad_count_exit2(capsys, argv):
    code, _ = run(capsys, "census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag", *argv)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--budget", "-1"],
        ["recover", "--budget", "-1"],
        ["census", "--task", "maxdim", "--n", "2", "--q", "2", "--cap", "-1"],
        ["census", "--task", "classify", "--n", "2", "--q", "2", "--budget", "-1"],
    ],
)
def test_negative_budget_or_cap_exit2(capsys, sym3_path, argv):
    if argv[0] != "census":
        argv = [argv[0], "--input", sym3_path, *argv[1:]]
    code, _ = run(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize("key", ["budget", "cap"])
def test_verify_rejects_negative_census_bounds(capsys, tmp_path, key):
    out = str(tmp_path / "census.json")
    run(capsys, "census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag", "--output", out)
    report = read_json(out)
    report["result"][key] = -1
    write_json(out, report)
    code, _ = run(capsys, "verify", "--input", out)
    assert code == 2


CENSUS_ARGV = ["census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag"]
MAXDIM_ARGV = ["census", "--task", "maxdim", "--n", "2", "--q", "2"]
CLASSIFY_ARGV = ["census", "--task", "classify", "--n", "2", "--q", "2"]


@pytest.mark.parametrize(
    "argv, in_result, key, value",
    [
        (argv, False, key, value)
        for argv in (["analyze"], ["recover"])
        for key, value in [
            ("budget", -5), ("budget", True), ("budget", 1e300),
            ("seed", 1.5), ("seed", None), ("seed", [1]),
        ]
    ]
    + [
        (CENSUS_ARGV, True, "budget", True),
        (CENSUS_ARGV, True, "cap", 1e300),
        (MAXDIM_ARGV, False, "budget", 1e300),
        (MAXDIM_ARGV, False, "cap", True),
        (CLASSIFY_ARGV, False, "budget", True),
        (CLASSIFY_ARGV, False, "cap", 1e300),
    ],
)
def test_verify_rejects_a_malformed_budget_cap_or_seed(
    capsys, tmp_path, scaled_path, argv, in_result, key, value
):
    out = str(tmp_path / "report.json")
    if argv[0] != "census":
        argv = [argv[0], "--input", scaled_path]
    run(capsys, *argv, "--output", out)
    report = read_json(out)
    (report["result"] if in_result else report)[key] = value
    write_json(out, report)
    code, summary = run(capsys, "verify", "--input", out)
    assert code == 2 and summary is None


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (CENSUS_ARGV, "n", True),
        (CENSUS_ARGV, "n", "2"),
        (CENSUS_ARGV, "q", 2.0),
        (CENSUS_ARGV, "d", 1.0),
        (CENSUS_ARGV, "witness_limit", 2.5),
        (CENSUS_ARGV, "witness_limit", False),
        (MAXDIM_ARGV, "n", True),
        (CLASSIFY_ARGV, "q", True),
    ],
)
def test_verify_rejects_a_malformed_size_or_witness_limit(capsys, tmp_path, argv, key, value):
    out = str(tmp_path / "report.json")
    run(capsys, *argv, "--output", out)
    report = read_json(out)
    report["result"][key] = value
    write_json(out, report)
    code = main(["verify", "--input", out])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert f"report {key} must be an integer" in captured.err


def test_verify_rejects_unknown_engine(capsys, tmp_path):
    out = str(tmp_path / "census.json")
    run(capsys, "census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag", "--output", out)
    report = read_json(out)
    report["result"]["engine"] = "turbo"
    write_json(out, report)
    code, _ = run(capsys, "verify", "--input", out)
    assert code == 2


def test_classify_q5_roundtrip(capsys, tmp_path):
    out = str(tmp_path / "classify5.json")
    code, report = run(capsys, "census", "--task", "classify", "--n", "2", "--q", "5", "--output", out)
    assert code == 0
    assert report["result"]["trivial_spectrum_form"]["expressible"] == 50
    code, summary = run(capsys, "verify", "--input", out)
    assert code == 0 and summary["ok"]


def test_unknown_flag_exit2(capsys, sym3_path):
    code, _ = run(capsys, "recover", "--input", sym3_path, "--frobnicate")
    assert code == 2


def test_verify_roundtrip_all_report_types(capsys, tmp_path, sym3_path, scaled_path):
    reports = []
    for argv, name in [
        (["recover", "--input", sym3_path], "r1.json"),
        (["recover", "--input", scaled_path], "r2.json"),
        (["analyze", "--input", sym3_path], "r3.json"),
        (["census", "--n", "2", "--q", "2", "--d", "3", "--pred", "diag"], "r4.json"),
        (["census", "--task", "maxdim", "--n", "2", "--q", "2"], "r5.json"),
        (["census", "--task", "classify", "--n", "2", "--q", "3"], "r6.json"),
    ]:
        out = str(tmp_path / name)
        code, _ = run(capsys, *argv, "--output", out)
        assert code in (0, 1)
        reports.append(out)
    for path in reports:
        code, summary = run(capsys, "verify", "--input", path)
        assert code == 0
        assert summary["ok"]


def test_verify_detects_tampering(capsys, tmp_path, sym3_path):
    out = str(tmp_path / "rep.json")
    run(capsys, "recover", "--input", sym3_path, "--output", out)
    report = read_json(out)
    report["result"]["status"] = "failure"
    write_json(out, report)
    code, summary = run(capsys, "verify", "--input", out)
    assert code == 1
    assert not summary["ok"]


def test_verify_heavy_report_needs_heavy(capsys, tmp_path):
    out = str(tmp_path / "heavy.json")
    code, _ = run(
        capsys,
        "census", "--n", "3", "--q", "2", "--d", "6", "--pred", "diag",
        "--heavy", "--output", out,
    )
    assert code == 1
    code, _ = run(capsys, "verify", "--input", out)
    assert code == 4
    code, summary = run(capsys, "verify", "--input", out, "--heavy")
    assert code == 0 and summary["ok"]


def test_census_csv(capsys, tmp_path):
    csv_path = str(tmp_path / "tally.csv")
    code, _ = run(
        capsys,
        "census", "--n", "2", "--q", "2", "--d", "3", "--pred", "diag",
        "--csv", csv_path,
    )
    assert code == 1
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "n,q,d,predicate,count,total"
    assert lines[1] == "2,2,3,all_diagonalizable,0,15"


def test_seed_is_echoed(capsys, tmp_path):
    V = MatSpace.standard("sym", 2, Q)
    path = tmp_path / "symq.json"
    path.write_text(json.dumps(space_to_json(V)))
    code, report = run(capsys, "recover", "--input", str(path), "--seed", "7")
    assert report["seed"] == 7
