import json
import time

import pytest

from matspace import Matrix, MatSpace, PrimeField, RationalField, invert
from matspace import cli
from matspace._version import __version__
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


@pytest.mark.parametrize("task", ["maxdim", "classify"])
@pytest.mark.parametrize(
    "flag, value",
    [("--d", "1"), ("--pred", "irred"), ("--workers", "2"), ("--witness-limit", "0"), ("--csv", "t.csv")],
)
def test_census_count_only_flag_exit2(capsys, tmp_path, monkeypatch, task, flag, value):
    monkeypatch.chdir(tmp_path)
    code = main(["census", "--task", task, "--n", "2", "--q", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out and flag in json.loads(captured.err)["error"]
    assert not list(tmp_path.iterdir())  # no --csv table was written


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("engine", None, "report engine must be 'bits' or 'generic', got None"),
        ("predicates", "all_diagonalizable", "predicates must be a list of names"),
    ],
)
def test_verify_rejects_a_malformed_engine_or_predicates(capsys, tmp_path, key, value, message):
    # A null engine would be recomputed with the automatic engine, and a
    # string of predicates read letter by letter; both are input errors.
    out = str(tmp_path / "census.json")
    code, _ = run(capsys, *CENSUS_ARGV, "--output", out)
    assert code == 1  # not every line of Mat_2(F_2) is diagonalizable
    report = read_json(out)
    report["result"][key] = value
    write_json(out, report)
    code = main(["verify", "--input", out])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert message in captured.err


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


@pytest.mark.parametrize(
    "field, status, code, reason",
    [
        (Q, "partial", 3, "bounded search over integer combinations found no invertible solution"),
        (F7, "failure", 1, "no invertible element among the 7^1 solutions"),
    ],
)
def test_recover_without_invertible_symmetrizer(capsys, tmp_path, field, status, code, reason):
    # span(E11, E12, E22): the symmetrizer solutions span(E11) hold no invertible member.
    upper = MatSpace.span([Matrix.unit(field, 2, *ij) for ij in ((0, 0), (0, 1), (1, 1))])
    path, out = tmp_path / "upper.json", str(tmp_path / "report.json")
    path.write_text(json.dumps(space_to_json(upper)))
    got, report = run(capsys, "recover", "--input", str(path), "--output", out)
    assert got == code
    result = report["result"]
    assert (result["status"], result["failure_stage"]) == (status, "symmetrizer")
    stage = result["stages"][-1]
    assert (stage["name"], stage["reason"]) == ("symmetrizer", reason)
    assert stage["status"] == ("unknown" if field == Q else "fails")
    verified, summary = run(capsys, "verify", "--input", out)
    assert verified == 0 and summary["ok"]


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--input", "SYM3"], "--output"),
        (["recover", "--input", "SYM3"], "--output"),
        (["census", "--task", "maxdim", "--n", "2", "--q", "2"], "--output"),
        (["census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag"], "--output"),
        (["census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag"], "--csv"),
        (["verify", "--input", "SYM3"], "--output"),
    ],
)
@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_unwritable_output_path_exit2_before_any_work(capsys, tmp_path, monkeypatch, sym3_path, argv, flag, where):
    # Before, the whole run finished and then ended in a FileNotFoundError traceback.
    for name in ("analyze_report", "recover", "census", "max_diag_dim_report", "verify_report"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work started"))
    path = str(tmp_path / "missing" / "r.json") if where == "missing_dir" else str(tmp_path)
    argv = [sym3_path if a == "SYM3" else a for a in argv]
    code = main([*argv, flag, path])
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out and json.loads(captured.err)["error"].startswith(f"{flag} {path}: ")
    assert not (tmp_path / "missing").exists()


def test_recover_q_conjugate_succeeds_and_verifies(capsys, tmp_path):
    # Both orth stages are derived from the definite symmetrizer.
    V = MatSpace.standard("sym", 2, Q).conjugate(Matrix(Q, [[1, -1], [1, 0]]))
    write_json(tmp_path / "conj.json", space_to_json(V))
    out = str(tmp_path / "report.json")
    code, report = run(capsys, "recover", "--input", str(tmp_path / "conj.json"), "--output", out)
    assert code == 0 and report["result"]["status"] == "success"
    assert {s["status"] for s in report["result"]["stages"]} == {"holds"}
    code, summary = run(capsys, "verify", "--input", out)
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


UPPER_F7 = {"basis": [{"n": 2, "rows": [[0, 1], [0, 0]]}], "field": {"kind": "prime", "p": 7}, "n": 2}
SYM2_F3 = {
    "basis": [
        {"n": 2, "rows": [[1, 0], [0, 0]]},
        {"n": 2, "rows": [[0, 1], [1, 0]]},
        {"n": 2, "rows": [[0, 0], [0, 1]]},
    ],
    "field": {"kind": "prime", "p": 3},
    "n": 2,
}


def test_report_envelopes_are_frozen_and_verify(capsys, tmp_path):
    # Only "result" sections are frozen elsewhere; this freezes every other
    # top-level key, and census meta but its timing, of each report type.
    write_json(tmp_path / "upper.json", UPPER_F7)
    write_json(tmp_path / "sym2.json", SYM2_F3)
    bounds = ["--budget", "1000", "--cap", "500"]
    cases = [
        (
            ["analyze", "--input", str(tmp_path / "upper.json"), "--budget", "1000", "--seed", "5"],
            {"type": "analyze", "input": UPPER_F7, "budget": 1000, "seed": 5},
        ),
        (
            ["recover", "--input", str(tmp_path / "sym2.json"), "--budget", "1000", "--seed", "2"],
            {"type": "recovery", "input": SYM2_F3, "budget": 1000, "seed": 2},
        ),
        (
            ["census", "--n", "2", "--q", "2", "--d", "1", "--pred", "diag", *bounds],
            {"type": "census", "meta": {"partition": [4], "tested": 15, "workers": 1}},
        ),
        (
            ["census", "--task", "maxdim", "--n", "2", "--q", "2", *bounds],
            {"type": "max_diag_dim", "budget": 1000, "cap": 500},
        ),
        (
            ["census", "--task", "classify", "--n", "2", "--q", "2", *bounds],
            {"type": "classification", "budget": 1000, "cap": 500},
        ),
    ]
    for i, (argv, envelope) in enumerate(cases):
        out = str(tmp_path / f"report{i}.json")
        code, report = run(capsys, *argv, "--output", out)
        assert code in (0, 1), argv
        assert "result" in report
        del report["result"]
        if "meta" in report:
            assert isinstance(report["meta"].pop("elapsed_seconds"), float)
        assert report == {**envelope, "version": __version__}, argv
        code, summary = run(capsys, "verify", "--input", out)
        assert code == 0 and summary["ok"], argv
