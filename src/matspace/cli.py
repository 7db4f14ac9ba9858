"""Command-line entry point: analyze / recover / census / verify over JSON.

Exit codes are a stable contract for scripting:
  0  every check holds / recovery succeeded
  1  a hypothesis fails or recovery produced a witness (still a correct run)
  2  input or format error
  3  an Unknown verdict blocked a definitive answer
  4  budget or cap exceeded
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from ._version import __version__
from .census import DEFAULT_CAP, census
from .errors import BudgetExceeded, CapExceeded, InvalidInput, MatSpaceError
from .fields import make_field
from .predicates import FAILS, UNKNOWN
from .recovery import CONDITIONAL, PARTIAL, SUCCESS, recover
from .serialize import (
    analyze_report,
    census_report_json,
    classification_report,
    max_diag_dim_report,
    recovery_report,
    space_from_json,
    verify_report,
)
from .spaces import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_BUDGET = 4


def _nonnegative(text: str) -> int:
    """argparse type of --budget and --cap: a negative bound is an input error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must not be negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matspace",
        description="Exact toolkit for subspaces of Mat_n over GF(p) and Q",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="path to JSON input")
        p.add_argument("--field", help="ground field: gf<p> or rational")
        p.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", help="also write the report to this path")

    p_an = sub.add_parser("analyze", help="dimension, orthogonal complement, predicate verdicts")
    common(p_an)

    p_rec = sub.add_parser("recover", help="run the similarity-recovery pipeline")
    common(p_rec)

    p_cen = sub.add_parser("census", help="exhaustive subspace enumeration")
    p_cen.add_argument("--task", choices=["count", "maxdim", "classify"], default="count")
    p_cen.add_argument("--n", type=int, required=True)
    p_cen.add_argument("--q", type=int, required=True)
    p_cen.add_argument("--d", type=int)
    p_cen.add_argument("--pred", help="comma list: diag, trivspec, irred")
    p_cen.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
    p_cen.add_argument("--cap", type=_nonnegative, default=DEFAULT_CAP)
    p_cen.add_argument("--workers", type=int, help="count task only (default 1)")
    p_cen.add_argument("--heavy", action="store_true")
    p_cen.add_argument("--witness-limit", type=int, help="count task only (default 5)")
    p_cen.add_argument("--csv", help="also write a CSV tally table")
    p_cen.add_argument("--output", help="also write the report to this path")

    p_ver = sub.add_parser("verify", help="re-check a previously emitted report")
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--heavy", action="store_true")
    p_ver.add_argument("--output", help="also write the verification summary to this path")
    return parser


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _check_output_paths(args) -> None:
    """Refuse an --output or --csv path that cannot be written, before any work starts."""
    for flag in ("output", "csv"):
        path = getattr(args, flag, None)
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise InvalidInput(f"--{flag} {path}: directory {parent} does not exist")
        if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise InvalidInput(f"--{flag} {path}: not a writable file path")


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _load_space(args):
    field = make_field(args.field) if args.field else None
    return space_from_json(_read_json(args.input), field=field)


def _cmd_analyze(args) -> int:
    report = analyze_report(_load_space(args), args.budget, args.seed)
    _emit(report, args.output)
    statuses = [v["status"] for v in report["result"]["verdicts"].values()]
    if FAILS in statuses:
        return EXIT_FAILS
    if UNKNOWN in statuses:
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_recover(args) -> int:
    rep = recover(_load_space(args), args.budget, args.seed)
    _emit(recovery_report(rep), args.output)
    if rep.status in (SUCCESS, CONDITIONAL):
        return EXIT_OK
    if rep.status == PARTIAL:
        return EXIT_UNKNOWN
    return EXIT_FAILS


def _cmd_census(args) -> int:
    count_only = ("d", "pred", "workers", "witness_limit", "csv")
    given = ["--" + flag.replace("_", "-") for flag in count_only if getattr(args, flag) is not None]
    if args.task != "count" and given:
        raise InvalidInput(f"census --task {args.task} does not take {', '.join(given)}")
    if args.task == "maxdim":
        _emit(max_diag_dim_report(args.n, args.q, args.budget, args.cap, args.heavy), args.output)
        return EXIT_OK
    if args.task == "classify":
        report = classification_report(args.n, args.q, args.budget, args.cap, args.heavy)
        _emit(report, args.output)
        res = report["result"]
        ok = (
            res["trivial_spectrum_form"]["all_expressible"]
            and res["diagonalizable_form"]["all_similar"]
        )
        return EXIT_OK if ok else EXIT_FAILS
    if args.d is None or not args.pred:
        raise InvalidInput("census counting needs --d and --pred")
    preds = [p for p in args.pred.split(",") if p.strip()]
    rep = census(
        args.n,
        args.q,
        args.d,
        preds,
        budget=args.budget,
        cap=args.cap,
        workers=1 if args.workers is None else args.workers,
        witness_limit=5 if args.witness_limit is None else args.witness_limit,
        heavy=args.heavy,
    )
    report = census_report_json(rep)
    _emit(report, args.output)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "q", "d", "predicate", "count", "total"])
            for name in rep.predicates:
                writer.writerow([rep.n, rep.q, rep.d, name, rep.counts[name], rep.total])
    final = rep.counts[rep.predicates[-1]]
    return EXIT_OK if final == rep.total else EXIT_FAILS


def _cmd_verify(args) -> int:
    report = _read_json(args.input)
    try:
        ok, details = verify_report(report, workers=args.workers, heavy=args.heavy)
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed report: {exc!r}") from exc
    summary = {"type": "verification", "ok": ok, "details": details}
    _emit(summary, args.output)
    return EXIT_OK if ok else EXIT_FAILS


COMMANDS = {
    "analyze": _cmd_analyze,
    "recover": _cmd_recover,
    "census": _cmd_census,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        _check_output_paths(args)
        return COMMANDS[args.command](args)
    except MatSpaceError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, (BudgetExceeded, CapExceeded)) else EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
