"""JSON schemas and report round-tripping.

Scalars serialize as integers (prime fields) or reduced "a/b" strings
(rationals); matrices as {"n": ..., "rows": [[...]]}; subspaces as
{"field": ..., "n": ..., "basis": [matrix, ...]} with canonical bases.

Reports embed their inputs by value, so re-verification is self-contained:
``verify_report`` re-runs the embedded computation, compares the canonical
result section byte for byte, and re-evaluates every transcript equality.
"""

from __future__ import annotations

import json

from ._version import __version__
from .census import CensusReport, census, checked_int, max_diag_dim, verify_classification
from .errors import InvalidInput
from .fields import Field, make_field
from .matrices import Matrix, Vector, is_diagonalizable
from .predicates import (
    Verdict,
    all_diagonalizable,
    irreducible,
    trivial_spectrum,
)
from .recovery import RecoveryReport, recover
from .spaces import DEFAULT_BUDGET, MatSpace, VecSpace


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- primitives ----------------------------------------------------------------


def matrix_to_json(M: Matrix) -> dict:
    if not M.is_square:
        raise InvalidInput("only square matrices are serialized")
    F = M.field
    return {"n": M.nrows, "rows": [[F.scalar_to_json(x) for x in r] for r in M.rows]}


def matrix_from_json(field: Field, obj) -> Matrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise InvalidInput(f"matrix JSON needs 'rows', got {obj!r}")
    rows = obj["rows"]
    if not isinstance(rows, list):
        raise InvalidInput(f"matrix JSON 'rows' must be a list, got {rows!r}")
    n = obj.get("n", len(rows))
    if isinstance(n, bool) or not isinstance(n, int) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise InvalidInput("matrix JSON rows must form an n x n grid")
    return Matrix(field, [[field.scalar_from_json(x) for x in r] for r in rows])


def vector_to_json(v: Vector) -> dict:
    F = v.field
    return {"dim": v.dim, "entries": [F.scalar_to_json(x) for x in v.entries]}


def vector_from_json(field: Field, obj) -> Vector:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InvalidInput(f"vector JSON needs 'entries', got {obj!r}")
    return Vector(field, [field.scalar_from_json(x) for x in obj["entries"]])


def space_to_json(V: MatSpace) -> dict:
    return {
        "field": V.field.to_json(),
        "n": V.n,
        "basis": [matrix_to_json(B) for B in V.basis()],
    }


def space_from_json(obj, field: Field | None = None) -> MatSpace:
    if not isinstance(obj, dict):
        raise InvalidInput(f"subspace JSON must be an object, got {obj!r}")
    if "field" in obj:
        embedded = make_field(obj["field"])
        if field is not None and embedded != field:
            raise InvalidInput(f"field flag {field} disagrees with input field {embedded}")
        field = embedded
    if field is None:
        raise InvalidInput("subspace JSON has no field and no --field flag was given")
    if "n" not in obj or "basis" not in obj:
        raise InvalidInput("subspace JSON needs 'n' and 'basis'")
    n, basis = obj["n"], obj["basis"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInput(f"subspace JSON 'n' must be an integer >= 1, got {n!r}")
    if not isinstance(basis, list):
        raise InvalidInput(f"subspace JSON 'basis' must be a list, got {basis!r}")
    mats = [matrix_from_json(field, m) for m in basis]
    for M in mats:
        if M.nrows != n:
            raise InvalidInput(f"basis matrix of size {M.nrows} in Mat_{n}")
    return MatSpace.span(mats, field=field, n=n)


def vecspace_to_json(W: VecSpace) -> dict:
    F = W.field
    return {
        "field": F.to_json(),
        "n": W.n,
        "basis": [[F.scalar_to_json(x) for x in r] for r in W.rows],
    }


def witness_to_json(field: Field, witness) -> dict | None:
    if witness is None:
        return None
    if isinstance(witness, Matrix):
        return {"kind": "matrix", **matrix_to_json(witness)}
    if isinstance(witness, Vector):
        return {"kind": "vector", **vector_to_json(witness)}
    if isinstance(witness, VecSpace):
        return {"kind": "vector_space", **vecspace_to_json(witness)}
    if isinstance(witness, MatSpace):
        return {"kind": "matrix_space", **space_to_json(witness)}
    if isinstance(witness, tuple) and len(witness) == 2 and isinstance(witness[0], Matrix):
        return {
            "kind": "matrix_eigenvalue",
            "matrix": matrix_to_json(witness[0]),
            "eigenvalue": field.scalar_to_json(witness[1]),
        }
    raise InvalidInput(f"unserializable witness {witness!r}")


def verdict_to_json(field: Field, v: Verdict) -> dict:
    return {
        "status": v.status,
        "witness": witness_to_json(field, v.witness),
        "reason": v.reason,
    }


# -- analyze -------------------------------------------------------------------


def analyze_result(V: MatSpace, budget: int = DEFAULT_BUDGET, seed: int = 0) -> dict:
    orth = V.orth()
    verdicts = {
        "all_diagonalizable": all_diagonalizable(V, budget, seed),
        "trivial_spectrum": trivial_spectrum(V, budget, seed),
        "irreducible": irreducible(V, budget, seed),
    }
    return {
        "dim": V.dim,
        "orth": space_to_json(orth),
        "verdicts": {k: verdict_to_json(V.field, v) for k, v in verdicts.items()},
    }


def analyze_report(V: MatSpace, budget: int, seed: int) -> dict:
    return {
        "type": "analyze",
        "version": __version__,
        "input": space_to_json(V),
        "budget": budget,
        "seed": seed,
        "result": analyze_result(V, budget, seed),
    }


# -- recovery --------------------------------------------------------------------


def _maybe_matrix(M: Matrix | None):
    return None if M is None else matrix_to_json(M)


def recovery_result(rep: RecoveryReport) -> dict:
    F = rep.space.field
    transcript = []
    if rep.P is not None:
        transcript.append({"check": "symmetrizer_right_mul"})
    if rep.Q is not None and rep.D is not None and rep.P is not None:
        transcript.append({"check": "congruence"})
    if rep.scales is not None:
        transcript.append({"check": "scaling"})
    if rep.S is not None:
        transcript.append({"check": "similarity"})
    if rep.witness is not None:
        transcript.append({"check": "witness_in_space"})
        if F.is_finite:
            transcript.append({"check": "witness_non_diagonalizable"})
    return {
        "status": rep.status,
        "failure_stage": rep.failure_stage,
        "stages": [
            {"name": s.name, **verdict_to_json(F, s.verdict)} for s in rep.stages
        ],
        "P": _maybe_matrix(rep.P),
        "Q": _maybe_matrix(rep.Q),
        "D": _maybe_matrix(rep.D),
        "scales": None
        if rep.scales is None
        else [F.scalar_to_json(x) for x in rep.scales],
        "c": None if rep.c is None else F.scalar_to_json(rep.c),
        "S": _maybe_matrix(rep.S),
        "witness": _maybe_matrix(rep.witness),
        "notes": rep.notes,
        "transcript": transcript,
    }


def recovery_report(rep: RecoveryReport) -> dict:
    return {
        "type": "recovery",
        "version": __version__,
        "input": space_to_json(rep.space),
        "budget": rep.budget,
        "seed": rep.seed,
        "result": recovery_result(rep),
    }


def check_recovery_transcript(report: dict) -> list[dict]:
    """Re-evaluate every transcript equality of a recovery report."""
    V = space_from_json(report["input"])
    F = V.field
    n = V.n
    result = report["result"]
    sym = MatSpace.standard("sym", n, F)
    P = result["P"] and matrix_from_json(F, result["P"])
    Q = result["Q"] and matrix_from_json(F, result["Q"])
    D = result["D"] and matrix_from_json(F, result["D"])
    S = result["S"] and matrix_from_json(F, result["S"])
    witness = result["witness"] and matrix_from_json(F, result["witness"])
    scales = result["scales"] and [F.scalar_from_json(x) for x in result["scales"]]
    c = F.scalar_from_json(result["c"]) if result["c"] is not None else None
    out = []
    for entry in result["transcript"]:
        kind = entry["check"]
        if kind == "symmetrizer_right_mul":
            ok = P is not None and V.transform(P, "right") == sym
        elif kind == "congruence":
            ok = Q is not None and Q * P * Q.transpose() == D
        elif kind == "scaling":
            mu = Matrix.diagonal(F, scales)
            ok = mu * D * mu == Matrix.identity(F, n) * c
        elif kind == "similarity":
            ok = S is not None and sym.conjugate(S) == V
        elif kind == "witness_in_space":
            ok = witness is not None and V.contains(witness)
        elif kind == "witness_non_diagonalizable":
            ok = witness is not None and not is_diagonalizable(witness)
        else:
            ok = False
        out.append({"check": kind, "ok": bool(ok)})
    return out


# -- census ----------------------------------------------------------------------


def census_result(rep: CensusReport) -> dict:
    field = make_field({"kind": "prime", "p": rep.q})

    def flat_to_matrices(flat_rows):
        return [
            matrix_to_json(
                Matrix(field, [row[i * rep.n : (i + 1) * rep.n] for i in range(rep.n)])
            )
            for row in flat_rows
        ]

    return {
        "n": rep.n,
        "q": rep.q,
        "d": rep.d,
        "predicates": rep.predicates,
        "budget": rep.budget,
        "cap": rep.cap,
        "engine": rep.engine,
        "version": rep.version,
        "witness_limit": rep.witness_limit,
        "total": rep.total,
        "counts": rep.counts,
        "witnesses": {
            name: [
                {"field": field.to_json(), "n": rep.n, "basis": flat_to_matrices(w)}
                for w in wits
            ]
            for name, wits in rep.witnesses.items()
        },
        "seedless": rep.seedless,
    }


def census_report_json(rep: CensusReport) -> dict:
    return {
        "type": "census",
        "version": __version__,
        "result": census_result(rep),
        "meta": {
            "elapsed_seconds": rep.elapsed,
            "workers": rep.workers,
            "partition": rep.partition,
        },
    }


# -- census-derived summaries --------------------------------------------------


def max_diag_dim_result(n: int, q: int, d_max: int, witness) -> dict:
    return {
        "n": n,
        "q": q,
        "d_max": d_max,
        "witness": space_to_json(witness),
    }


def classification_result(res: dict) -> dict:
    t1, t2 = res["trivial_spectrum_form"], res["diagonalizable_form"]
    return {
        "n": res["n"],
        "q": res["q"],
        "trivial_spectrum_form": {
            "dim": t1["dim"],
            "candidates": t1["candidates"],
            "expressible": t1["expressible"],
            "all_expressible": t1["all_expressible"],
        },
        "diagonalizable_form": {
            "dim": t2["dim"],
            "instances": t2["instances"],
            "all_similar": t2["all_similar"],
            "vacuous": t2["vacuous"],
        },
    }


# -- verification ------------------------------------------------------------------


def _int_param(params: dict, key: str, least: int | None = 0) -> int:
    """params[key] checked as an int (not a bool), at least `least` unless it is None."""
    return checked_int(f"report {key}", params[key], least)


def _recompute(report: dict, workers: int, heavy: bool) -> dict:
    """The result section of a report, computed afresh from its embedded inputs."""
    kind = report["type"]
    r = report.get("result")
    if kind in ("analyze", "recovery"):
        V = space_from_json(report["input"])
        budget, seed = _int_param(report, "budget"), _int_param(report, "seed", None)
        if kind == "analyze":
            return analyze_result(V, budget, seed)
        return recovery_result(recover(V, budget, seed))
    if kind not in ("census", "max_diag_dim", "classification"):
        raise InvalidInput(f"unknown report type {kind!r}")
    bounds = r if kind == "census" else report  # a census report keeps them in its result
    budget, cap = _int_param(bounds, "budget"), _int_param(bounds, "cap")
    for key in ("n", "q", "d", "witness_limit") if kind == "census" else ("n", "q"):
        _int_param(r, key)
    if kind == "max_diag_dim":
        d_max, witness = max_diag_dim(r["n"], r["q"], budget, cap, heavy)
        return max_diag_dim_result(r["n"], r["q"], d_max, witness)
    if kind == "classification":
        return classification_result(verify_classification(r["n"], r["q"], budget, cap, heavy))
    rep = census(
        r["n"],
        r["q"],
        r["d"],
        r["predicates"],
        budget=budget,
        cap=cap,
        workers=workers,
        witness_limit=r["witness_limit"],
        heavy=heavy,
        engine=r["engine"],
        keep_order=True,
    )
    return census_result(rep)


def verify_report(report: dict, workers: int = 1, heavy: bool = False) -> tuple[bool, list]:
    """Re-run the embedded computation and re-check the transcript.

    Returns (ok, details).  Raises InvalidInput on a budget, cap, seed, n, q,
    d or witness limit that is not an int (a bool is not), or is out of range,
    and CapExceeded/BudgetExceeded when gating prevents the re-run (the caller
    maps each to its exit code).
    """
    if not isinstance(report, dict) or "type" not in report:
        raise InvalidInput("report JSON needs a 'type'")
    fresh = _recompute(report, workers, heavy)
    ok = canonical_json(fresh) == canonical_json(report["result"])
    details = [{"check": "recompute_matches", "ok": ok}]
    if report["type"] == "recovery":
        details.extend(check_recovery_transcript(report))
    return all(d["ok"] for d in details), details
