"""The three closed-loop workloads, their correctness checks and metrics.

Each workload is one client that waits for every result before it sends the
next input.  Work comes in blocks (a recovery block, or one census pass).  A
run times a fixed number of blocks, chosen from --seconds.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Iterator

import matspace
from matspace import serialize

import inputs
from tracing import PER_LAYER, Tracer

SUCCESS, FAILURE = "success", "failure"
DECIDED = (SUCCESS, FAILURE)

TRACE_BLOCKS = 1  # the prefix a traced run covers

END_TO_END = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    latency: float  # seconds inside the timed calls
    work: int  # 1 per recovered input, or the subspaces of a census job
    ok: bool
    tag: str  # recovery status, or the census engine
    workers: dict | None = None  # census: workers -> (seconds, report)


def guarded(fn, *args) -> Op:
    """Run one op; an exception is reported and counted as a failed op."""
    t0 = perf_counter()
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Op(perf_counter() - t0, 0, False, "exception")


# -- recovery ----------------------------------------------------------------


def recover_op(inp: inputs.RecoverInput) -> Op:
    t0 = perf_counter()
    rep = matspace.recover(inp.space)
    doc = serialize.recovery_report(rep)
    serialize.canonical_json(doc)
    latency = perf_counter() - t0
    return Op(latency, 1, recover_ok(inp, rep, doc), rep.status)


def recover_ok(inp: inputs.RecoverInput, rep, doc: dict) -> bool:
    if not all(check["ok"] for check in serialize.check_recovery_transcript(doc)):
        return False
    if not rep.space.field.is_finite:
        return rep.status != FAILURE
    if inp.kind == inputs.CONJUGATE:
        return rep.status == SUCCESS
    if inp.kind == inputs.OBSTRUCTED:
        return (
            rep.status == FAILURE
            and rep.failure_stage == "square_class"
            and rep.witness is not None
        )
    return True


def run_recover_block(block, tracer: Tracer | None = None) -> list[Op]:
    ops = []
    for inp in block:
        if tracer is not None:
            tracer.op += 1
        ops.append(guarded(recover_op, inp))
    return ops


# -- census ------------------------------------------------------------------


def census_op(job: inputs.CensusJob, workers) -> Op:
    """One census job at each worker count; the op is correct when every
    report has the frozen counts and the same result section."""
    runs = {}
    for w in workers:
        t0 = perf_counter()
        rep = matspace.census(
            job.n, job.q, job.d, list(job.predicates), workers=w, heavy=True, engine=job.engine
        )
        doc = serialize.census_report_json(rep)
        runs[w] = (perf_counter() - t0, doc)
    results = {_result_bytes(doc) for _, doc in runs.values()}
    result = runs[workers[0]][1]["result"]
    ok = (
        len(results) == 1
        and result["total"] == job.total
        and tuple(result["counts"].values()) == job.counts
    )
    return Op(sum(t for t, _ in runs.values()), job.total * len(workers), ok, job.engine, runs)


def _result_bytes(doc: dict, drop=()) -> str:
    return serialize.canonical_json({k: v for k, v in doc["result"].items() if k not in drop})


def run_census_pass(jobs, workers=inputs.CENSUS_WORKERS, tracer: Tracer | None = None) -> list[Op]:
    """Every job, then the cross-engine check: a generic result must equal the
    bits result of the same job, apart from the engine name."""
    done = {}
    for job in jobs:
        if tracer is not None:
            tracer.op += 1
        done[job] = guarded(census_op, job, workers)
    bits = {job.spec: done[job] for job in jobs if job.engine == "bits"}
    for job, op in done.items():
        twin = bits.get(job.spec)
        if job.engine == "generic" and twin is not None and not _engines_agree(op, twin):
            op.ok = False
    return list(done.values())


def _engines_agree(a: Op, b: Op) -> bool:
    if a.workers is None or b.workers is None:
        return False
    (_, doc_a), (_, doc_b) = next(iter(a.workers.values())), next(iter(b.workers.values()))
    return _result_bytes(doc_a, ("engine",)) == _result_bytes(doc_b, ("engine",))


def pattern_weights(n: int, q: int, d: int) -> list[int]:
    """Subspaces per pivot pattern (q^free), in the census enumeration order."""
    m = n * n
    return [
        q ** sum((m - 1 - c) - (d - 1 - r) for r, c in enumerate(pattern))
        for pattern in itertools.combinations(range(m), d)
    ]


def chunk_subspaces(n: int, q: int, d: int, partition: list[int]) -> list[int]:
    """Subspaces in each worker chunk of a census report's pattern partition."""
    weights = pattern_weights(n, q, d)
    out, start = [], 0
    for size in partition:
        out.append(sum(weights[start : start + size]))
        start += size
    return out


def max_worker_share(docs) -> float:
    """Largest chunk's share of the subspaces, summed over census reports (0 without any)."""
    largest = total = 0
    for doc in docs:
        r = doc["result"]
        chunks = chunk_subspaces(r["n"], r["q"], r["d"], doc["meta"]["partition"])
        largest += max(chunks)
        total += sum(chunks)
    return largest / total if total else 0.0


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[int], Iterator]  # seed -> endless stream of blocks
    run_block: Callable[..., list[Op]]  # (block, tracer=None) -> ops
    nominal_block_s: float  # one block on a quiet 2-core machine
    rounds: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recover-fp", partial(inputs.recover_blocks, inputs.FP_BLOCK), run_recover_block, 3.75),
        Workload("recover-q", partial(inputs.recover_blocks, inputs.Q_BLOCK), run_recover_block, 4.2),
        # The census jobs are fixed; the seed has nothing to pick.  A pass has
        # only 8 ops of seconds each, so each is timed in two rounds.
        Workload("census", lambda seed: itertools.repeat(inputs.CENSUS_JOBS), run_census_pass, 20.0, 2),
    )
}


def block_count(workload: Workload, seconds: float) -> int:
    """As many blocks as fit in `seconds` at the nominal block time, and at least one.

    So the same seed and --seconds always measure the same inputs, and a
    latency percentile always lands in the same input class.
    """
    return max(1, int(seconds // (workload.rounds * workload.nominal_block_s)))


def generate(workload: Workload, seed: int, count: int) -> list:
    """Set-up: the first `count` blocks of the seed's input stream."""
    return list(itertools.islice(workload.blocks(seed), count))


def run_rounds(workload: Workload, blocks: list) -> list[Op]:
    """Every op once per round; its latency is the mean over the rounds."""
    rounds = [
        [op for block in blocks for op in workload.run_block(block)]
        for _ in range(workload.rounds)
    ]
    return [_mean(timings) for timings in zip(*rounds)]


def _mean(ops) -> Op:
    first = ops[0]
    ok = all(op.ok for op in ops)
    latency = statistics.fmean(op.latency for op in ops)
    if any(op.workers is None for op in ops):
        return Op(latency, first.work, ok and first.workers is None, first.tag)
    workers = {
        w: (statistics.fmean(op.workers[w][0] for op in ops), doc)
        for w, (_, doc) in first.workers.items()
    }
    return Op(latency, first.work, ok, first.tag, workers)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n).

    With 10 samples or fewer no percentile qualifies, and the maximum is used.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return xs[k], 100 * (k + 1) / n, n


def throughput(ops) -> float:
    busy = sum(op.latency for op in ops)
    return sum(op.work for op in ops) / busy if busy else 0.0


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    latencies = [op.latency for op in ops]
    return {
        "p50_ms": statistics.median(latencies) * 1000,
        "tail_ms": tail(latencies)[0] * 1000,
        "ops_per_s": throughput(ops),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def census_runs(ops: list[Op], workers: int, engine: str | None = None) -> list[tuple[float, dict]]:
    """(seconds, report) of every census call made at one worker count."""
    return [
        op.workers[workers]
        for op in ops
        if op.workers and workers in op.workers and engine in (None, op.tag)
    ]


def census_breakdown(ops: list[Op]) -> dict:
    """Subspaces per second of busy time, per engine and worker count."""
    out = {}
    for engine in ("bits", "generic"):
        for w, suffix in ((1, ""), (2, "_w2")):
            runs = census_runs(ops, w, engine)
            busy = sum(t for t, _ in runs)
            work = sum(doc["result"]["total"] for _, doc in runs)
            out[f"census.{engine}{suffix}_subspaces_per_s"] = work / busy if busy else 0.0
    return out


def decided_frac(ops: list[Op]) -> float:
    """Share of recoveries ending in success or failure."""
    statuses = [op.tag for op in ops if op.tag != "exception"]
    return sum(s in DECIDED for s in statuses) / len(statuses) if statuses else 0.0


def report_lines(workload: Workload, ops: list[Op], metrics: dict) -> list[str]:
    """Human-readable summary under the metric names of the issue tracker's table."""
    failed = sum(not op.ok for op in ops)
    lines = [f"workload {workload.name}: {len(ops)} ops, {failed} failed"]

    def line(name, value, unit, note=""):
        lines.append(f"  {name:36s} {value:14.6g} {unit:6s} {note}")

    if workload.name == "census":
        for key, value in census_breakdown(ops).items():
            line(key.replace(".", "_"), value, "1/s")
    else:
        _, pct, n = tail([op.latency for op in ops])
        line("recover_p50_ms", metrics["p50_ms"], "ms")
        beyond = 10 if n > 10 else 0
        line("recover_tail_ms", metrics["tail_ms"], "ms", f"p{pct:.1f} of {n} samples, {beyond} beyond")
        line("recover_ops_per_s", metrics["ops_per_s"], "1/s")
        line("recover_decided_frac", decided_frac(ops), "ratio")
    line("failed_frac", failed / len(ops), "ratio")
    line("setup_s", metrics["setup_s"], "s")
    line("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    return lines


def traced_run(workload: Workload, prefix: list, dump_path) -> tuple[list[Op], dict]:
    """Per-layer metrics from the fixed prefix, each op run untraced and then traced.

    Running the two back to back keeps the machine's speed swings out of
    the tracing overhead.  Census is traced at workers = 1 only, since spans
    made in pool workers would be lost; its untraced runs also cover
    workers = 2, which gives the partition share and the per-engine
    throughputs.  The cross-engine check needs a whole pass and is left to
    the untraced benchmark.
    """
    from matspace import gf2

    census = workload.name == "census"
    run_traced = partial(run_census_pass, workers=(1,)) if census else workload.run_block
    tracer = Tracer()
    plain, traced = [], []
    for i, unit in enumerate(unit for block in prefix for unit in block):
        plain += workload.run_block([unit])
        if i == 0:
            # The first untraced op built the gf2 tables; the traced one does too.
            for table in (gf2.diagonalizable_table, gf2.eigenvalue_one_free_table, gf2.action_table):
                table.cache_clear()
        tracer.install()
        try:
            traced += run_traced([unit], tracer=tracer)
        finally:
            tracer.uninstall()
    tracer.dump(dump_path)

    plain_busy = sum(t for t, _ in census_runs(plain, 1)) if census else sum(op.latency for op in plain)
    metrics = tracer.metrics()
    metrics.update(
        {
            "recovery.decided_frac": 0.0 if census else decided_frac(traced),
            "census.subspaces": sum(doc["result"]["total"] for _, doc in census_runs(traced, 1)),
            "census.max_worker_share": max_worker_share([doc for _, doc in census_runs(plain, 2)]),
            **census_breakdown(plain),
            "trace.overhead_frac": sum(op.latency for op in traced) / plain_busy - 1,
        }
    )
    if set(metrics) != set(PER_LAYER):
        raise AssertionError(f"per-layer metrics out of sync: {set(metrics) ^ set(PER_LAYER)}")
    return plain + traced, metrics

