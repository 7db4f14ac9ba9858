"""Benchmark of matspace's recovery and census, end to end and per layer.

    python3 perfbench/run.py --workload recover-fp --seed 1 --seconds 26 --trace 0

Run from the repository root.  `--trace 0` measures the end-to-end metrics;
`--trace 1` runs a fixed prefix of the same seed's inputs untraced and then
traced, and reports the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5


def import_library():
    """Import matspace from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    import matspace

    if not Path(matspace.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"matspace was imported from {matspace.__file__}, not from {SRC}")


def child_command(args, workload: str, *extra: str) -> list[str]:
    return [
        sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            child_command(args, args.workload, "--setup-only"),
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_all(args, names) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(child_command(args, name), stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    blocks = workloads.generate(workload, args.seed, workloads.block_count(workload, args.seconds))
    if args.setup_only:
        return 0
    gc.freeze()  # keep the collector from rescanning the inputs during the timed calls

    if args.trace:
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        ops, metrics = workloads.traced_run(workload, blocks[: workloads.TRACE_BLOCKS], dump)
        units = workloads.PER_LAYER
        print(f"span dump: {dump.relative_to(ROOT)}")
    else:
        setup_s = measure_setup(args)
        ops = workloads.run_rounds(workload, blocks)
        metrics = workloads.end_to_end(ops, setup_s)
        units = workloads.END_TO_END
        print("\n".join(workloads.report_lines(workload, ops, metrics)))
    failed = sum(not op.ok for op in ops)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
