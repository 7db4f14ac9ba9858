"""Span tracing of matspace's layers, installed from outside the library.

`Tracer.install` replaces the public callables listed in TIMED with wrappers
that record one span per call: name, start, end, parent span and op id.  A
name is replaced in every matspace module that holds it, because `recovery`,
`census` and `predicates` import their callees by name.  Field operations are
counted without spans (there are millions), and the `element_rows` generator
is counted per yielded member, not timed.  Spans stay in compact arrays until
`dump` writes them at the end of the run.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

# (module, attribute, span name).  Attributes with a dot are class members.
TIMED = (
    ("polys", "Poly.pow_mod", "polys.pow_mod"),
    ("polys", "Poly.gcd", "polys.gcd"),
    ("matrices", "rref_rows", "matrices.rref_rows"),
    ("matrices", "invert", "matrices.invert"),
    ("matrices", "kernel_rows", "matrices.kernel_rows"),
    ("matrices", "char_poly_rows", "matrices.char_poly_rows"),
    ("matrices", "eigenvalues_in_field", "matrices.eigenvalues_in_field"),
    ("matrices", "is_diagonalizable", "matrices.is_diagonalizable"),
    ("matrices", "min_poly", "matrices.min_poly"),
    ("gf2", "irreducible_bits", "gf2.irreducible_bits"),
    ("gf2", "rref_bits", "gf2.rref_bits"),
    ("gf2", "diagonalizable_table", "gf2.diagonalizable_table"),
    ("gf2", "eigenvalue_one_free_table", "gf2.eigenvalue_one_free_table"),
    ("gf2", "action_table", "gf2.action_table"),
    ("spaces", "MatSpace.orth", "spaces.MatSpace.orth"),
    ("spaces", "MatSpace.transform", "spaces.MatSpace.transform"),
    ("spaces", "MatSpace.contains", "spaces.MatSpace.contains"),
    ("spaces", "VecSpace.contains", "spaces.VecSpace.contains"),
    ("spaces", "VecSpace.with_vector", "spaces.VecSpace.with_vector"),
    ("predicates", "spin", "predicates.spin"),
    ("predicates", "irreducible", "predicates.irreducible"),
    ("predicates", "trivial_spectrum", "predicates.trivial_spectrum"),
    ("predicates", "all_diagonalizable", "predicates.all_diagonalizable"),
    ("predicates", "non_isotropic", "predicates.non_isotropic"),
    ("recovery", "recover", "recovery.recover"),
    ("recovery", "solve_symmetrizer", "recovery.solve_symmetrizer"),
    ("recovery", "congruence_diagonalize", "recovery.congruence_diagonalize"),
    ("census", "census", "census.census"),
    ("serialize", "recovery_report", "serialize.recovery_report"),
    ("serialize", "canonical_json", "serialize.canonical_json"),
    ("serialize", "check_recovery_transcript", "serialize.check_recovery_transcript"),
    ("serialize", "census_report_json", "serialize.census_report_json"),
)
NAMES = tuple(name for _, _, name in TIMED)
INDEX = {name: i for i, name in enumerate(NAMES)}

# Predicates return a Verdict; their "unknown" answers are counted.
VERDICT_PREDICATES = (
    "predicates.irreducible",
    "predicates.trivial_spectrum",
    "predicates.all_diagonalizable",
    "predicates.non_isotropic",
)
ADVISORY = ("predicates.irreducible", "predicates.trivial_spectrum", "predicates.non_isotropic")
MEMBER_TESTS = ("matrices.is_diagonalizable", "matrices.char_poly_rows")
GF2_TABLES = ("gf2.diagonalizable_table", "gf2.eigenvalue_one_free_table", "gf2.action_table")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")

# Every per-layer metric the benchmark reports, with its unit.  The last
# group is filled in by the workloads, not from spans.
SPAN_METRICS = {
    "fields.ops": "count",
    "polys.pow_mod.calls": "count",
    "polys.pow_mod.self_ms": "ms",
    "polys.gcd.self_ms": "ms",
    "matrices.rref_rows.calls": "count",
    "matrices.rref_rows.self_ms": "ms",
    "matrices.invert.calls": "count",
    "matrices.kernel_rows.calls": "count",
    "matrices.char_poly_rows.calls": "count",
    "matrices.char_poly_rows.self_ms": "ms",
    "matrices.eigenvalues_in_field.self_ms": "ms",
    "matrices.is_diagonalizable.calls": "count",
    "matrices.is_diagonalizable.self_ms": "ms",
    "matrices.min_poly.self_ms": "ms",
    "gf2.irreducible_bits.calls": "count",
    "gf2.irreducible_bits.self_ms": "ms",
    "gf2.tables_ms": "ms",
    "gf2.rref_bits.calls": "count",
    "spaces.MatSpace.orth.self_ms": "ms",
    "spaces.MatSpace.transform.self_ms": "ms",
    "spaces.MatSpace.contains.calls": "count",
    "spaces.MatSpace.element_rows.yielded": "count",
    "spaces.VecSpace.contains.calls": "count",
    "spaces.VecSpace.contains.self_ms": "ms",
    "spaces.VecSpace.with_vector.calls": "count",
    "predicates.spin.calls": "count",
    "predicates.spin.self_ms": "ms",
    "predicates.irreducible.self_ms": "ms",
    "predicates.trivial_spectrum.self_ms": "ms",
    "predicates.all_diagonalizable.self_ms": "ms",
    "predicates.non_isotropic.self_ms": "ms",
    "predicates.members_tested": "count",
    "predicates.unknown_frac": "ratio",
    "recovery.recover.calls": "count",
    "recovery.recover.self_ms": "ms",
    "recovery.advisory_ms": "ms",
    "recovery.advisory_share": "ratio",
    "recovery.solve_symmetrizer.self_ms": "ms",
    "recovery.congruence_diagonalize.self_ms": "ms",
    "census.census.self_ms": "ms",
    "serialize.recovery_report.self_ms": "ms",
    "serialize.canonical_json.self_ms": "ms",
    "serialize.check_recovery_transcript.self_ms": "ms",
    "serialize.census_report_json.self_ms": "ms",
}
WORKLOAD_METRICS = {
    "recovery.decided_frac": "ratio",
    "census.subspaces": "count",
    "census.max_worker_share": "ratio",
    "census.bits_subspaces_per_s": "1/s",
    "census.bits_w2_subspaces_per_s": "1/s",
    "census.generic_subspaces_per_s": "1/s",
    "census.generic_w2_subspaces_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {**SPAN_METRICS, **WORKLOAD_METRICS}


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span are disjoint and
    lie inside it; their durations simply add up.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def _matspace_modules():
    return [m for name, m in list(sys.modules.items()) if name == "matspace" or name.startswith("matspace.")]


class Tracer:
    def __init__(self):
        self.names = array("H")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self.op = -1
        self.field_ops = 0
        self.yielded = 0
        self.verdicts = 0
        self.unknown = 0
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, idx: int, fn):
        names, parents, ops, starts, ends = self.names, self.parents, self.ops, self.starts, self.ends
        stack = self._stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ops.append(self.op)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()

        if NAMES[idx] not in VERDICT_PREDICATES:
            return traced

        def traced_verdict(*args, **kwargs):
            verdict = traced(*args, **kwargs)
            self.verdicts += 1
            self.unknown += verdict.status == "unknown"
            return verdict

        return traced_verdict

    def _count_field_op(self, fn):
        def counted(*args):
            self.field_ops += 1
            return fn(*args)

        return counted

    def _count_yields(self, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.yielded += 1
                yield item

        return counted

    # -- patching ------------------------------------------------------------

    def _patch_class(self, cls, attr: str, make):
        had = attr in cls.__dict__
        raw = cls.__dict__[attr] if had else getattr(cls, attr)
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        self._restore.append((cls, attr, raw if had else None))

    def _patch_everywhere(self, orig, wrapper):
        for module in _matspace_modules():
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, orig))

    def install(self):
        from matspace import PrimeField, RationalField

        for idx, (mod_name, attr, _) in enumerate(TIMED):
            module = importlib.import_module(f"matspace.{mod_name}")
            if "." in attr:
                cls_name, member = attr.split(".")
                self._patch_class(getattr(module, cls_name), member, lambda f, i=idx: self._timed(i, f))
            else:
                orig = getattr(module, attr)
                self._patch_everywhere(orig, self._timed(idx, orig))
        spaces = importlib.import_module("matspace.spaces")
        self._patch_class(spaces.MatSpace, "element_rows", self._count_yields)
        for cls in (PrimeField, RationalField):
            for op in FIELD_OPS:
                self._patch_class(cls, op, self._count_field_op)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def dump(self, path):
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.starts)):
                out.write(
                    f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{NAMES[self.names[i]]}"
                    f"\t{self.starts[i]}\t{self.ends[i]}\n"
                )

    def metrics(self) -> dict:
        """SPAN_METRICS values computed from the recorded spans and counters."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        k = len(NAMES)
        calls = [0] * k
        self_ns = [0] * k
        total_ns = [0] * k
        for i, s in enumerate(self_times(parents, starts, ends)):
            idx = names[i]
            calls[idx] += 1
            self_ns[idx] += s
            total_ns[idx] += ends[i] - starts[i]

        # Parents precede their children, so one forward pass marks ancestry.
        pred_idx = {INDEX[n] for n in VERDICT_PREDICATES} | {INDEX["predicates.spin"]}
        member_idx = {INDEX[n] for n in MEMBER_TESTS}
        advisory_idx = {INDEX[n] for n in ADVISORY}
        recover_idx = INDEX["recovery.recover"]
        under_pred = bytearray(len(names))
        under_recover = bytearray(len(names))
        members = 0
        advisory_ns = 0
        for i, p in enumerate(parents):
            if p < 0:
                continue
            under_pred[i] = under_pred[p] or names[p] in pred_idx
            under_recover[i] = under_recover[p] or names[p] == recover_idx
            if under_pred[i] and names[i] in member_idx:
                members += 1
            if under_recover[i] and names[i] in advisory_idx:
                advisory_ns += ends[i] - starts[i]

        def c(name):
            return calls[INDEX[name]]

        def self_ms(name):
            return self_ns[INDEX[name]] / 1e6

        out = {"fields.ops": self.field_ops}
        for metric in SPAN_METRICS:
            if metric.endswith(".calls"):
                out[metric] = c(metric[: -len(".calls")])
            elif metric.endswith(".self_ms"):
                out[metric] = self_ms(metric[: -len(".self_ms")])
        recover_ns = total_ns[recover_idx]
        out.update(
            {
                "gf2.tables_ms": sum(total_ns[INDEX[n]] for n in GF2_TABLES) / 1e6,
                "spaces.MatSpace.element_rows.yielded": self.yielded,
                "predicates.members_tested": members,
                "predicates.unknown_frac": self.unknown / self.verdicts if self.verdicts else 0.0,
                "recovery.advisory_ms": advisory_ns / 1e6,
                "recovery.advisory_share": advisory_ns / recover_ns if recover_ns else 0.0,
            }
        )
        return {name: out[name] for name in SPAN_METRICS}
