"""Tests of the benchmark's own arithmetic, tracing and input generation.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import matspace  # noqa: E402
from matspace import PrimeField, gaussian_binomial  # noqa: E402
from matspace.polys import Poly  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    #  0 [0, 100]
    #  |- 1 [10, 40]
    #  |  `- 2 [15, 25]
    #  `- 3 [50, 90]
    #  4 [200, 210]   (a second root)
    parents = [-1, 0, 1, 0, -1]
    starts = [0, 10, 15, 50, 200]
    ends = [100, 40, 25, 90, 210]
    assert tracing.self_times(parents, starts, ends) == [30, 20, 10, 40, 10]


def _span(tracer, name, parent, start, end):
    tracer.names.append(tracing.INDEX[name])
    tracer.parents.append(parent)
    tracer.ops.append(0)
    tracer.starts.append(start)
    tracer.ends.append(end)
    return len(tracer.starts) - 1


def test_span_metrics_on_a_synthetic_trace():
    ms = 1_000_000
    t = tracing.Tracer()
    rec = _span(t, "recovery.recover", -1, 0, 100 * ms)
    irr = _span(t, "predicates.irreducible", rec, 0, 60 * ms)
    _span(t, "predicates.spin", irr, 0, 50 * ms)
    ts = _span(t, "predicates.trivial_spectrum", rec, 60 * ms, 80 * ms)
    _span(t, "matrices.char_poly_rows", ts, 60 * ms, 70 * ms)
    _span(t, "matrices.is_diagonalizable", rec, 80 * ms, 85 * ms)  # not under a predicate
    _span(t, "matrices.char_poly_rows", -1, 200 * ms, 201 * ms)
    m = t.metrics()
    assert set(m) == set(tracing.SPAN_METRICS)
    assert m["recovery.recover.calls"] == 1
    assert m["recovery.recover.self_ms"] == pytest.approx(15)  # 100 - 60 - 20 - 5
    assert m["predicates.irreducible.self_ms"] == pytest.approx(10)
    assert m["predicates.spin.self_ms"] == pytest.approx(50)
    assert m["predicates.trivial_spectrum.self_ms"] == pytest.approx(10)
    assert m["matrices.char_poly_rows.calls"] == 2
    assert m["matrices.char_poly_rows.self_ms"] == pytest.approx(11)
    assert m["predicates.members_tested"] == 1
    assert m["recovery.advisory_ms"] == pytest.approx(80)
    assert m["recovery.advisory_share"] == pytest.approx(0.8)


def test_tracer_counts_a_recovery_and_restores_the_library():
    census_mod = sys.modules["matspace.census"]
    before = (
        matspace.recover,
        census_mod.irreducible,
        Poly.__dict__["pow_mod"],
        matspace.MatSpace.__dict__["element_rows"],
    )
    F = PrimeField(3)
    V = matspace.MatSpace.standard("sym", 2, F).conjugate(matspace.Matrix(F, [[1, 1], [0, 1]]))
    t = tracing.Tracer()
    t.install()
    try:
        t.op = 0
        rep = matspace.recover(V)
        matspace.serialize.canonical_json(matspace.serialize.recovery_report(rep))
    finally:
        t.uninstall()
    assert rep.status == "success"
    m = t.metrics()
    assert m["recovery.recover.calls"] == 1
    assert m["predicates.spin.calls"] > 0
    assert m["matrices.rref_rows.calls"] > 0
    assert m["fields.ops"] > 0
    assert m["spaces.MatSpace.element_rows.yielded"] == 3**1  # trivial_spectrum of the 1-dim orth
    assert m["serialize.canonical_json.self_ms"] > 0
    assert set(t.ops) == {0}
    after = (
        matspace.recover,
        census_mod.irreducible,
        Poly.__dict__["pow_mod"],
        matspace.MatSpace.__dict__["element_rows"],
    )
    assert all(a is b for a, b in zip(before, after))
    assert "div" not in PrimeField.__dict__


def test_max_worker_share_matches_hand_computed_partitions():
    # (3,3,1) at workers = 2: patterns 0..3 hold 3^8 + 3^7 + 3^6 + 3^5 subspaces.
    assert workloads.chunk_subspaces(3, 3, 1, [4, 5]) == [9720, 121]
    docs = [{"result": {"n": 3, "q": 3, "d": 1}, "meta": {"partition": [4, 5]}}]
    assert workloads.max_worker_share(docs) == pytest.approx(9720 / 9841)
    # (3,2,6) at workers = 4: 84 patterns in four chunks of 21.
    chunks = workloads.chunk_subspaces(3, 2, 6, [21, 21, 21, 21])
    assert sum(chunks) == 788_035
    assert round(max(chunks) / sum(chunks), 3) == 0.927


def test_pattern_weights_sum_to_the_gaussian_binomial():
    for n, q, d in ((2, 3, 2), (3, 2, 3), (3, 5, 1)):
        assert sum(workloads.pattern_weights(n, q, d)) == gaussian_binomial(n * n, d, q)


def test_chunks_follow_the_census_report_partition():
    rep = matspace.census(3, 3, 1, ["diag"], workers=2)
    doc = matspace.serialize.census_report_json(rep)
    assert doc["meta"]["partition"] == [4, 5]
    assert workloads.max_worker_share([doc]) == pytest.approx(9720 / 9841)


def _first_blocks(template, seed, k=2):
    stream = inputs.recover_blocks(template, seed)
    return [next(stream) for _ in range(k)]


def _as_json(blocks):
    return [
        [(inp.kind, matspace.serialize.space_to_json(inp.space)) for inp in block]
        for block in blocks
    ]


@pytest.mark.parametrize("template", [inputs.FP_BLOCK, inputs.Q_BLOCK])
def test_generator_is_deterministic_per_seed(template):
    a = _as_json(_first_blocks(template, 5))
    assert a == _as_json(_first_blocks(template, 5))
    assert a != _as_json(_first_blocks(template, 6))


@pytest.mark.parametrize("template", [inputs.FP_BLOCK, inputs.Q_BLOCK])
def test_generated_inputs_have_the_template_mix_and_full_dimension(template):
    for block in _first_blocks(template, 7):
        mix = sorted(
            (getattr(inp.space.field, "p", 0), inp.space.n, inp.kind) for inp in block
        )
        assert mix == sorted((p or 0, n, kind) for p, n, kind in template)
        for inp in block:
            n = inp.space.n
            assert inp.space.dim == n * (n + 1) // 2


def test_obstructed_inputs_have_a_non_square_discriminant():
    seen = 0
    for block in _first_blocks(inputs.FP_BLOCK, 8, k=3):
        for inp in block:
            if inp.kind == inputs.OBSTRUCTED:
                seen += 1
                assert inp.space.n % 2 == 0
                assert not inp.space.field.is_square(matspace.det(inp.P))
                assert inp.space.transform(inp.P, "right") == matspace.MatSpace.standard(
                    "sym", inp.space.n, inp.space.field
                )
    assert seen == 3 * sum(kind == inputs.OBSTRUCTED for _, _, kind in inputs.FP_BLOCK)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = workloads.tail([float(x) for x in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_benchmark_json_lists_what_the_benchmark_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
