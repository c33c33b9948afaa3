"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py -q

They run every workload at a tiny size (the monoid workload cannot be made
smaller from outside the CLI, so its test takes about as long as one
`lagrel verify monoid`), check the self-time arithmetic on synthetic spans,
and check that the emitted metric names are the names in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
    SPEC = json.load(fh)


def span(name, start, end, parent=-1, detail=None):
    return [name, start, end, parent, detail]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("invariants.invariant_space", 1.0, 6.0, 0, 4),
        span("exact_linalg.nullspace", 2.0, 3.0, 1),
        span("exact_linalg.nullspace", 4.0, 5.5, 1),
        span("linear_relations.compose", 7.0, 9.0, 0),
        span("exact_linalg.echelon", 7.5, 8.0, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 1.5, 0.5])
    m = tracing.layer_metrics(spans, {})
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["exact_linalg.self_s"] == pytest.approx(3.0)
    assert m["exact_linalg.nullspace.calls"] == 2
    assert m["invariants.invariant_space.d4.self_s"] == pytest.approx(2.5)
    # self times partition the root span's duration
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [span("a.x", 0.0, 4.0), span("a.y", 1.0, 3.0, 0), span("a.z", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_inclusive_time_counts_recursion_once():
    spans = [span("a.f", 0.0, 4.0), span("a.f", 1.0, 2.0, 0), span("a.g", 2.0, 3.0, 0)]
    assert tracing.inclusive_times(spans) == {"a.f": 4.0, "a.g": 1.0}


def test_useful_ratio_counts_compose_calls_under_closure():
    spans = [span("relation_monoid.closure", 0.0, 1.0)]
    spans += [span("linear_relations.compose", 0.1 * i, 0.1 * i + 0.05, 0) for i in range(4)]
    m = tracing.layer_metrics(spans, {"closure.new": 3, "closure.components": 6})
    assert m["relation_monoid.closure.useful_ratio"] == pytest.approx(0.75)
    assert m["relation_monoid.closure.components"] == 6


def test_per_layer_names_match_benchmark_json():
    emitted = set(tracing.layer_metrics([], {})) | {"cli.startup_s", "trace.overhead_ratio"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_names_match_benchmark_json():
    outcome = run.Outcome(latencies=[0.5, 1.0, 2.0], scaled=[0.4, 0.9, 1.8], units=3, wall=3.5)
    metrics = run.end_to_end(run.make_workload("weyl", 1, {}), 0.2, outcome)
    assert {(k, v["unit"]) for k, v in metrics.items()} == {
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    }


def test_tracer_restores_every_patched_name():
    from lagrel import cli, exact_linalg, relation_monoid, wgrs

    before = (exact_linalg._echelon, relation_monoid._echelon, cli.compose,
              wgrs.RootSystem.__dict__["weyl_group"],
              relation_monoid.LagrangianEquivalenceRelation.__dict__["weyl_group"])
    with tracing.Tracer("t"):
        assert relation_monoid._echelon is not before[1]
        assert relation_monoid._echelon.__wrapped__ is before[1]
    after = (exact_linalg._echelon, relation_monoid._echelon, cli.compose,
             wgrs.RootSystem.__dict__["weyl_group"],
             relation_monoid.LagrangianEquivalenceRelation.__dict__["weyl_group"])
    assert all(a is b for a, b in zip(before, after))


def test_seeded_pairs_are_reproducible_and_classified_right():
    from lagrel import catalog

    for m, n in ((2, 1), (2, 2), (1, 1)):
        rel = catalog("gl", m, n).build_relation(check=False)
        for seed in range(5):
            pairs = [run.related_pair(random.Random(seed), m, n),
                     run.unrelated_pair(random.Random(seed), m, n)]
            assert pairs == [run.related_pair(random.Random(seed), m, n),
                             run.unrelated_pair(random.Random(seed), m, n)]
            (x, y), (u, v) = pairs
            assert rel.membership(x, y)
            assert not rel.membership(u, v)
            assert run.power_sum(u, m, 2) != run.power_sum(v, m, 2)


def test_session_batches_ask_the_same_kinds():
    workload = run.make_workload("session", 1, {}, tiny=True)
    rng = random.Random(0)
    for _ in range(5):
        assert [(q.kind, q.related) for q in workload.make_batch(rng)] == list(workload.KINDS)


def test_measure_ends_within_half_a_step_of_the_deadline():
    class Steady:
        def run_round(self, k, outcome, speed):
            time.sleep(0.1)
            outcome.record(0.1, 1, None)

    # after three steps 0.3 + 0.05 < 0.42 starts a fourth; after four, 0.4 + 0.05 > 0.42 stops
    assert len(run.measure(Steady(), 0.42, run.HostSpeed()).latencies) == 4
    assert len(run.measure(Steady(), 0.01, run.HostSpeed()).latencies) == 1


def test_timed_scales_by_the_samples_around_the_call():
    speed = run.HostSpeed()
    speed.samples = [0.5]  # stale: taken long ago, so timed() samples afresh first
    wall, result, slowness = speed.timed(lambda: 7)
    assert result == 7 and wall >= 0
    assert len(speed.samples) == 3
    assert slowness == pytest.approx((speed.samples[1] + speed.samples[2]) / 2 / run.REF_NOMINAL_S)


def test_bad_output_counts_as_failed_op():
    job = run.Job("j", [], 1, run.digest_check("k", {"k": "0" * 64}))
    assert run.checked(job, b"{}") == "k: report differs from recorded digest"
    job = run.Job("j", [], 1, run.analyze_pair_check("k", {}, [1], [2], True))
    assert run.checked(job, b"not json").startswith("j: JSONDecodeError")
    assert run.monoid_check(3)(b"FAIL kernel_dims_equal: 999 ok, 1 failed (seed=3)\n")


@pytest.mark.parametrize("workload", ["analyze", "weyl", "session", "monoid"])
def test_tiny_workload_runs_clean(workload):
    result = run.run(workload, run.DEFAULT_SEED, 0.01, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["analyze", "weyl", "session"])
def test_tiny_traced_run_repeats_counts(workload):
    first = run.run(workload, run.HELD_OUT_SEED, 0.01, trace=True, tiny=True)
    second = run.run(workload, run.HELD_OUT_SEED, 0.01, trace=True, tiny=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0
