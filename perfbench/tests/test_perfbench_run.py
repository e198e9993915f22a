"""The traced run against the untraced one, and the metric lists against
BENCHMARK.json."""

import json

from perfbench import bench, gen, layers, workloads
from perfbench.spans import Tracer


def test_traced_run_repeats_the_untraced_verdicts_and_digest():
    items = gen.items("lp", 11, blocks=1)[:10]
    tracer = Tracer()
    with tracer.span("setup"):
        ctx = workloads.setup("lp", tracer)
    tracer.restore()
    plain, _, _, _ = bench.run_items(ctx, items)
    layers.install(tracer, ctx.en)
    try:
        traced, _, _, _ = bench.run_items(ctx, items, tracer=tracer)
    finally:
        tracer.restore()
    assert [v for _, v in traced] == [v for _, v in plain]
    assert not bench.errors_of(items, traced)
    assert gen.digest(items) == gen.digest(gen.items("lp", 11, blocks=1)[:10])
    metrics = layers.metrics(tracer)
    assert set(metrics) | {"trace.overhead"} == {n for n, _ in layers.per_layer_metrics()}
    feasible_items = sum(item["kind"] == "feasible" for item in items)
    assert metrics["lpbound.lp_feasible.calls"] == feasible_items + 1  # plus the warm-up call
    decided = sum(metrics[k] for k in layers.DECIDERS.values())
    assert decided == metrics["lpbound.lp_feasible.calls"]
    assert metrics["lpbound.solve_phase1.calls"] >= len(items) - feasible_items
    # the wrappers are gone again
    assert ctx.en.lp_feasible.__module__ == "entronet.lpbound"
    assert not hasattr(ctx.en.lp_feasible, "__wrapped__")


def test_wrong_verdicts_are_reported():
    items = gen.items("lp", 11, blocks=1)[:2]
    records = [(0.1, {"implied": not items[0]["expect"]["implied"], "certificate": []}),
               (0.1, "RuntimeError: boom")]
    assert [i for i, _ in bench.errors_of(items, records)] == [0, 1]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(gen.PATTERN) == set(workloads.WORKLOADS)


def test_reference_samples_fall_between_items_and_not_in_the_gaps():
    items = gen.items("lp", 11, blocks=1)[:4]
    ctx = workloads.setup("lp")
    refs = []
    records, _, late_total, _ = bench.run_items(ctx, items, refs=refs)
    assert len(records) == len(items) and not bench.errors_of(items, records)
    assert 1 <= len(refs) <= len(items)
    assert all(t > 0 for t in refs) and late_total < sum(refs)
    assert bench.reference() == bench.reference() == 150
