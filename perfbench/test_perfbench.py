"""Tests of the benchmark itself: span arithmetic, percentile rule, output gate.

    python3 -m pytest perfbench
"""

import copy
import importlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, None, None)


def test_self_time_subtracts_merged_children_clipped_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] is covered once
        span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
        span("a.child", 1.5, 2.5, parent=1),  # counts against a, not root
    ]
    own = tracing.self_times(spans)
    assert own[0] == 10.0 - 4.0 - 1.0
    assert own[1] == 2.0 - 1.0
    assert own[2] == 3.0
    assert own[4] == 1.0


def test_recorder_links_nested_spans_to_their_parent_and_request():
    rec = tracing.Recorder()
    rec.request = 7
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.finish(inner, {"n": 1})
    rec.finish(outer)
    assert [s.parent for s in rec.spans] == [None, outer]
    assert [s.request for s in rec.spans] == [7, 7]
    assert rec.spans[inner].attrs == {"n": 1}
    assert all(s.end >= s.start for s in rec.spans)


def test_patches_trace_calls_and_restore_every_call_site():
    localize = importlib.import_module("apseq.localize")
    original = localize.kmeans_1d
    rec = tracing.Recorder()
    patches = tracing.Patches(rec)
    patches.install()
    try:
        assert localize.kmeans_1d is not original
        clustering = localize.kmeans_1d({1: -40.0, 2: -60.0, 3: -61.0}, 2)
    finally:
        patches.remove()
    assert localize.kmeans_1d is original
    (recorded,) = rec.spans
    assert recorded.name == "selection.kmeans_1d"
    assert recorded.attrs == {"iterations": clustering.iterations}


def test_layer_metrics_read_zero_for_layers_never_called():
    metrics = tracing.layer_metrics([], 0.0, 0.0)
    assert metrics["mapgen.build_fingerprint_map.calls"] == (0, "count")
    assert metrics["localize.hit_ratio"] == (0.0, "ratio")
    assert all(value == 0 for value, _ in metrics.values())


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(999)), 99) is None
    assert run.percentile(list(range(1000)), 99) == 989
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile([3.0] * 20, 50) == 3.0
    assert run.percentile([], 50) is None


def test_store_gate_trips_on_a_perturbed_digest():
    config = workloads.evaluate.load_config(os.path.join(workloads.DATA, "ecc.cfg"))
    deployment = workloads.model.load_deployment(config.deployment)
    stores = workloads.evaluate.build_stores(deployment, [7], config.cell_size)
    refs = workloads.load_references()

    passed = workloads.Outcomes()
    workloads.store_digests(stores, "ecc", refs, passed)
    assert (passed.attempted, passed.failed) == (1, 0)

    perturbed = copy.deepcopy(refs)
    digest = perturbed["store_sha256"]["ecc"]["7"]
    perturbed["store_sha256"]["ecc"]["7"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    tripped = workloads.Outcomes()
    workloads.store_digests(stores, "ecc", perturbed, tripped)
    assert (tripped.attempted, tripped.failed) == (1, 1)
    assert "differs from the reference" in tripped.messages[0]


def test_summary_gate_compares_missed_exactly_and_errors_to_three_decimals():
    want = {"missed": {"3": 0, "7": 5}, "median_error_m": {"3": 1.25, "7": 2.5}}
    same = copy.deepcopy(want)
    same["median_error_m"]["7"] = 2.5004
    assert workloads.summary_matches(same, want)
    moved = copy.deepcopy(want)
    moved["median_error_m"]["7"] = 2.501
    assert not workloads.summary_matches(moved, want)
    missed = copy.deepcopy(want)
    missed["missed"]["7"] = 6
    assert not workloads.summary_matches(missed, want)


def test_cpu_rotation_pins_one_cpu_at_a_time_and_restores():
    cpus = run.CpuRotation()
    allowed = set(cpus.cpus)
    try:
        for turn in range(2 * len(cpus.cpus)):
            cpus.pin(turn)
            if len(allowed) > 1:
                assert os.sched_getaffinity(0) == {cpus.cpus[turn % len(cpus.cpus)]}
    finally:
        cpus.restore()
    if allowed:
        assert os.sched_getaffinity(0) == allowed
