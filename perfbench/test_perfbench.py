"""Tests of the benchmark harness itself (small inputs, a few seconds)."""

import gc
import time

import pytest

import measure
import workloads
from calibrate import Clock
from measure import ColdGuard, Run, SharedPointSetError, certificate_error, wrong_outcome
from planetree.builder import BuildReport, build_plane_tree
from planetree.generators import random_instance
from planetree.instance_io import dumps_instance, loads_instance
from tracing import Tracer


def small_items(seed):
    return (
        workloads.budgeted_large(seed, sizes=(12,), per_size=2)
        + workloads.tight_rcons(seed, sizes=(11,))
        + workloads.batch_small(seed, trials=16)
        + workloads.fallback_oracle(seed, sizes=(8,))
    )


def traced_run(items):
    run = Run(items, [loads_instance(item["text"]) for item in items])
    run.measure(seconds=0, trace=True)
    return run


def test_repeated_point_set_builds_warm():
    caches = workloads.package_caches()
    if not caches:
        pytest.skip("the package caches nothing, so a repeat cannot build warm")
    from planetree import triangles

    g = random_instance(14, 5).graph
    for clear in caches:
        clear()
    build_plane_tree(g)
    cold = triangles._empty_triples.cache_info()
    build_plane_tree(g)
    warm = triangles._empty_triples.cache_info()
    assert warm.misses == cold.misses
    assert warm.hits > cold.hits


def test_guard_refuses_a_shared_point_tuple():
    budgeted = random_instance(10, 3).graph
    complete = random_instance(10, 3, mode="complete").graph
    guard = ColdGuard()
    guard.admit(budgeted)
    with pytest.raises(SharedPointSetError):
        guard.admit(complete)


def test_run_refuses_an_instance_that_repeats_a_translate():
    items = workloads.fallback_oracle(0, sizes=(6,))
    graphs = [loads_instance(items[0]["text"]), measure.translated(items[0], 5)]
    with pytest.raises(SharedPointSetError):
        Run(items * 2, graphs)


def test_passes_agree_and_exact_counters_repeat_for_a_seed():
    items = small_items(4)
    first = traced_run(items)
    assert first.failures == []
    assert min(first.passes.values()) >= measure.MIN_TRACED_PASSES
    again = traced_run(small_items(4))
    assert again.failures == []
    exact = ("oracle.nodes", "rotation.states", "triangles.root.calls",
             "triangles.side.calls", "builder.splits", "graphs.certify.calls")
    for name in exact:
        assert first.counts[name] > 0
        assert again.counts[name] == first.counts[name], name
    assert again.counts == first.counts


def test_every_workload_generates_its_certificate():
    for item in small_items(2):
        assert certificate_error(item, loads_instance(item["text"])) is None


def test_wrong_outcomes_are_failures():
    tree_item = workloads.tight_rcons(0, sizes=(9,))[0]
    g = loads_instance(tree_item["text"])
    good = build_plane_tree(g)
    assert wrong_outcome(tree_item, g, good, None) is None
    assert wrong_outcome(tree_item, g, BuildReport(tree=None), None) == "no tree returned"
    flagged = BuildReport(tree=good.tree, theorem_gap_fallback_used=True)
    assert "flags" in wrong_outcome(tree_item, g, flagged, None)

    none_item = workloads.fallback_oracle(0, sizes=(7,))[0]
    h = loads_instance(none_item["text"])
    assert wrong_outcome(none_item, h, build_plane_tree(h), None) is None
    assert wrong_outcome(none_item, h, BuildReport(tree=None), None) == (
        "precondition_violated not set"
    )

    wrong_count = dict(tree_item, certificate=["exactly", 0])
    assert certificate_error(wrong_count, g) is not None


def test_run_counts_a_changed_tree_as_a_failure():
    items = workloads.tight_rcons(0, sizes=(9,))
    run = Run(items, [loads_instance(item["text"]) for item in items])
    run.one_pass(0, None)
    run.edges[0] = [(0, 1)]
    run.one_pass(1, None)
    assert run.failures == ["pass 1 rcons-9: tree differs from the first pass"]


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [("builder", 0.0, 10.0, -1), ("rotation", 1.0, 4.0, 0),
                    ("oracle", 5.0, 6.0, 0), ("graphs.certify", 5.5, 5.75, 2)]
    assert tracer.self_times() == {"builder": 6.0, "rotation": 3.0, "oracle": 0.75,
                                   "graphs.certify": 0.25}


def test_tracer_restores_the_builder():
    import planetree.builder as builder

    before = builder.find_valid_split
    with Tracer().installed():
        assert builder.find_valid_split is not before
    assert builder.find_valid_split is before


def test_translation_keeps_the_instance():
    g = random_instance(9, 1).graph
    item = {"text": dumps_instance(g)}
    moved = measure.translated(item, 3)
    assert moved.edges == g.edges
    assert [(p.x - 3, p.y) for p in moved.ps] == [(p.x, p.y) for p in g.ps]


def test_calibrated_seconds_add_up_and_skip_the_kernel():
    clock = Clock()
    with clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.15:
            pass
        middle = time.perf_counter()
        while time.perf_counter() - middle < 0.15:
            pass
        end = time.perf_counter()
    whole = clock.seconds(start, end)
    assert whole > 0
    assert abs(clock.seconds(start, middle) + clock.seconds(middle, end) - whole) < 1e-12
    assert sum(start < s < end for s in clock._starts) >= 4
    with pytest.raises(ValueError):
        clock.seconds(start, end + 60)


def test_no_collection_lands_in_a_kernel_sample():
    clock = Clock()
    in_kernel = []

    def seen(phase, info):
        if phase == "start":
            in_kernel.append(clock._busy)

    thresholds = gc.get_threshold()
    # Collect at nearly every allocation, so a kernel run with the
    # collector on would start one.
    gc.set_threshold(1)
    gc.callbacks.append(seen)
    try:
        with clock:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                [[], {}]
    finally:
        gc.callbacks.remove(seen)
        gc.set_threshold(*thresholds)
    assert gc.isenabled()
    assert in_kernel and not any(in_kernel)
