"""The lazy split scan against a full-turn reference.

`find_valid_split` takes states from `rotation.sweep_states` and stops
at the first one whose closed sides both pass; only a case-2 tag runs
the whole turn.  The reference below is the earlier scan, kept here
only as a test oracle: it stores the whole turn with `full_rotation`,
scans it for the first qualifying state and tags that state from the
stored sequence, matching the case-2 event by identity.  Its case-2
walk tests each crossing with `_diagnostics.line_crosses_triangle`, one
cross sign per vertex, where `case2_walk` reads the stored sides.  Both
must pick the same state with the same tag.
"""

import random

import pytest
from _diagnostics import line_crosses_triangle
from test_sweep_kernel import kernel_point_sets

import planetree.builder as builder
from planetree.builder import (
    CASE1,
    CASE2,
    CASE2_1,
    CASE2_2,
    CASE3,
    CASE4,
    case2_walk,
    find_valid_split,
)
from planetree.generators import r_construction, random_instance, random_point_set
from planetree.graphs import GeometricGraph, complete_graph
from planetree.rotation import EVENT, full_rotation, sweep_states
from planetree.triangles import disconnected_empty_triangles

# Budgeted instances, (n, seed), whose root split is tagged case 2.
CASE2_INSTANCES = ((8, 327), (10, 1000400), (6, 1000500), (5, 1000563))


def _low(witnesses, side):
    inside = sum(u in side and v in side and w in side for u, v, w in witnesses)
    return inside <= len(side) - 3


def reference_split(g):
    """(index, line, left, right, tag) of the first qualifying state, or None."""
    witnesses = disconnected_empty_triangles(g).witnesses
    seq = full_rotation(g.ps)
    for index, (line, part) in enumerate(seq.states()):
        if len(part.left) < 3 or len(part.right) < 3:
            continue
        if _low(witnesses, part.left) and _low(witnesses, part.right):
            return index, line, part.left, part.right, reference_tag(g, seq, line, witnesses)
    return None


def reference_tag(g, seq, winner, witnesses):
    part0 = seq.intermediate_partitions[0]
    low_left = _low(witnesses, part0.left)
    low_right = _low(witnesses, part0.right)
    if winner is seq.intermediates[0]:
        return CASE1
    if low_left and not low_right:
        return CASE4
    if not low_left and low_right:
        return CASE3
    walk = reference_case2_walk(g.ps, seq, witnesses)
    if walk is not None:
        subcase, event_idx, _ = walk
        if winner.kind == EVENT and seq.events[event_idx] is winner:
            return subcase
    return CASE2


def reference_case2_walk(ps, seq, witnesses):
    """`case2_walk` with the crossing test recomputed from signs; seq is
    the sweep of ps."""
    if not witnesses:
        return None
    parts = seq.intermediate_partitions
    first_cross = next(
        (
            idx
            for idx, line in enumerate(seq.intermediates)
            if any(line_crosses_triangle(line, t, ps) for t in witnesses)
        ),
        None,
    )
    if first_cross is None or first_cross == 0:
        return None
    before = first_cross - 1
    on_before = seq.intermediates[before].pivot
    came_from_right = seq.intermediates[first_cross].pivot in parts[before].right
    if came_from_right:
        subcase, target = CASE2_1, parts[before].left - {on_before}
    else:
        subcase, target = CASE2_2, parts[before].right - {on_before}
    for t in range(first_cross + 1, len(seq.intermediates)):
        if seq.intermediates[t].pivot in target:
            return subcase, t - 1, before
    return None


def lazy_split(g, monkeypatch):
    """find_valid_split's result and the number of states it took."""
    taken = []

    def counted(ps):
        for state in sweep_states(ps):
            taken.append(state)
            yield state

    with monkeypatch.context() as patch:
        patch.setattr(builder, "sweep_states", counted)
        split = find_valid_split(g, disconnected_empty_triangles(g).witnesses)
    return split, len(taken)


def _graphs():
    rng = random.Random(11)
    for ps in kernel_point_sets():
        if len(ps) < 5:
            continue
        yield complete_graph(ps)
        edges = sorted(complete_graph(ps).edges)
        yield GeometricGraph(ps, frozenset(e for e in edges if rng.random() < 0.85))
    for _ in range(120):
        n = rng.randint(5, 12)
        ps = random_point_set(n, rng)
        edges = sorted(complete_graph(ps).edges)
        density = rng.choice((0.3, 0.6, 0.85, 0.95))
        yield GeometricGraph(ps, frozenset(e for e in edges if rng.random() < density))
    for n in range(5, 40, 2):
        yield random_instance(n, seed=rng.randrange(2**30)).graph
    for n in range(5, 30, 3):
        yield from (inst.graph for inst in r_construction(n))
    for n, seed in CASE2_INSTANCES:
        yield random_instance(n, seed=seed).graph


def test_draining_the_generator_gives_the_full_rotation_states():
    for ps in kernel_point_sets():
        seq = full_rotation(ps)
        states = sweep_states(ps)
        drained = []
        with pytest.raises(StopIteration) as done:
            while True:
                drained.append(next(states))
        assert drained == list(seq.states())
        assert done.value.value == seq.opposite_index


def test_lazy_scan_picks_the_reference_winner(monkeypatch):
    tags = set()
    for g in _graphs():
        expected = reference_split(g)
        split, taken = lazy_split(g, monkeypatch)
        if expected is None:
            assert split is None
            assert taken == len(list(full_rotation(g.ps).states()))
            continue
        index, line, left, right, tag = expected
        assert split is not None
        assert taken == index + 1
        assert split.line == line
        assert (split.left_indices, split.right_indices) == (left, right)
        assert split.case_tag == tag
        if tag == CASE2:  # a winner off the walk: only over the size condition
            assert disconnected_empty_triangles(g).count > g.n - 3
        tags.add(tag)
    assert tags == {CASE1, CASE2, CASE2_1, CASE2_2, CASE3, CASE4}



def test_case2_walk_matches_the_sign_based_walk():
    found = set()
    for g in _graphs():
        witnesses = disconnected_empty_triangles(g).witnesses
        seq = full_rotation(g.ps)
        walk = case2_walk(seq, witnesses)
        assert walk == reference_case2_walk(g.ps, seq, witnesses)
        if walk is not None:
            found.add(walk[0])
    assert found == {CASE2_1, CASE2_2}
