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
from collections import Counter

import pytest
from _diagnostics import line_crosses_triangle, slope_tie_point_sets
from test_sweep_kernel import kernel_point_sets

import planetree.builder as builder
import planetree.rotation as rotation
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
from planetree.generators import (
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from planetree.graphs import GeometricGraph, complete_graph
from planetree.rotation import (
    EVENT,
    INTERMEDIATE,
    LEFT,
    OrientedLine,
    full_rotation,
    sides_from_labels,
    sweep_states,
)
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


def _thinned(ps, density, rng):
    """ps's complete graph with each edge kept with probability density."""
    edges = sorted(complete_graph(ps).edges)
    return GeometricGraph(ps, frozenset(e for e in edges if rng.random() < density))


def _graphs():
    rng = random.Random(11)
    for ps in kernel_point_sets():
        if len(ps) < 5:
            continue
        yield complete_graph(ps)
        yield _thinned(ps, 0.85, rng)
    for _ in range(120):
        ps = random_point_set(rng.randint(5, 12), rng)
        yield _thinned(ps, rng.choice((0.3, 0.6, 0.85, 0.95)), rng)
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
        drained, moves = [], []
        with pytest.raises(StopIteration) as done:
            while True:
                pivot, direction, partner, moved, side, labels = next(states)
                line = OrientedLine(pivot, direction, partner)
                drained.append((line, sides_from_labels(labels)))
                moves.append((moved, side))
        assert drained == list(seq.states())
        assert done.value.value == seq.opposite_index
        # Each later state moves one point across one closed side: an
        # event's partner joins it, an intermediate's old pivot leaves it.
        assert moves[0] == (-1, 0)
        for k in range(1, len(drained)):
            (prev, before), (line, part), (moved, side) = drained[k - 1], drained[k], moves[k]
            joins = line.partner is not None
            assert moved == (line.partner if joins else prev.pivot)
            pairs = [(before.left, part.left), (before.right, part.right)]
            (was, now), (other_was, other_now) = pairs if side == LEFT else pairs[::-1]
            assert other_now == other_was
            assert now == (was | {moved} if joins else was - {moved}) != was


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


def _room_graphs():
    rng = random.Random(17)
    for n in range(5, 21):
        yield path_complement(n).graph
    for n in range(5, 30, 4):
        yield from (inst.graph for inst in r_construction(n))
    for n in range(5, 40, 3):
        yield random_instance(n, seed=rng.randrange(2**30)).graph
    violating = 0
    while violating < 40:  # random graphs over the size condition
        ps = random_point_set(rng.randint(6, 16), rng)
        g = _thinned(ps, rng.choice((0.2, 0.4, 0.6)), rng)
        if disconnected_empty_triangles(g).count > g.n - 3:
            violating += 1
            yield g
    for sy in (1, -1):
        for ps in slope_tie_point_sets(sy)[:3]:
            yield _thinned(ps, 0.7, rng)


def test_side_rooms_match_the_containment_count_at_every_state():
    # The scan counts each side's witnesses once, at the start line, and
    # then moves them with the one point each state moves; the reference
    # recounts every state's sides over every witness.
    recounted = 0  # state changes that move a witness in or out of a side
    for g in _room_graphs():
        witnesses = disconnected_empty_triangles(g).witnesses
        rooms = [(left, right) for *_, left, right in builder._side_rooms(g, witnesses)]
        vertex_sets = [frozenset(t) for t in witnesses]
        expected, inside = [], []
        for _, part in full_rotation(g.ps).states():
            sides = (part.left, part.right)
            inside.append(tuple(sum(t <= side for t in vertex_sets) for side in sides))
            expected.append(tuple(len(s) - 3 - k for s, k in zip(sides, inside[-1])))
            assert [r >= 0 for r in expected[-1]] == [_low(witnesses, s) for s in sides]
        assert rooms == expected
        recounted += sum(a != b for a, b in zip(inside, inside[1:]))
    assert recounted > 4000


def _alignments(monkeypatch):
    calls = []
    honest = rotation._next_alignment

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(rotation, "_next_alignment", counted)
    return calls


def test_the_scan_aligns_only_for_the_states_it_takes(monkeypatch):
    # The start is yielded before any alignment; each later state costs
    # the one alignment that ends its interval, and a failing scan adds
    # the one that closes the turn.  A case-2 tag runs one full turn more.
    graphs = [*_graphs(), *(path_complement(n).graph for n in range(5, 21))]
    turns = [len(full_rotation(g.ps).events) + 1 for g in graphs]
    calls = _alignments(monkeypatch)
    winners = Counter()
    for g, turn in zip(graphs, turns):
        calls.clear()
        split, taken = lazy_split(g, monkeypatch)
        if split is None:
            assert len(calls) == turn
            winners["none"] += 1
            continue
        extra = turn if split.case_tag.startswith(CASE2) else 0
        assert len(calls) == (0 if taken == 1 else (taken - 1) // 2 + 1) + extra
        winners["start" if taken == 1 else split.line.kind] += 1
    assert min(winners[kind] for kind in ("none", "start", INTERMEDIATE, EVENT)) > 5
    g = path_complement(14).graph
    calls.clear()
    assert find_valid_split(g, disconnected_empty_triangles(g).witnesses) is None
    assert len(calls) == 29
