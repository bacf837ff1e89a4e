"""The sweep's one-pass scans and derived sides against the references.

`rotation._next_alignment` compares one ray per point and
`rotation.side_partition` forms one cross product per point.  The
reference below is the earlier form of both, kept here only as a test
oracle: every point competes with both of its rays, each ray is placed
by a coarse clockwise class from cross and dot signs, and rays in one
class are ordered by a further cross sign.  A reference sweep built from
it must give the same states as `full_rotation`, state for state, and
its interval test `_cw_within_open` must agree with the sweep's
two-sign `rotation._strictly_between` wherever the latter's
precondition holds.  The sweep partitions only its start line and
derives every later state's sides by the side laws; the reference
partitions every state from scratch, so the two must agree on each.
"""

import random
from functools import cache

from planetree.generators import (
    convex_position_points,
    path_complement,
    r_construction,
    random_point_set,
)
from planetree.geometry import COORD_LIMIT, Point, PointSet, in_general_position
from planetree.rotation import (
    OrientedLine,
    _next_alignment,
    _strictly_between,
    full_rotation,
    initial_halving_line,
    side_partition,
)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _vec(frm, to):
    return (to.x - frm.x, to.y - frm.y)


def _neg(v):
    return (-v[0], -v[1])


def _add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _cw_class(ref, t):
    """0: aligned; 1: first open half turn; 2: opposite; 3: second half turn."""
    c = _cross(ref, t)
    if c < 0:
        return 1
    if c > 0:
        return 3
    return 0 if _dot(ref, t) > 0 else 2


def _cw_before(ref, a, b):
    ca = _cw_class(ref, a)
    cb = _cw_class(ref, b)
    if ca != cb:
        return ca < cb
    if ca in (0, 2):
        return False
    return _cross(a, b) < 0


def _cw_within_open(start, x, end):
    if _cw_class(start, x) == 0:
        return False
    return _cw_before(start, x, end)


def reference_next_alignment(ps, pivot, ref):
    v = ps[pivot]
    best = None
    best_idx = -1
    for i, p in enumerate(ps):
        if i == pivot:
            continue
        fwd = _vec(v, p)
        for t in (fwd, _neg(fwd)):
            if _cw_class(ref, t) == 0:
                continue
            if best is None or _cw_before(ref, t, best):
                best = t
                best_idx = i
    assert best is not None
    return best, best_idx


def reference_side_partition(line, ps):
    v = ps[line.pivot]
    on = set(line.on_line())
    left = set(on)
    right = set(on)
    for i, p in enumerate(ps):
        if i in on:
            continue
        s = _cross(line.direction, _vec(v, p))
        assert s != 0
        (left if s > 0 else right).add(i)
    return left, right


def reference_sweep(ps):
    """One full clockwise turn, stepped with the reference scans."""
    start = initial_halving_line(ps)
    d_ref = start.direction
    intermediates = [start]
    events = []
    pivots = [start.pivot]
    opposite = None
    cur_pivot = start.pivot
    entering = start.direction
    pending = None
    while True:
        t_ev, partner = (
            pending if pending is not None
            else reference_next_alignment(ps, cur_pivot, entering)
        )
        if _cw_within_open(entering, _neg(d_ref), t_ev):
            opposite = len(intermediates) - 1
        if _cw_within_open(entering, d_ref, t_ev):
            break
        events.append(OrientedLine(cur_pivot, t_ev, partner=partner))
        t_after, partner_after = reference_next_alignment(ps, partner, t_ev)
        intermediates.append(OrientedLine(partner, _add(t_ev, t_after)))
        pivots.append(partner)
        cur_pivot = partner
        entering = t_ev
        pending = (t_after, partner_after)
    intermediates.pop()
    return intermediates, events, pivots, opposite


def _shuffled(points, rng):
    points = list(points)
    rng.shuffle(points)
    return PointSet(tuple(points))


@cache
def kernel_point_sets():
    return tuple(_kernel_point_sets())


def _kernel_point_sets():
    rng = random.Random(90)
    for n in range(3, 31):
        yield random_point_set(n, rng)
    # Small grids: many points share an x or a y coordinate.  A +-3 grid
    # holds few points in general position, hence the cap.
    for n in range(3, 13):
        yield random_point_set(min(n, 8), rng, box=3)
        yield random_point_set(n, rng, box=5)
    for n in range(3, 40, 3):
        yield convex_position_points(n)
        yield _shuffled(convex_position_points(n + 1), rng)
    for n in range(5, 40, 6):
        yield r_construction(n)[1].graph.ps
    for n in range(5, 20, 7):
        yield path_complement(n).graph.ps
    for n in range(3, 16, 3):
        yield random_point_set(n, rng, box=COORD_LIMIT)
    corners = [Point(sx * COORD_LIMIT, sy * COORD_LIMIT) for sx in (-1, 1) for sy in (-1, 1)]
    yield _shuffled(corners, rng)
    for k in (1, 3, 5):
        points = corners + list(random_point_set(k, rng, box=COORD_LIMIT).points)
        if in_general_position(points):
            yield _shuffled(points, rng)


def _sides(part):
    return set(part.left), set(part.right)


def test_full_rotation_matches_the_reference_sweep_state_for_state():
    checked = 0
    shared_coordinate = 0
    for ps in kernel_point_sets():
        seq = full_rotation(ps)
        intermediates, events, pivots, opposite = reference_sweep(ps)
        assert list(seq.intermediates) == intermediates
        assert list(seq.events) == events
        assert list(seq.pivots) == pivots
        assert seq.opposite_index == opposite
        for line, part in seq.states():
            assert _sides(part) == reference_side_partition(line, ps)
        xs = [p.x for p in ps]
        ys = [p.y for p in ps]
        if len(set(xs)) < len(xs) or len(set(ys)) < len(ys):
            shared_coordinate += 1
        checked += 1
    assert checked > 90
    assert shared_coordinate > 10


def test_next_alignment_matches_the_reference_from_every_sweep_direction():
    # Summed intermediate directions are what `next_event` starts from;
    # here every pivot of a small set also starts from every state's
    # direction and its reverse, so some starts are parallel to a point
    # difference through the pivot.
    compared = 0
    aligned = 0
    for ps in kernel_point_sets():
        if len(ps) > 10:
            continue
        seq = full_rotation(ps)
        refs = {line.direction for line in seq.intermediates + seq.events}
        refs |= {_neg(d) for d in refs}
        for ref in refs:
            for pivot in range(len(ps)):
                assert _next_alignment(ps, pivot, ref) == reference_next_alignment(
                    ps, pivot, ref
                )
                compared += 1
                v = ps[pivot]
                aligned += any(
                    i != pivot and _cross(ref, _vec(v, p)) == 0 for i, p in enumerate(ps)
                )
    assert compared > 10000
    assert aligned > 2000


def test_side_partition_matches_the_reference_on_sweep_lines():
    rng = random.Random(91)
    for ps in kernel_point_sets():
        seq = full_rotation(ps)
        for _ in range(3):
            inter = rng.choice(seq.intermediates)
            # The same direction through another pivot stays generic only
            # if no point difference through it is parallel; skip those.
            pivot = rng.randrange(len(ps))
            line = OrientedLine(pivot, inter.direction)
            v = ps[pivot]
            if any(
                i != pivot and _cross(line.direction, _vec(v, p)) == 0
                for i, p in enumerate(ps)
            ):
                continue
            assert _sides(side_partition(line, ps)) == reference_side_partition(line, ps)


def test_strictly_between_meets_its_precondition_and_matches_the_reference():
    # Every interval (entering, t_ev) that `sweep_states` tests, the wrap
    # state's included, spans less than a half turn; on such intervals
    # the two-sign helper agrees with the class-based reference for the
    # start direction, every event direction and their reverses.
    intervals = 0
    inside = 0
    for ps in kernel_point_sets():
        seq = full_rotation(ps)
        start = seq.intermediates[0]
        d_ref = start.direction
        event_dirs = [event.direction for event in seq.events]
        t_wrap, _ = _next_alignment(ps, start.pivot, event_dirs[-1])
        entering = [d_ref] + event_dirs
        leaving = event_dirs + [t_wrap]
        for inter, bounds in zip(seq.intermediates[1:], zip(entering[1:], leaving[1:])):
            assert inter.direction == _add(*bounds)
        probes = {d_ref, _neg(d_ref)} | set(event_dirs) | {_neg(d) for d in event_dirs}
        for lo, hi in zip(entering, leaving):
            assert _cross(lo, hi) < 0
            for x in probes:
                assert _strictly_between(lo, x, hi) == _cw_within_open(lo, x, hi)
                inside += _cw_within_open(lo, x, hi)
            intervals += 1
        spans = list(enumerate(zip(entering, leaving)))
        half = [i for i, (lo, hi) in spans if _strictly_between(lo, _neg(d_ref), hi)]
        full = [i for i, (lo, hi) in spans if _strictly_between(lo, d_ref, hi)]
        assert half == [seq.opposite_index]
        assert full == [len(spans) - 1]
    assert intervals > 3000
    assert inside > 500
