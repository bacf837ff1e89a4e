import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from _diagnostics import line_crosses_triangle, next_event, triangle_crossing_witness

import planetree
from planetree.generators import convex_position_points, random_point_set
from planetree.geometry import COORD_LIMIT, Point, PointSet, in_general_position
from planetree.rotation import (
    _add,
    full_rotation,
    initial_halving_line,
    side_partition,
)


def _left_size(n):
    return (n + 2) // 2  # ceil((n+1)/2)


def test_halving_line_counts_n5():
    ps = convex_position_points(5)
    line = initial_halving_line(ps)
    part = side_partition(line, ps)
    assert len(part.left) == 3 and len(part.right) == 3
    assert part.left & part.right == {line.pivot}
    assert len(part.left - part.right) == 2
    assert len(part.right - part.left) == 2


def test_halving_line_counts_n3():
    ps = PointSet.from_coords([(0, 0), (7, 2), (3, 9)])
    part = side_partition(initial_halving_line(ps), ps)
    assert len(part.left) == 2 and len(part.right) == 2


def test_halving_line_pivot_is_projection_median():
    ps = PointSet.from_coords([(0, 0), (2, 1), (4, 3), (1, 5), (5, 5)])
    line = initial_halving_line(ps)
    # Re-derive the rank along the chosen direction.
    d = line.direction
    keys = [d[0] * p.y - d[1] * p.x for p in ps]
    assert len(set(keys)) == len(ps)
    order = sorted(range(len(ps)), key=keys.__getitem__)
    assert line.pivot == order[(len(ps) - 1) // 2]
    part = side_partition(line, ps)
    assert len(part.left) == 3 and len(part.right) == 3


def test_event_line_partition_contains_both_endpoints():
    ps = convex_position_points(6)
    line = initial_halving_line(ps)
    event, _ = next_event(line, ps)
    part = side_partition(event, ps)
    assert {event.pivot, event.partner} <= (part.left & part.right)
    assert len(part.left) + len(part.right) == len(ps) + 2


def test_next_event_matches_float_angle_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        ps = random_point_set(rng.randint(3, 12), rng)
        line = initial_halving_line(ps)
        event, following = next_event(line, ps)
        v = ps[line.pivot]
        d0 = math.atan2(line.direction[1], line.direction[0])

        def cw_offset(vec):
            return (d0 - math.atan2(vec[1], vec[0])) % (2 * math.pi)

        candidates = []
        for i, p in enumerate(ps):
            if i == line.pivot:
                continue
            for t in ((p.x - v.x, p.y - v.y), (v.x - p.x, v.y - p.y)):
                candidates.append((cw_offset(t), i, t))
        offset, idx, t = min(candidates)
        assert offset > 1e-12
        assert event.partner == idx
        assert event.direction == t
        assert following.pivot == idx


def test_next_event_requires_intermediate():
    ps = convex_position_points(5)
    event, _ = next_event(initial_halving_line(ps), ps)
    with pytest.raises(ValueError):
        next_event(event, ps)


def test_full_rotation_small_triangle_visits_every_pivot():
    ps = PointSet.from_coords([(0, 0), (9, 1), (4, 8)])
    seq = full_rotation(ps)
    assert {e.partner for e in seq.events} == {0, 1, 2}
    assert seq.events[-1].partner == seq.intermediates[0].pivot


def test_full_rotation_invariants_external_check():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(3, 16)
        ps = random_point_set(n, rng)
        seq = full_rotation(ps)
        # Each event's partner pivots the next intermediate; the last one
        # closes the turn on the start pivot.
        assert [e.partner for e in seq.events] == [
            line.pivot for line in seq.intermediates[1:] + seq.intermediates[:1]
        ]
        assert len(seq.intermediates) == len(seq.events)
        k = _left_size(n)
        count = len(seq.events)
        for idx in range(count):
            inter = seq.intermediates[idx]
            part = seq.intermediate_partitions[idx]
            assert len(part.left) == k
            assert len(part.right) == n + 1 - k
            assert part.left | part.right == frozenset(range(n))
            assert part.left & part.right == {inter.pivot}
            # Interval-constancy: both neighbouring event directions give
            # the same strict side for every point off both event lines,
            # and the stored direction is their sum.  The start line has
            # no entering event.
            if idx > 0:
                b0, b1 = seq.events[idx - 1].direction, seq.events[idx].direction
                assert inter.direction == _add(b0, b1)
                v = ps[inter.pivot]
                for i, p in enumerate(ps):
                    if i == inter.pivot:
                        continue
                    s0 = b0[0] * (p.y - v.y) - b0[1] * (p.x - v.x)
                    s1 = b1[0] * (p.y - v.y) - b1[1] * (p.x - v.x)
                    if s0 != 0 and s1 != 0:
                        assert (s0 > 0) == (s1 > 0)
                        assert (i in part.left) == (s0 > 0)
        for idx in range(count):
            cur = seq.intermediate_partitions[idx]
            nxt = seq.intermediate_partitions[(idx + 1) % count]
            ev = seq.event_partitions[idx]
            v_old = seq.intermediates[idx].pivot
            v_new = seq.events[idx].partner
            swap_left = nxt.right == cur.right and nxt.left == (cur.left - {v_old}) | {
                v_new
            }
            swap_right = nxt.left == cur.left and nxt.right == (
                cur.right - {v_old}
            ) | {v_new}
            assert swap_left != swap_right
            if v_new in cur.right:
                assert ev.left == cur.left | {v_new}
                assert ev.right == cur.right
            else:
                assert ev.right == cur.right | {v_new}
                assert ev.left == cur.left


def _float_rotation(ps, start):
    """Independent full-turn simulation with float angles."""
    n = len(ps)
    pivot = start.pivot
    d = math.atan2(start.direction[1], start.direction[0])
    total = 0.0
    out = []
    while True:
        v = ps[pivot]
        best = None
        for i in range(n):
            if i == pivot:
                continue
            p = ps[i]
            for vec in ((p.x - v.x, p.y - v.y), (v.x - p.x, v.y - p.y)):
                off = (d - math.atan2(vec[1], vec[0])) % (2 * math.pi)
                if off < 1e-9:
                    off = 2 * math.pi
                if best is None or off < best[0]:
                    best = (off, i)
        off, partner = best
        if total + off >= 2 * math.pi - 1e-9:
            return out
        total += off
        d -= off
        out.append((pivot, partner))
        pivot = partner


def test_full_rotation_matches_float_simulation():
    rng = random.Random(424242)
    done = 0
    while done < 30:
        n = rng.randint(3, 14)
        ps = random_point_set(n, rng, box=1000)
        seq = full_rotation(ps)
        exact = [(e.pivot, e.partner) for e in seq.events]
        assert exact == _float_rotation(ps, seq.intermediates[0])
        done += 1


def test_opposite_state_swaps_sides_for_odd_n():
    rng = random.Random(55)
    for _ in range(10):
        n = rng.choice([5, 7, 9, 11])
        ps = random_point_set(n, rng)
        seq = full_rotation(ps)
        m = seq.opposite_index
        assert seq.intermediate_partitions[m].left == seq.intermediate_partitions[0].right
        assert seq.intermediate_partitions[m].right == seq.intermediate_partitions[0].left
        assert seq.intermediates[m].pivot == seq.intermediates[0].pivot


def test_line_crosses_triangle_examples():
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (1, 5), (1, -3)])
    from planetree.rotation import OrientedLine

    # Vertical line through points 3 and 4 (x = 1) splits the triangle.
    line = OrientedLine(3, (0, -8), partner=4)
    assert line_crosses_triangle(line, (0, 1, 2), ps)

    # Horizontal line through the bottom point: everything strictly left.
    below = OrientedLine(4, (1, 0))
    assert not line_crosses_triangle(below, (0, 1, 2), ps)


def test_line_crosses_triangle_strictness():
    ps = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 5), (9, 2)])
    from planetree.rotation import OrientedLine

    # Line through vertex 0 pointing at (1,1): vertices 1 and 4 strictly
    # right, vertex 2 on the line is not counted for either side.
    diag = OrientedLine(0, (1, 1))
    assert not line_crosses_triangle(diag, (0, 1, 2), ps)
    assert line_crosses_triangle(diag, (1, 2, 3), ps)


def test_triangle_crossing_witness_properties():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        ps = random_point_set(rng.randint(6, 12), rng)
        seq = full_rotation(ps)
        count = len(seq.intermediates)
        if count < 4:
            continue
        i = rng.randrange(0, count - 2)
        j = rng.randrange(i + 2, count)
        region = seq.intermediate_partitions[i].right & seq.intermediate_partitions[j].left
        if len(region) < 3:
            continue
        tri = tuple(sorted(rng.sample(sorted(region), 3)))
        k, l = triangle_crossing_witness(ps, seq, i, j, tri)
        assert i <= k < l < j
        assert seq.intermediates[k].pivot in tri
        assert set(tri) <= seq.intermediate_partitions[k].right
        assert set(tri) <= seq.intermediate_partitions[j].left
        assert line_crosses_triangle(seq.intermediates[l], tri, ps)
        checked += 1


def test_triangle_crossing_witness_on_convex_hexagon():
    ps = convex_position_points(6)
    seq = full_rotation(ps)
    count = len(seq.intermediates)
    found = None
    for i in range(count - 2):
        for j in range(i + 2, count):
            region = sorted(
                seq.intermediate_partitions[i].right
                & seq.intermediate_partitions[j].left
            )
            if len(region) < 3:
                continue
            tri = tuple(region[:3])
            found = (i, j, tri)
            break
        if found:
            break
    assert found is not None
    i, j, tri = found
    k, l = triangle_crossing_witness(ps, seq, i, j, tri)
    assert i <= k < l < j
    assert seq.intermediates[k].pivot in tri
    assert line_crosses_triangle(seq.intermediates[l], tri, ps)


def test_triangle_crossing_witness_rejects_bad_inputs():
    ps = convex_position_points(7)
    seq = full_rotation(ps)
    part0 = seq.intermediate_partitions[0]
    strict_right = sorted(part0.right - part0.left)[:3]
    with pytest.raises(ValueError):
        # Adjacent states can never hold a triangle on opposite sides.
        triangle_crossing_witness(ps, seq, 0, 1, tuple(strict_right))
    with pytest.raises(ValueError):
        triangle_crossing_witness(ps, seq, 2, 1, tuple(strict_right))


def _sweep_cross_products(ps, seq):
    """Every cross product a scan of seq, the sweep of ps, forms: a state
    direction against the difference from the state's pivot, or an
    event's partner, to a point."""
    for line, _ in seq.states():
        dx, dy = line.direction
        for center in line.on_line():
            v = ps[center]
            for p in ps:
                yield dx * (p.y - v.y) - dy * (p.x - v.x)


def test_sweep_products_stay_within_the_stated_bit_widths():
    # Event directions are point differences, within 2**31 per component;
    # intermediate directions sum two of them, within 2**32, so each term
    # of a cross product is within 2**63 and the product within 2**64.
    # Both summed events pass through the state's pivot, so the product
    # is also a sum of two orientation determinants, each within 2**62:
    # it stays within 2**63, and the four box corners reach that exactly.
    rng = random.Random(31)
    corners = [Point(sx * COORD_LIMIT, sy * COORD_LIMIT) for sx in (-1, 1) for sy in (-1, 1)]
    sets = [random_point_set(n, rng, box=COORD_LIMIT) for n in (3, 6, 10, 16)]
    sets.append(PointSet(tuple(corners)))
    while len(sets) < 9:
        points = corners + list(random_point_set(len(sets) - 4, rng, box=COORD_LIMIT).points)
        if in_general_position(points):
            sets.append(PointSet(tuple(points)))
    for ps in sets:
        seq = full_rotation(ps)
        for ev in seq.events:
            assert max(abs(c) for c in ev.direction) <= 2**31
        for inter in seq.intermediates:
            assert max(abs(c) for c in inter.direction) <= 2**32
        widest = max(abs(c) for c in _sweep_cross_products(ps, seq))
        assert widest <= 2**63
        if ps.points == tuple(corners):
            assert widest == 2**63  # one past the signed 64-bit range


SELF_CHECKS_UNDER_O = """
import random
from planetree.generators import random_point_set
from planetree.geometry import PointSet
from planetree.rotation import OrientedLine, full_rotation, side_partition

print(__debug__)
ps = PointSet.from_coords([(0, 0), (4, 1), (1, 5)])
try:
    side_partition(OrientedLine(0, (4, 1)), ps)  # through point 1
except AssertionError as err:
    print("side_partition:", err)
seq = full_rotation(random_point_set(9, random.Random(5)))
for line, part in seq.states():
    print(line, sorted(part.left), sorted(part.right))
"""


def test_sweep_self_checks_raise_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", SELF_CHECKS_UNDER_O],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for flags in ((), ("-O",))
    ]
    plain, optimised = runs
    assert plain[0] == "True" and optimised[0] == "False"
    assert optimised[1] == "side_partition: off-line point aligned with sweep state"
    assert len(optimised) > 10
    assert optimised[1:] == plain[1:]


WRAP_CHECK_UNDER_O = """
import random
from planetree.generators import random_point_set
from planetree.rotation import ON, full_rotation, sweep_states

ps = random_point_set(9, random.Random(5))
last = 2 * len(full_rotation(ps).intermediates) - 1
try:
    for index, state in enumerate(sweep_states(ps)):
        if index == last:  # no point is met again before the wrap
            labels = state[-1]
            k = next(i for i, s in enumerate(labels) if s != ON)
            labels[k] ^= ON  # strictly left <-> strictly right
    print("no error")
except AssertionError as err:
    print(err)
"""


def test_a_corrupted_side_label_trips_the_wrap_check_under_python_O():
    # The sweep moves one label per state; the closing check compares the
    # wrap labels with the start's, which catches a label written wrongly
    # late in the turn, also by a consumer of the shared labels.
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    for flags in ((), ("-O",)):
        out = subprocess.run(
            [sys.executable, *flags, "-c", WRAP_CHECK_UNDER_O],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out == ["wrap state differs from start"]


# Five points with one collinear triple: the start pivot 4 = (3, -1),
# point 0 = (4, -1), and a third point on their line, beyond point 0
# (near) or beyond the pivot (far).  A PointSet rejects both, so
# the script below builds them past its validation.
COLLINEAR_THROUGH_PIVOT = {
    "near": [(4, -1), (0, 0), (3, 4), (5, -1), (3, -1)],
    "far": [(4, -1), (0, 0), (2, -1), (2, -4), (3, -1)],
}

TIE_CHECK_UNDER_O = """
from planetree.geometry import Point, PointSet
from planetree.rotation import sweep_states

for coords in {layouts}:
    ps = object.__new__(PointSet)
    object.__setattr__(ps, "points", tuple(Point(x, y) for x, y in coords))
    try:
        list(sweep_states(ps))
        print("no error")
    except AssertionError as err:
        print(err)
"""


def test_a_collinear_triple_through_a_sweep_pivot_raises_under_python_O():
    for side, coords in COLLINEAR_THROUGH_PIVOT.items():
        pts = [Point(x, y) for x, y in coords]
        extra = 3 if side == "near" else 2
        v, w, u = pts[4], pts[0], pts[extra]
        assert (w.x - v.x) * (u.y - v.y) - (w.y - v.y) * (u.x - v.x) == 0
        along = (w.x - v.x) * (u.x - v.x) + (w.y - v.y) * (u.y - v.y)
        assert (along > 0) == (side == "near")
        assert not in_general_position(pts)
        assert in_general_position(pts[:extra] + pts[extra + 1:])
        ps = object.__new__(PointSet)
        object.__setattr__(ps, "points", tuple(pts))
        assert initial_halving_line(ps).pivot == 4
    script = TIE_CHECK_UNDER_O.format(layouts=list(COLLINEAR_THROUGH_PIVOT.values()))
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    for flags in ((), ("-O",)):
        out = subprocess.run(
            [sys.executable, *flags, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out == ["off-line point aligned with sweep state"] * 2
