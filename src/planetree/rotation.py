"""Exact rotating-line sweep over a planar point set.

An oriented line through a single pivot point rotates clockwise through
a full turn, switching its axis to each point it meets.  The closed
left/right sides of every intermediate line have constant sizes, which
is what makes the sweep useful for balanced splits.

All angular reasoning is combinatorial.  Directions are integer
vectors; "clockwise offset from d" is a total order built from cross
and dot product signs, never from float angles.  An intermediate line
is stored symbolically as its pivot plus the open angular interval
between its two bracketing alignment events; because that interval
spans less than a half turn, the integer vector sum of its endpoints
lies strictly inside it and serves as an exact interior direction.

The two scans every sweep state runs, the next alignment about a pivot
and the side partition, are each one pass over the points with the
pivot and the direction unpacked to local ints.  The next alignment
needs one cross product per point: of a point's two rays about the
pivot, only the one strictly inside the first clockwise half turn can
come first, so the scan compares one ray per point (see
`_next_alignment`).  The self-checks raise `AssertionError` explicitly,
so they hold under `python -O` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .geometry import Point, PointSet

Vec = tuple[int, int]

INTERMEDIATE = "intermediate"
EVENT = "event"


def _cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _dot(u: Vec, v: Vec) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _vec(frm: Point, to: Point) -> Vec:
    return (to.x - frm.x, to.y - frm.y)


def _neg(v: Vec) -> Vec:
    return (-v[0], -v[1])


def _add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def _cw_class(ref: Vec, t: Vec) -> int:
    """Coarse clockwise offset of direction t from ref.

    0: aligned with ref; 1: strictly within the first half turn;
    2: exactly opposite; 3: strictly within the second half turn.
    """
    c = _cross(ref, t)
    if c < 0:
        return 1
    if c > 0:
        return 3
    return 0 if _dot(ref, t) > 0 else 2


def _cw_before(ref: Vec, a: Vec, b: Vec) -> bool:
    """True iff a has strictly smaller clockwise offset from ref than b."""
    ca = _cw_class(ref, a)
    cb = _cw_class(ref, b)
    if ca != cb:
        return ca < cb
    if ca in (0, 2):
        return False
    # Same open half turn: earlier means b is clockwise of a.
    return _cross(a, b) < 0


def _cw_within_open(start: Vec, x: Vec, end: Vec) -> bool:
    """True iff x lies strictly inside the clockwise open interval (start, end)."""
    if _cw_class(start, x) == 0:
        return False
    return _cw_before(start, x, end)


@dataclass(frozen=True)
class OrientedLine:
    """One state of the sweep.

    An event line passes through pivot and partner and is aligned with
    `direction`.  An intermediate line passes through the pivot only;
    `direction` is an exact interior witness of its open angular
    interval and `brackets` holds the (entering, leaving) event
    directions when known (the start line of a sweep has none).
    """

    kind: str
    pivot: int
    direction: Vec
    partner: int | None = None
    brackets: tuple[Vec, Vec] | None = None

    def on_line(self) -> tuple[int, ...]:
        if self.kind == EVENT:
            if self.partner is None:
                raise AssertionError("event line without a partner")
            return (self.pivot, self.partner)
        return (self.pivot,)


@dataclass(frozen=True)
class SidePartition:
    """Closed sides of an oriented line; on-line points belong to both."""

    left: frozenset[int]
    right: frozenset[int]


def side_partition(line: OrientedLine, ps: PointSet) -> SidePartition:
    v = ps[line.pivot]
    vx, vy = v.x, v.y
    dx, dy = line.direction
    on = line.on_line()
    left = list(on)
    right = list(on)
    for i, p in enumerate(ps.points):
        s = dx * (p.y - vy) - dy * (p.x - vx)
        if s > 0:
            left.append(i)
        elif s < 0:
            right.append(i)
        elif i not in on:
            raise AssertionError("off-line point aligned with sweep state")
    return SidePartition(frozenset(left), frozenset(right))


def initial_halving_line(ps: PointSet) -> OrientedLine:
    """Start line: one pivot, ceil((n+1)/2) points on or to its left.

    Tries the integer directions (1,0), (1,1), (1,2), ... until every
    point projects distinctly across the line; the pivot is then the
    point of the appropriate rank.  A workable direction always exists
    because each point pair rules out at most one slope.
    """
    n = len(ps)
    if n < 3:
        raise ValueError("need at least 3 points")
    max_tries = n * (n - 1) // 2 + 1
    for k in range(max_tries + 1):
        d = (1, k)
        keys = [_cross(d, (p.x, p.y)) for p in ps]
        if len(set(keys)) != n:
            continue
        order = sorted(range(n), key=keys.__getitem__)
        pivot = order[(n - 1) // 2]
        return OrientedLine(INTERMEDIATE, pivot, d)
    raise AssertionError("no generic direction found")  # pragma: no cover


def _next_alignment(ps: PointSet, pivot: int, ref: Vec) -> tuple[Vec, int]:
    """First alignment reached by rotating clockwise from ref about pivot.

    Each non-pivot point p is reached twice per turn, once per ray
    d = p - pivot and -d, but only one ray can come first.  With
    c = cross(ref, d):

    - c == 0: p lies on the reference line, so its rays sit at offset
      zero (the reference state itself) and at a half turn.  Neither
      can win: in general position some other point has a ray strictly
      inside the first half turn.  The pivot itself (d = 0) drops out
      here too.
    - c != 0: exactly one of d and -d lies strictly inside the first
      open clockwise half turn (cross(ref, t) < 0), and every such ray
      comes before every ray at or past the half turn, so only that
      ray competes: d when c < 0, -d when c > 0.

    Within one open half turn a ray t comes before the best so far
    exactly when cross(t, best) < 0.  The scan starts from -ref, the
    end of the half turn, which every candidate comes before.
    """
    v = ps[pivot]
    vx, vy = v.x, v.y
    rx, ry = ref
    bx, by = -rx, -ry
    best_idx = -1
    for i, p in enumerate(ps.points):
        dx = p.x - vx
        dy = p.y - vy
        c = rx * dy - ry * dx
        if c == 0:
            continue
        if c > 0:
            dx = -dx
            dy = -dy
        if dx * by - dy * bx < 0:
            bx = dx
            by = dy
            best_idx = i
    if best_idx < 0:
        raise AssertionError("no alignment candidate about the pivot")
    return (bx, by), best_idx


def next_event(line: OrientedLine, ps: PointSet) -> tuple[OrientedLine, OrientedLine]:
    """Advance one step: the event line hit next, then the following
    intermediate line (pivoting on the newly reached point)."""
    if line.kind != INTERMEDIATE:
        raise ValueError("can only advance from an intermediate line")
    t_ev, partner = _next_alignment(ps, line.pivot, line.direction)
    event = OrientedLine(EVENT, line.pivot, t_ev, partner=partner)
    t_after, _ = _next_alignment(ps, partner, t_ev)
    inter = OrientedLine(
        INTERMEDIATE, partner, _add(t_ev, t_after), brackets=(t_ev, t_after)
    )
    return event, inter


@dataclass(frozen=True)
class RotationSequence:
    """All states of one full clockwise turn.

    intermediates[i] and events[i] alternate: the sweep leaves
    intermediates[i] through events[i] and arrives at
    intermediates[i+1] (cyclically; the last event returns to the start
    state).  pivots lists the axis sequence including the closing
    repeat of the first pivot.  opposite_index is the intermediate
    state whose interval contains the direction opposite the start
    line, i.e. the state reached after rotating by exactly a half turn.
    """

    ps: PointSet
    intermediates: tuple[OrientedLine, ...]
    events: tuple[OrientedLine, ...]
    pivots: tuple[int, ...]
    opposite_index: int
    intermediate_partitions: tuple[SidePartition, ...]
    event_partitions: tuple[SidePartition, ...]

    @property
    def left_size(self) -> int:
        return len(self.intermediate_partitions[0].left)

    def states(self) -> Iterator[tuple[OrientedLine, SidePartition]]:
        """All states in sweep order, intermediate and event interleaved."""
        for i, inter in enumerate(self.intermediates):
            yield inter, self.intermediate_partitions[i]
            yield self.events[i], self.event_partitions[i]


def full_rotation(ps: PointSet) -> RotationSequence:
    """Run the sweep for a full turn and verify its invariants.

    Completion is detected combinatorially: the moving direction passes
    the reversed start direction once (half turn) and the start
    direction itself once (full turn).  The start direction is generic,
    never parallel to a point difference, so neither passage can
    coincide with an event.
    """
    start = initial_halving_line(ps)
    d_ref = start.direction
    intermediates: list[OrientedLine] = [start]
    events: list[OrientedLine] = []
    pivots: list[int] = [start.pivot]
    opposite: int | None = None

    cur_pivot = start.pivot
    entering = start.direction
    pending: tuple[Vec, int] | None = None
    cap = 8 * len(ps) ** 2 + 16
    while True:
        if len(events) > cap:
            raise AssertionError("sweep failed to terminate")
        t_ev, partner = (
            pending if pending is not None else _next_alignment(ps, cur_pivot, entering)
        )
        # The current intermediate interval runs clockwise (entering, t_ev).
        if _cw_within_open(entering, _neg(d_ref), t_ev):
            if opposite is not None:
                raise AssertionError("half-turn direction passed twice")
            opposite = len(intermediates) - 1
        if _cw_within_open(entering, d_ref, t_ev):
            if opposite is None:
                raise AssertionError("full turn completed before half turn")
            if cur_pivot != pivots[0]:
                raise AssertionError("sweep did not close on its start pivot")
            break
        event = OrientedLine(EVENT, cur_pivot, t_ev, partner=partner)
        events.append(event)
        t_after, partner_after = _next_alignment(ps, partner, t_ev)
        intermediates.append(
            OrientedLine(INTERMEDIATE, partner, _add(t_ev, t_after), brackets=(t_ev, t_after))
        )
        pivots.append(partner)
        cur_pivot = partner
        entering = t_ev
        pending = (t_after, partner_after)

    # The state that wraps past the full turn is the start state again;
    # drop the duplicate but keep its pivot as the closing sequence entry.
    wrap = intermediates.pop()
    inter_parts = tuple(side_partition(line, ps) for line in intermediates)
    event_parts = tuple(side_partition(line, ps) for line in events)
    if side_partition(wrap, ps) != inter_parts[0]:
        raise AssertionError("wrap state differs from start")
    if opposite is None:
        raise AssertionError("half-turn state not found")

    seq = RotationSequence(
        ps=ps,
        intermediates=tuple(intermediates),
        events=tuple(events),
        pivots=tuple(pivots),
        opposite_index=opposite,
        intermediate_partitions=inter_parts,
        event_partitions=event_parts,
    )
    _verify_invariants(seq)
    return seq


def _verify_invariants(seq: RotationSequence) -> None:
    n = len(seq.ps)
    k_left = (n + 2) // 2  # ceil((n+1)/2)
    if seq.pivots[0] != seq.pivots[-1]:
        raise AssertionError("pivot sequence does not close")
    for part in seq.intermediate_partitions:
        if len(part.left) != k_left or len(part.right) != n + 1 - k_left:
            raise AssertionError("closed side sizes changed")
    count = len(seq.events)
    if count != len(seq.intermediates):
        raise AssertionError("events and intermediate states do not alternate")
    for j in range(count):
        cur = seq.intermediate_partitions[j]
        nxt = seq.intermediate_partitions[(j + 1) % count]
        ev = seq.event_partitions[j]
        v_old = seq.intermediates[j].pivot
        v_new = seq.events[j].partner
        if v_new is None or v_new == v_old:
            raise AssertionError("event does not move to a new pivot")
        # Exactly one side swaps the old pivot for the new one.
        swap_left = nxt.right == cur.right and nxt.left == (cur.left - {v_old}) | {v_new}
        swap_right = nxt.left == cur.left and nxt.right == (cur.right - {v_old}) | {v_new}
        if swap_left == swap_right:
            raise AssertionError("event update dichotomy violated")
        # Closed sides of the event line extend the side the new pivot
        # did not come from; the other side is unchanged.
        if v_new in cur.right:
            ok = ev.left == cur.left | {v_new} and ev.right == cur.right
        else:
            ok = ev.right == cur.right | {v_new} and ev.left == cur.left
        if not ok:
            raise AssertionError("event line sides violate the side laws")


def line_crosses_triangle(
    line: OrientedLine, tri: Iterable[int], ps: PointSet
) -> bool:
    """True iff the line strictly separates the triangle's vertices.

    A vertex lying on the line (pivot or event partner) counts for
    neither side, so touching without separating is not a crossing.
    """
    v = ps[line.pivot]
    has_left = has_right = False
    for i in tri:
        s = _cross(line.direction, _vec(v, ps[i]))
        if s > 0:
            has_left = True
        elif s < 0:
            has_right = True
    return has_left and has_right


def triangle_crossing_witness(
    seq: RotationSequence, i: int, j: int, tri: tuple[int, int, int]
) -> tuple[int, int]:
    """Locate where a triangle switches sides during the sweep.

    Given intermediate state indices i < j with all of tri on or right
    of state i and on or left of state j, returns (k, l) with
    i <= k < l < j such that state k's pivot is a triangle vertex, the
    triangle is still on or right of state k, and state l strictly
    separates its vertices.  Only one triangle vertex can switch sides
    per step, so the scan below cannot fail; a failure is a bug.
    """
    tset = set(tri)
    if len(tset) != 3:
        raise ValueError("triangle must have three distinct vertices")
    count = len(seq.intermediates)
    if not (0 <= i < j < count):
        raise ValueError("need intermediate state indices i < j")
    parts = seq.intermediate_partitions
    if not (tset <= parts[i].right and tset <= parts[j].left):
        raise ValueError("triangle must lie in right(i) and left(j)")

    k = i
    while k + 1 < j and tset <= parts[k + 1].right:
        k += 1
    if k + 1 >= j:
        raise AssertionError("triangle stayed on the right side until the target state")
    if seq.intermediates[k].pivot not in tset:
        raise AssertionError("side switch not at a triangle vertex")
    for l in range(k + 1, j):
        if line_crosses_triangle(seq.intermediates[l], tri, seq.ps):
            return k, l
    raise AssertionError("no separating state between side switch and target")
