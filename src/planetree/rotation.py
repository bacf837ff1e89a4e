"""Exact rotating-line sweep over a planar point set.

An oriented line through a single pivot point rotates clockwise through
a full turn, switching its axis to each point it meets.  The closed
left/right sides of every intermediate line have constant sizes, which
is what makes the sweep useful for balanced splits.

All angular reasoning is combinatorial.  Directions are integer
vectors, and every decision is the sign of an integer cross product,
never a float angle: a point's side of a line is one sign, and whether
a direction lies strictly inside a sweep interval is two (see
`_strictly_between`).  An intermediate line is stored as its pivot plus
an interior direction: the sum of its neighbouring events' directions.
The open angular interval between those events spans less than a half
turn, so the integer sum lies strictly inside it.

Each sweep state runs one scan over the points, the next alignment
about its pivot, with one cross product per point: of a point's two
rays about the pivot, only the one strictly inside the first clockwise
half turn can come first (see `_next_alignment`).  The same scan
raises when a third point ties the winning ray, the one place a
collinear triple shows.  Only the start line's sides are partitioned
from the points; every later state's sides follow from the state
before it by the side laws, with set updates and no cross product.

`sweep_states` is the one sweep loop: it yields states lazily, and
`full_rotation` drains it into a stored turn.  Its checks raise
`AssertionError` explicitly, so they hold under `python -O` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterator

from .geometry import PointSet

Vec = tuple[int, int]

INTERMEDIATE = "intermediate"
EVENT = "event"


def _add(u: Vec, v: Vec) -> Vec:
    return (u[0] + v[0], u[1] + v[1])


def _strictly_between(start: Vec, x: Vec, end: Vec) -> bool:
    """True iff x lies strictly inside the clockwise open interval (start, end).

    Precondition: end lies strictly inside the first clockwise half turn
    from start, cross(start, end) < 0.  Every sweep interval
    (entering, t_ev) meets it, because `_next_alignment` only returns
    rays with cross(ref, t) < 0.  The interval then spans less than a
    half turn, so x lies inside it exactly when x is strictly inside the
    first clockwise half turn from start and end is strictly inside the
    first clockwise half turn from x.
    """
    return (
        start[0] * x[1] - start[1] * x[0] < 0 and x[0] * end[1] - x[1] * end[0] < 0
    )


@dataclass(frozen=True)
class OrientedLine:
    """One state of the sweep.

    An event line passes through pivot and partner and is aligned with
    `direction`.  An intermediate line passes through the pivot only;
    its `direction` is the sum of the directions of the events before
    and after it, which lies strictly inside the open interval between
    them (the start line's is its own generic direction).  `kind` is
    derived: a line is an event exactly when it has a partner.
    """

    pivot: int
    direction: Vec
    partner: int | None = None

    @property
    def kind(self) -> str:
        return INTERMEDIATE if self.partner is None else EVENT

    def on_line(self) -> tuple[int, ...]:
        if self.partner is None:
            return (self.pivot,)
        return (self.pivot, self.partner)


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
        keys = [p.y - k * p.x for p in ps]  # cross(d, p)
        if len(set(keys)) != n:
            continue
        order = sorted(range(n), key=keys.__getitem__)
        pivot = order[(n - 1) // 2]
        return OrientedLine(pivot, d)
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

    A ray with cross(t, best) == 0 ties the best: its point lies on the
    line through the pivot and the best point, on either side of the
    pivot, since a far-side ray is flipped onto the same ray.  A tie
    that still holds at the end means the winning event line carries a
    third point, so it raises, also under `python -O`.  This is the
    sweep's one check against a collinear triple.
    """
    v = ps[pivot]
    vx, vy = v.x, v.y
    rx, ry = ref
    bx, by = -rx, -ry
    best_idx = -1
    tied = False
    for i, p in enumerate(ps.points):
        dx = p.x - vx
        dy = p.y - vy
        c = rx * dy - ry * dx
        if c == 0:
            continue
        if c > 0:
            dx = -dx
            dy = -dy
        c = dx * by - dy * bx
        if c < 0:
            bx = dx
            by = dy
            best_idx = i
            tied = False
        elif c == 0:
            tied = True
    if best_idx < 0:
        raise AssertionError("no alignment candidate about the pivot")
    if tied:
        raise AssertionError("off-line point aligned with sweep state")
    return (bx, by), best_idx


@dataclass(frozen=True)
class RotationSequence:
    """All states of one full clockwise turn.

    intermediates[i] and events[i] alternate: the sweep leaves
    intermediates[i] through events[i] and arrives at
    intermediates[i+1] (cyclically; the last event returns to the start
    state).  `pivots` is derived from them.  opposite_index is the
    intermediate state whose interval contains the direction opposite
    the start line, i.e. the state reached after rotating by exactly a
    half turn.
    """

    intermediates: tuple[OrientedLine, ...]
    events: tuple[OrientedLine, ...]
    opposite_index: int
    intermediate_partitions: tuple[SidePartition, ...]
    event_partitions: tuple[SidePartition, ...]

    @property
    def pivots(self) -> tuple[int, ...]:
        """The start pivot followed by each event's partner, so it ends on
        the start pivot when the last event returns there."""
        return (self.intermediates[0].pivot,) + tuple(e.partner for e in self.events)

    @property
    def left_size(self) -> int:
        return len(self.intermediate_partitions[0].left)

    def states(self) -> Iterator[tuple[OrientedLine, SidePartition]]:
        """All states in sweep order, intermediate and event interleaved."""
        for i, inter in enumerate(self.intermediates):
            yield inter, self.intermediate_partitions[i]
            yield self.events[i], self.event_partitions[i]


def sweep_states(
    ps: PointSet,
) -> Generator[tuple[OrientedLine, SidePartition], None, int]:
    """The states of one full clockwise turn with their closed sides.

    Yields the start line, then alternately the event line met next and
    the intermediate line after it; the state after the last event is
    the start again and is not yielded.  The moving direction passes the
    reversed start direction once (half turn) and the start direction
    once (full turn); the start direction is generic, so neither passage
    coincides with an event.

    Only the start line's sides are computed from the points.  Every
    later state's sides follow from the state before it by the side
    laws: with v the pivot and w the event's partner, the event line
    adds w to the side it did not come from, and the next intermediate
    line drops v from that same side.  The derivation assumes general
    position, which `_next_alignment` checks at each event.  A consumer
    that trusts one state's sides should recompute them, as
    `builder.find_valid_split` does for its winner.  Once drained, the
    generator runs the closing checks (half turn, pivot closure, wrap
    equals start, which tests the whole chain of derivations) and
    returns the half-turn state's index.
    """
    n = len(ps)
    start = initial_halving_line(ps)
    start_part = side_partition(start, ps)
    d_ref = start.direction
    d_opp = (-d_ref[0], -d_ref[1])
    line, part, entering = start, start_part, d_ref
    t_ev, partner = _next_alignment(ps, start.pivot, d_ref)
    index = 0  # of `line` among the intermediate states
    opposite: int | None = None
    cap = 8 * n**2 + 16
    while True:
        if index > cap:
            raise AssertionError("sweep failed to terminate")
        # `line` spans the clockwise open interval (entering, t_ev), and
        # cross(entering, t_ev) < 0 as `_strictly_between` requires.
        if _strictly_between(entering, d_opp, t_ev):
            if opposite is not None:
                raise AssertionError("half-turn direction passed twice")
            opposite = index
        if _strictly_between(entering, d_ref, t_ev):
            break
        yield line, part
        left, right = part.left, part.right
        if partner in right:
            event_part = SidePartition(left | {partner}, right)
            nxt_part = SidePartition(event_part.left - {line.pivot}, right)
        else:
            event_part = SidePartition(left, right | {partner})
            nxt_part = SidePartition(left, event_part.right - {line.pivot})
        yield OrientedLine(line.pivot, t_ev, partner=partner), event_part
        t_after, partner_after = _next_alignment(ps, partner, t_ev)
        nxt = OrientedLine(partner, _add(t_ev, t_after))
        line, part, entering = nxt, nxt_part, t_ev
        t_ev, partner = t_after, partner_after
        index += 1
    if opposite is None:
        raise AssertionError("full turn completed before half turn")
    if line.pivot != start.pivot:
        raise AssertionError("sweep did not close on its start pivot")
    if part != start_part:
        raise AssertionError("wrap state differs from start")
    return opposite


def full_rotation(ps: PointSet) -> RotationSequence:
    """Drain `sweep_states` into a stored full turn, closing checks included."""
    states = sweep_states(ps)
    lines: list[OrientedLine] = []
    parts: list[SidePartition] = []
    while True:
        try:
            line, part = next(states)
        except StopIteration as done:
            opposite = done.value
            break
        lines.append(line)
        parts.append(part)
    return RotationSequence(
        intermediates=tuple(lines[0::2]),
        events=tuple(lines[1::2]),
        opposite_index=opposite,
        intermediate_partitions=tuple(parts[0::2]),
        event_partitions=tuple(parts[1::2]),
    )
