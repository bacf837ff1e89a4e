"""Diagnostics that only the tests use.

They exercise single sweep steps, the triangle-crossing lemma behind the
case-2 walk, and the half-plane emptiness lemma behind inherited
witness counts.  The package itself never calls them.
"""

from __future__ import annotations

from typing import Iterable

from planetree.geometry import INTERIOR, PointSet, point_in_triangle
from planetree.rotation import (
    EVENT,
    INTERMEDIATE,
    OrientedLine,
    RotationSequence,
    _add,
    _next_alignment,
)
from planetree.triangles import enumerate_empty_triangles


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


def line_crosses_triangle(
    line: OrientedLine, tri: Iterable[int], ps: PointSet
) -> bool:
    """True iff the line strictly separates the triangle's vertices.

    The sign-based reference for the crossing lemma: one cross product
    per vertex, independent of the stored sides that `case2_walk` reads.
    A vertex lying on the line (pivot or event partner) counts for
    neither side, so touching without separating is not a crossing.
    """
    v = ps[line.pivot]
    dx, dy = line.direction
    has_left = has_right = False
    for i in tri:
        p = ps[i]
        s = dx * (p.y - v.y) - dy * (p.x - v.x)
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


def relative_equals_global_empty(parent: PointSet, subset: Iterable[int]) -> bool:
    """Subset-relative emptiness implies parent emptiness.

    Meaningful when subset is the intersection of parent with a closed
    half-plane (then it is a theorem); arbitrary subsets may return
    False.
    """
    order = sorted(set(subset))
    if len(order) < 3:
        return True  # no triangle at all
    sub = parent.subset(order)
    outside = [parent[i] for i in range(len(parent)) if i not in set(order)]
    for li, lj, lk in enumerate_empty_triangles(sub):
        a, b, c = sub[li], sub[lj], sub[lk]
        for p in outside:
            if point_in_triangle(p, a, b, c) == INTERIOR:
                return False
    return True
