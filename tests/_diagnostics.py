"""Diagnostics that only the tests use.

They exercise single sweep steps, the triangle-crossing lemma behind the
case-2 walk, and the half-plane emptiness lemma behind inherited
witness counts.  They keep the all-pairs crossing scan as the reference
for the crossing sweep that certification and the oracle share, test
convex position and the connectivity of a triple, draw random graphs
on points in convex position, and build point sets whose angular sort
meets float ties.
The package itself never calls them.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from planetree.generators import convex_position_points
from planetree.geometry import (
    COORD_LIMIT,
    INTERIOR,
    Point,
    PointSet,
    hull_order,
    point_in_triangle,
    segments_properly_cross,
)
from planetree.graphs import Edge, GeometricGraph, canonical_edge
from planetree.rotation import (
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
    event = OrientedLine(line.pivot, t_ev, partner=partner)
    t_after, _ = _next_alignment(ps, partner, t_ev)
    inter = OrientedLine(partner, _add(t_ev, t_after))
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
    ps: PointSet, seq: RotationSequence, i: int, j: int, tri: tuple[int, int, int]
) -> tuple[int, int]:
    """Locate where a triangle switches sides during seq, the sweep of ps.

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
        if line_crosses_triangle(seq.intermediates[l], tri, ps):
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


def in_convex_position(ps: PointSet) -> bool:
    """True iff every point of ps is a vertex of the convex hull of ps."""
    return len(hull_order(ps)) == len(ps)


def triple_connected(g: GeometricGraph, u: int, v: int, w: int) -> bool:
    """True iff the subgraph induced by {u, v, w} is connected.

    A 3-vertex graph is connected exactly when at least two of the three
    possible edges are present.
    """
    if len({u, v, w}) != 3:
        raise ValueError("indices must be pairwise distinct")
    count = (
        (canonical_edge(u, v) in g.edges)
        + (canonical_edge(v, w) in g.edges)
        + (canonical_edge(u, w) in g.edges)
    )
    return count >= 2


def random_convex_graph(n: int, density: float, seed: int) -> GeometricGraph:
    """A seeded random graph on n points in convex position.

    The points are a rounded regular polygon or lie on the parabola
    y = x^2 (which no line meets three times), and they are indexed in
    a random order, so index order is not hull order.  Each pair is an
    edge with probability `density`.
    """
    rng = random.Random(seed)
    if seed % 2:
        pts = list(convex_position_points(n).points)
    else:
        pts = [Point(x, x * x) for x in rng.sample(range(-1000, 1001), n)]
    rng.shuffle(pts)
    edges = frozenset(e for e in combinations(range(n), 2) if rng.random() < density)
    return GeometricGraph(PointSet(tuple(pts)), edges)


def all_pairs_crossing_pair(ps: PointSet, edges: Iterable[Edge]) -> tuple[Edge, Edge] | None:
    """The reference for `graphs.find_crossing_pair`: every pair of the
    sorted edges in lexicographic order, the first that properly crosses."""
    items = sorted(set(edges))
    for (a, b), (c, d) in combinations(items, 2):
        if segments_properly_cross(ps[a], ps[b], ps[c], ps[d]):
            return (a, b), (c, d)
    return None


def all_pairs_crossing_positions(ps: PointSet, edges: list[Edge]) -> list[tuple[int, int]]:
    """The reference for `graphs.crossing_pairs`: the positions (i, j),
    i < j, of every pair of the edges that properly crosses."""
    return [
        (i, j)
        for (i, (a, b)), (j, (c, d)) in combinations(enumerate(edges), 2)
        if segments_properly_cross(ps[a], ps[b], ps[c], ps[d])
    ]


def slope_tie_point_sets(sy: int) -> list[PointSet]:
    """Point sets near the box corner (-2**30, -sy * 2**30) whose float
    slopes from the corner tie.

    Every r in [1, 200) is used once, in a seeded shuffle cut into sets
    of 20 values.  Each r adds the pair a + (m, sy (m - r)) and
    a + (m + 1, sy (m + 1 - r)) for its own m in [2**30, 2**31 - 1).  The
    two slopes from the corner differ by r / (m (m + 1)) < 2**-52, less
    than two units in the last place of a slope near 1, so they often
    round to one float.  For sy = -1 the exact order of a tied pair is
    the reverse of its (x, y) rank order.
    """
    rng = random.Random(4_000 + sy)
    rs = list(range(1, 200))
    rng.shuffle(rs)
    corner = Point(-COORD_LIMIT, -sy * COORD_LIMIT)
    sets = []
    for start in range(0, len(rs), 20):
        pts = [corner]
        for r in rs[start:start + 20]:
            m = rng.randrange(COORD_LIMIT, 2 * COORD_LIMIT - 1)
            for k in (m, m + 1):
                pts.append(Point(corner.x + k, corner.y + sy * (k - r)))
        rng.shuffle(pts)
        sets.append(PointSet(tuple(pts)))
    return sets
