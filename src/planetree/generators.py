"""Instance families: convex-position paths and complements, the
pulled-in-vertex construction, and seeded random instances.

Regular polygons are only approximated on the integer grid, so every
advertised property (convex position, the exact disconnected-triangle
count, interior placement) is certified once on the generated
coordinates, and a failed certificate raises instead of shipping a
broken instance.  The certificates make the points and edges valid, so
nothing is validated again, and no count fills the root-count cache.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, compress

from .geometry import (
    COORD_LIMIT,
    INTERIOR,
    Point,
    PointSet,
    _direction_clash,
    hull_order,
    point_in_triangle,
)
from .graphs import GeometricGraph, complete_graph, find_crossing_pair
from .triangles import _below_tables, _empty_candidates, _empty_walk

DEFAULT_SCALE = 10**6
RANDOM_BOX = 10**6


class GenerationError(RuntimeError):
    """A generator could not realize its certified instance."""


@dataclass(frozen=True)
class Instance:
    graph: GeometricGraph


def convex_position_points(n: int, scale: int = DEFAULT_SCALE) -> PointSet:
    """n integer points in convex position, indexed in hull order.

    Rounds the vertices of a regular polygon of the given radius and
    certifies the result by its hull order alone; on a rounding collision
    the radius is doubled and the construction retried while it stays
    within COORD_LIMIT.  The error names the last radius tried.  No
    coordinate exceeds the radius, so none exceeds the bound.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    if not 0 < abs(scale) <= COORD_LIMIT:
        raise ValueError(f"scale {scale} must be nonzero with |scale| <= {COORD_LIMIT}")
    radius = scale
    while True:
        pts = tuple(
            Point(
                round(radius * math.cos(2 * math.pi * i / n)),
                round(radius * math.sin(2 * math.pi * i / n)),
            )
            for i in range(n)
        )
        # The hull runs counter-clockwise from its lowest point k and keeps only
        # strict turns: listing all n points as k, k+1, ... mod n proves them
        # distinct, with no collinear triple, in convex position and index order.
        ps = PointSet._trusted(pts)
        hull = hull_order(ps)
        if hull == tuple((hull[0] + i) % n for i in range(n)):
            return ps
        if abs(2 * radius) > COORD_LIMIT:
            raise GenerationError(f"no convex realization for n={n} up to radius {radius}")
        radius *= 2


def path_complement(n: int, scale: int = DEFAULT_SCALE) -> Instance:
    """Complement of the plane path along n convex-position points.

    Certified to have exactly n-2 disconnected empty triangles (the
    consecutive path triples).  n = 3 is allowed but degenerate: the
    complement is a single edge.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    ps = convex_position_points(n, scale)
    path = {(i, i + 1) for i in range(n - 1)}
    g = GeometricGraph._trusted(ps, frozenset(combinations(range(n), 2)) - path)
    got = len(_empty_candidates(_below_tables(ps), g.edges))
    if got != n - 2:
        raise GenerationError(
            f"path complement certificate failed: expected {n - 2}, got {got}"
        )
    return Instance(g)


def r_construction(n: int, scale: int = DEFAULT_SCALE) -> tuple[Instance, Instance]:
    """Path on n-1 convex points plus one point pulled inside the last ear,
    together with the complement of that path.

    The pulled point w sits strictly inside the triangle of the three
    last hull vertices, close to the final one, which kills exactly one
    ear triple; the complement is certified to have exactly n-3
    disconnected empty triangles, and the path itself is certified
    crossing-free.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    hull = convex_position_points(n - 1, scale)
    a, b, c = hull[n - 4], hull[n - 3], hull[n - 2]
    path_edges = frozenset((i, i + 1) for i in range(n - 1))
    complement_edges = frozenset(combinations(range(n), 2)) - path_edges
    for denom in (4, 8, 16, 32, 64, 128):
        # Pull from the last hull vertex toward the ear centroid.
        w = Point(
            c.x + round((a.x + b.x - 2 * c.x) / (3 * denom)),
            c.y + round((a.y + b.y - 2 * c.y) / (3 * denom)),
        )
        # Strictly inside a triangle of bounded hull points, w is within
        # the bound; seeing the hull points in distinct, nonzero directions,
        # it joins them in general position.
        if point_in_triangle(w, a, b, c) != INTERIOR or _direction_clash(w, hull.points):
            continue
        ps = PointSet._trusted(hull.points + (w,))
        if find_crossing_pair(ps, path_edges) is not None:
            continue
        complement = GeometricGraph._trusted(ps, complement_edges)
        if len(_empty_candidates(_below_tables(ps), complement.edges)) != n - 3:
            continue
        return Instance(GeometricGraph._trusted(ps, path_edges)), Instance(complement)
    raise GenerationError(f"no certified pulled-vertex construction for n={n}")


def random_point_set(n: int, rng: random.Random, box: int = RANDOM_BOX) -> PointSet:
    """n integer points in general position, sampled uniformly in the box
    [-box, box]^2, 1 <= box <= COORD_LIMIT, with point-wise rejection of
    degeneracies.

    A candidate is kept when it sees the points kept so far in pairwise
    distinct, nonzero directions: O(k) per candidate against k points.
    That is the general-position check itself, and the box keeps every
    point within the coordinate bound, so the result is not validated
    again.
    """
    if n < 1:
        raise ValueError("need at least 1 point")
    if not 1 <= box <= COORD_LIMIT:
        raise ValueError(f"box {box} must have 1 <= box <= {COORD_LIMIT}")
    pts: list[Point] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 1000 * n + 1000:
            raise GenerationError("rejection sampling budget exhausted")
        cand = Point(rng.randint(-box, box), rng.randint(-box, box))
        if not _direction_clash(cand, pts):
            pts.append(cand)
    return PointSet._trusted(tuple(pts))


def random_instance(n: int, seed: int, mode: str = "budgeted") -> Instance:
    """Seeded random instance on n points.

    mode "complete": all edges (no disconnected empty triangle at all).
    mode "budgeted": start complete, repeatedly try to delete a random
    edge, skipping any deletion that would push the disconnected count
    past n-3; the result always satisfies the count <= n-3.

    Generation costs O(n^2 log n + T + m D + P), for m = C(n, 2) pairs,
    T empty triangles, D deletions and P = sum over v of C(d_v, 2), d_v
    being v's number of non-neighbours in the result.  The angular
    tables take O(n^2 log n), and the visibility walk
    `triangles._empty_walk` lists the triangles in O(T), filing each
    triangle's third vertex under each of its edges.  In the deletion
    loop a draw reads its deletion's cost from a per-edge counter in
    O(1), and a deletion updates the counters of the other two edges of
    each of its triangles, O(T) over the loop.  A triangle's
    induced-edge count is not stored: it is the number of its edges
    still live.  But each deletion also removes its id from the sorted
    list of live ids, which shifts Theta(m) entries, so the loop costs
    O(T + m D).  A budgeted graph loses about a fifth of its pairs (n =
    48 to 1024), so D is about m / 5 and the loop Theta(n^4): it leads
    at large n.  The closing recount by `_empty_candidates` tests the P
    pairs of non-neighbours, so P is Theta(n^3).  The graph never loses
    its last edge, since an edgeless graph would have at least n-2
    disconnected empty triangles.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    if mode not in ("complete", "budgeted"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    ps = random_point_set(n, rng)
    if mode == "complete":
        return Instance(complete_graph(ps))

    # Edge ids are positions in `ends`, the sorted list of the complete
    # graph's pairs, so drawing from the sorted live ids draws the same
    # position, and the same edge, as drawing from the sorted live pairs.
    # thirds[e] lists the third vertex of each empty triangle on edge e;
    # at_two[e] counts e's empty triangles with two live edges, the ones
    # that deleting e disconnects.  The closing check recounts from the
    # same tables by the below-count test of `_empty_candidates`, not by
    # the walk, so it cross-checks the enumeration too.
    tables = _below_tables(ps)
    ends = list(combinations(range(n), 2))
    m = len(ends)
    base = [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]  # id(i, j) = base[i] + j
    thirds: list[list[int]] = [[] for _ in range(m)]
    for u, v, w in _empty_walk(ps, tables):
        thirds[base[u] + v if u < v else base[v] + u].append(w)
        thirds[base[v] + w if v < w else base[w] + v].append(u)
        thirds[base[u] + w if u < w else base[w] + u].append(v)
    at_two = [0] * m
    live = bytearray([1]) * m

    edges = list(range(m))  # sorted; removals keep it sorted
    disconnected = 0
    budget = n - 3
    for _ in range(3 * m):
        e = rng.choice(edges)
        delta = at_two[e]
        if disconnected + delta > budget:
            continue
        live[e] = 0
        i, j = ends[e]
        for c in thirds[e]:
            a = base[i] + c if i < c else base[c] + i
            b = base[j] + c if j < c else base[c] + j
            if live[a] and live[b]:  # deleting either now disconnects it
                at_two[a] += 1
                at_two[b] += 1
            elif live[a]:  # the one other live edge no longer does
                at_two[a] -= 1
            elif live[b]:
                at_two[b] -= 1
        disconnected += delta
        del edges[bisect_left(edges, e)]

    result = GeometricGraph._trusted(ps, frozenset(compress(ends, live)))
    check = len(_empty_candidates(tables, result.edges))
    if check != disconnected or check > budget:
        raise GenerationError("incremental disconnected count drifted")
    return Instance(result)
