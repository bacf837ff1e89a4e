"""Instance families: convex-position paths and complements, the
pulled-in-vertex construction, and seeded random instances.

Regular polygons are only approximated on the integer grid, so every
advertised property (convex position, the exact disconnected-triangle
count, interior placement) is re-verified on the generated coordinates
and a failed certificate raises instead of shipping a broken instance.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .geometry import (
    INTERIOR,
    GeneralPositionError,
    Point,
    PointSet,
    _direction_clash,
    in_convex_position,
    orient,
    point_in_triangle,
)
from .graphs import GeometricGraph, complete_graph, is_crossing_free
from .triangles import (
    _all_empty,
    _below_tables,
    _empty_candidates,
    disconnected_empty_triangles,
)

DEFAULT_SCALE = 10**6
RANDOM_BOX = 10**6


class GenerationError(RuntimeError):
    """A generator could not realize its certified instance."""


@dataclass(frozen=True)
class Instance:
    graph: GeometricGraph
    family_tag: str
    seed: int | None = None


def convex_position_points(n: int, scale: int = DEFAULT_SCALE) -> PointSet:
    """n integer points in convex position, indexed in hull order.

    Rounds the vertices of a regular polygon of the given radius and
    verifies the result; on a rounding collision the radius is doubled
    and the construction retried.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    radius = scale
    for _ in range(12):
        pts = tuple(
            Point(
                round(radius * math.cos(2 * math.pi * i / n)),
                round(radius * math.sin(2 * math.pi * i / n)),
            )
            for i in range(n)
        )
        try:
            ps = PointSet(pts)
        except (GeneralPositionError, ValueError):
            radius *= 2
            continue
        if in_convex_position(ps) and _in_hull_order(ps):
            return ps
        radius *= 2
    raise GenerationError(f"no convex realization for n={n} up to radius {radius}")


def _in_hull_order(ps: PointSet) -> bool:
    n = len(ps)
    return all(orient(ps[i], ps[(i + 1) % n], ps[(i + 2) % n]) == 1 for i in range(n))


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
    edges = frozenset(set(combinations(range(n), 2)) - path)
    g = GeometricGraph(ps, edges)
    got = disconnected_empty_triangles(g).count
    if got != n - 2:
        raise GenerationError(
            f"path complement certificate failed: expected {n - 2}, got {got}"
        )
    return Instance(g, "path_complement")


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
    for denom in (4, 8, 16, 32, 64, 128):
        # Pull from the last hull vertex toward the ear centroid.
        w = Point(
            c.x + round((a.x + b.x - 2 * c.x) / (3 * denom)),
            c.y + round((a.y + b.y - 2 * c.y) / (3 * denom)),
        )
        try:
            ps = PointSet(hull.points + (w,))
        except (GeneralPositionError, ValueError):
            continue
        if point_in_triangle(w, a, b, c) != INTERIOR:
            continue
        path_edges = frozenset((i, i + 1) for i in range(n - 1))
        r = GeometricGraph(ps, path_edges)
        if not is_crossing_free(r, r.edges):
            continue
        complement = GeometricGraph(
            ps, frozenset(set(combinations(range(n), 2)) - set(path_edges))
        )
        if disconnected_empty_triangles(complement).count != n - 3:
            continue
        return Instance(r, "r_construction"), Instance(complement, "r_construction")
    raise GenerationError(f"no certified pulled-vertex construction for n={n}")


def random_point_set(n: int, rng: random.Random, box: int = RANDOM_BOX) -> PointSet:
    """n integer points in general position, sampled uniformly in a box
    with point-wise rejection of degeneracies.

    A candidate is kept when it sees the points kept so far in pairwise
    distinct, nonzero directions: O(k) per candidate against k points.
    """
    if n < 1:
        raise ValueError("need at least 1 point")
    pts: list[Point] = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 1000 * n + 1000:
            raise GenerationError("rejection sampling budget exhausted")
        cand = Point(rng.randint(-box, box), rng.randint(-box, box))
        if not _direction_clash(cand, pts):
            pts.append(cand)
    return PointSet(tuple(pts))


def random_instance(n: int, seed: int, mode: str = "budgeted") -> Instance:
    """Seeded random instance on n points.

    mode "complete": all edges (no disconnected empty triangle at all).
    mode "budgeted": start complete, repeatedly try to delete a random
    edge, skipping any deletion that would push the disconnected count
    past n-3; the result always satisfies the count <= n-3.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    if mode not in ("complete", "budgeted"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    ps = random_point_set(n, rng)
    g = complete_graph(ps)
    if mode == "complete":
        return Instance(g, "complete", seed=seed)

    # Induced-edge count of each empty triangle, by its position in
    # `empties`; deleting an edge disconnects the triangles at count 2.
    # The closing check recounts from the same tables by the candidate
    # test, so it cross-checks the enumeration too.
    tables = _below_tables(ps)
    empties = _all_empty(tables)
    induced = [3] * len(empties)  # complete graph: every pair present
    by_edge: dict[tuple[int, int], list[int]] = {}
    for t, (u, v, w) in enumerate(empties):
        for e in ((u, v), (v, w), (u, w)):
            by_edge.setdefault(e, []).append(t)

    edges = sorted(g.edges)  # rng draws by position, so removals keep it sorted
    disconnected = 0
    budget = n - 3
    for _ in range(3 * len(edges)):
        if not edges:
            break
        e = rng.choice(edges)
        hit = by_edge.get(e, ())
        delta = sum(1 for t in hit if induced[t] == 2)
        if disconnected + delta > budget:
            continue
        for t in hit:
            induced[t] -= 1
        disconnected += delta
        del edges[bisect_left(edges, e)]

    result = GeometricGraph(ps, frozenset(edges))
    check = len(_empty_candidates(tables, result.edges))
    if check != disconnected or check > budget:
        raise GenerationError("incremental disconnected count drifted")
    return Instance(result, "random_budgeted", seed=seed)
