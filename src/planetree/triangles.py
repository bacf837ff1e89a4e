"""Empty triangles of a point set and the disconnected-triangle count.

A triple is an empty triangle when no other point of the set lies
strictly inside it.  Relative to a graph, an empty triangle is
"disconnected" when its three vertices induce at most one edge.
Emptiness inside an induced subgraph is always judged against the
subgraph's own points, not the parent's.

Emptiness is tested in O(1) per triple from per-pair counts of the
points below each segment (Eppstein, Overmars, Rote and Woeginger,
"Finding minimum area k-gons", DCG 1992), so enumerating all empty
triangles is O(n^3).  The disconnected count tests only the triples
that induce at most one edge.  On a half-plane subset it can instead
filter the parent's witnesses, which needs no emptiness test at all.
Both are cached per point set (and edge set), so a repeated build is
warm.  The O(n^4) scan of every triple against every point is kept in
the tests as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .geometry import INTERIOR, Point, PointSet, orient, point_in_triangle
from .graphs import Edge, GeometricGraph

Triple = tuple[int, int, int]


def enumerate_empty_triangles(ps: PointSet) -> list[Triple]:
    """All empty triangles of ps, sorted lexicographically.

    O(n^3): each triple is tested in O(1) from per-pair below-segment
    counts (see `_empty_triples`).
    """
    if len(ps) < 3:
        raise ValueError("need at least 3 points")
    return list(_empty_triples(ps))


@lru_cache(maxsize=4096)
def _empty_triples(
    ps: PointSet, edges: frozenset[Edge] | None = None
) -> tuple[Triple, ...]:
    """Sorted empty triples of ps; with `edges`, only those inducing <= 1.

    Each triple is tested in O(1) from per-pair counts.  Points are ranked
    by (x, y), a symbolic shear of the x order that keeps every
    orientation.  For ranks a < b, below(a, b) counts the points ranked
    strictly between them that lie strictly right of a -> b.  For a < b < c
    the points inside triangle abc are below(a,b) + below(b,c) - below(a,c)
    when b is left of a -> c, and below(a,c) - below(a,b) - below(b,c) - 1
    (b itself is below ac) when it is right.  Each count is computed on
    first use, so only the pairs of tested triples are ever counted.
    """
    n = len(ps)
    triples = combinations(range(n), 3) if edges is None else _candidates(n, edges)
    order = sorted(range(n), key=ps.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    pts = [ps[i] for i in order]
    below = _BelowCounts(pts)
    empty = []
    for t in triples:
        a, b, c = sorted((rank[t[0]], rank[t[1]], rank[t[2]]))
        if orient(pts[a], pts[c], pts[b]) > 0:
            inside = below[a, b] + below[b, c] - below[a, c]
        else:
            inside = below[a, c] - below[a, b] - below[b, c] - 1
        if inside == 0:
            empty.append(t)
    return tuple(empty)


class _BelowCounts(dict):
    """below[a, b]: points ranked strictly between a < b, strictly right of a -> b.

    Counted by integer cross-product signs over that strip on first use.
    """

    def __init__(self, pts: list[Point]) -> None:
        super().__init__()
        self.pts = pts

    def __missing__(self, key: tuple[int, int]) -> int:
        a, b = key
        p, q = self.pts[a], self.pts[b]
        dx, dy = q.x - p.x, q.y - p.y
        count = sum(
            1 for r in self.pts[a + 1 : b] if dx * (r.y - p.y) < dy * (r.x - p.x)
        )
        self[key] = count
        return count


@dataclass(frozen=True)
class DisconnectedTriangles:
    """Count of disconnected empty triangles, with the witnesses themselves."""

    count: int
    witnesses: tuple[Triple, ...]


def disconnected_empty_triangles(
    g: GeometricGraph, inherited: Iterable[Triple] | None = None
) -> DisconnectedTriangles:
    """Empty triangles of g's point set whose vertices induce <= 1 edge of g.

    Witnesses are sorted lexicographically.  Without `inherited` only the
    triples that induce at most one edge are tested for emptiness: two
    of their three pairs are non-edges, and those share a vertex.

    With `inherited`, the parent's witnesses, g must be an induced
    subgraph of that parent on a closed half-plane of its points (a sweep
    side).  Then a triple is empty in g exactly when it is empty in the
    parent, so the result is the parent's witnesses inside g, re-indexed.
    On any other subset the result may be wrong.
    """
    if inherited is None:
        witnesses = _empty_triples(g.ps, g.edges)
    elif g.parent_map is None:
        raise ValueError("inherited witnesses need an induced subgraph")
    else:
        # parent_map is sorted, so re-indexing keeps the lexicographic order.
        local = {p: k for k, p in enumerate(g.parent_map)}
        witnesses = tuple(
            (local[u], local[v], local[w])
            for u, v, w in inherited
            if u in local and v in local and w in local
        )
    return DisconnectedTriangles(len(witnesses), witnesses)


def _candidates(n: int, edges: frozenset[Edge]) -> list[Triple]:
    """Sorted triples of n points with two non-edges at a shared vertex."""
    non_adjacent: list[list[int]] = [[] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if (i, j) not in edges:
            non_adjacent[i].append(j)
            non_adjacent[j].append(i)
    triples = {
        tuple(sorted((v, a, b)))
        for v, others in enumerate(non_adjacent)
        for a, b in combinations(others, 2)
    }
    return sorted(triples)


def relative_equals_global_empty(parent: PointSet, subset: Iterable[int]) -> bool:
    """Diagnostic: subset-relative emptiness implies parent emptiness.

    Meaningful when subset is the intersection of parent with a closed
    half-plane (then it is a theorem); arbitrary subsets may return
    False.  Used by property tests only.
    """
    order = sorted(set(subset))
    sub = PointSet(tuple(parent[i] for i in order))
    outside = [parent[i] for i in range(len(parent)) if i not in set(order)]
    for li, lj, lk in _empty_triples(sub):
        a, b, c = sub[li], sub[lj], sub[lk]
        for p in outside:
            if point_in_triangle(p, a, b, c) == INTERIOR:
                return False
    return True
