"""Empty triangles of a point set and the disconnected-triangle count.

A triple is an empty triangle when no other point of the set lies
strictly inside it.  Relative to a graph, an empty triangle is
"disconnected" when its three vertices induce at most one edge.
Emptiness inside an induced subgraph is always judged against the
subgraph's own points, not the parent's.

Emptiness is tested in O(1) per triple from per-pair counts of the
points below each segment (Eppstein, Overmars, Rote and Woeginger,
"Finding minimum area k-gons", DCG 1992).  Every pair's count is filled
up front from per-point angular orders, in O(n^2 log n).  Enumerating
all empty triangles then tests every triple, O(n^3) in all; the
disconnected count tests only the triples that induce at most one
edge.  On a half-plane subset it can instead filter the parent's
witnesses, which needs no emptiness test at all.  Both are cached per
point set (and edge set), so a repeated build is warm.  The O(n^4) scan
of every triple against every point is kept in the tests as the
independent reference.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache
from itertools import combinations
from typing import Iterable

from .geometry import PointSet
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
    strictly between them that lie strictly right of a -> b.  A triple
    a < b < c is empty iff

        below(a, c) == below(a, b) + below(b, c) + [b right of a -> c],

    because the points inside are below(a,b) + below(b,c) - below(a,c)
    when b is left of a -> c, and below(a,c) - below(a,b) - below(b,c) - 1
    (b itself is below ac) when it is right.  Both the full enumeration
    and the candidates read the counts from `_below_tables`.
    """
    order, pos, below = _below_tables(ps)
    if edges is None:
        found = (
            tuple(sorted((order[a], order[b], order[c])))
            for a, b, c in _all_empty(pos, below)
        )
        return tuple(sorted(found))
    rank = [0] * len(ps)
    for r, i in enumerate(order):
        rank[i] = r
    empty = []
    for t in _candidates(len(ps), edges):
        a, b, c = sorted((rank[t[0]], rank[t[1]], rank[t[2]]))
        if below[a][c] == below[a][b] + below[b][c] + (pos[a][b] < pos[a][c]):
            empty.append(t)
    return tuple(empty)


def _all_empty(pos: list[list[int]], below: list[list[int]]) -> list[Triple]:
    """Empty triples a < b < c, as ranks, from `_below_tables`."""
    n = len(pos)
    empty = []
    for a in range(n - 2):
        pa, ba = pos[a], below[a]
        for b in range(a + 1, n - 1):
            pab, bab, bb = pa[b], ba[b], below[b]
            for c in range(b + 1, n):
                if ba[c] == bab + bb[c] + (pab < pa[c]):
                    empty.append((a, b, c))
    return empty


@lru_cache(maxsize=8)
def _below_tables(
    ps: PointSet,
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """order, pos[a][c] and below[a][b] for ps ranked by (x, y), ranks a < b, c.

    order[r] is the index in ps of the point of rank r.  Every point
    ranked after a lies in the half-plane dx > 0, or dx == 0 and dy > 0,
    about a, so one cross-product sign orders them by angle, clockwise
    first; pos[a][c] is c's place in that order.  Then b lies right of
    a -> c iff pos[a][b] < pos[a][c], and below[a][b] counts the c
    between a and b with pos[a][c] < pos[a][b], filled by bisect
    insertion in rank order.  Entries at or before the diagonal are 0.
    Cached for a few point sets, so that counting candidates after a full
    enumeration (the generator's closing check) builds no second table.
    """
    n = len(ps)
    order = sorted(range(n), key=ps.__getitem__)
    pts = [ps[i] for i in order]
    pos: list[list[int]] = []
    below: list[list[int]] = []
    for a, p in enumerate(pts):
        px, py = p.x, p.y
        d = [(q.x - px, q.y - py) for q in pts]

        def clockwise_first(i: int, j: int) -> int:
            return d[i][1] * d[j][0] - d[i][0] * d[j][1]

        row = [0] * n
        for place, c in enumerate(sorted(range(a + 1, n), key=cmp_to_key(clockwise_first))):
            row[c] = place
        counts = [0] * n
        seen: list[int] = []
        for b in range(a + 1, n):
            counts[b] = bisect_left(seen, row[b])
            insort(seen, row[b])
        pos.append(row)
        below.append(counts)
    return order, pos, below


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
    """Sorted triples of n points with two non-edges at a shared vertex.

    Each triple is built once: at the vertex its two non-edges share
    when its third pair is an edge, and at its smallest vertex when all
    three pairs are non-edges.
    """
    non_adjacent: list[list[int]] = [[] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if (i, j) not in edges:
            non_adjacent[i].append(j)
            non_adjacent[j].append(i)
    triples: list[Triple] = []
    for v, others in enumerate(non_adjacent):
        for a, b in combinations(others, 2):  # a < b
            if v < a:
                triples.append((v, a, b))
            elif (a, b) in edges:
                triples.append((a, v, b) if v < b else (a, b, v))
    triples.sort()
    return triples
