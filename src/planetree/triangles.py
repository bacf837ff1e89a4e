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
witnesses, which needs no emptiness test at all.  Each call builds the
counts it reads and passes them down.  One result is memoised: the
root count, per point set and edge set (`_empty_triples`), so a
repeated build of the same graph is warm.  The O(n^4) scan of every
triple against every point is kept in the tests as the independent
reference.
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
# order, pos and below of `_below_tables`.
Tables = tuple[list[int], list[list[int]], list[list[int]]]


def enumerate_empty_triangles(ps: PointSet) -> list[Triple]:
    """All empty triangles of ps, sorted lexicographically.

    O(n^3): each triple is tested in O(1) from per-pair below-segment
    counts (see `_all_empty`).
    """
    if len(ps) < 3:
        raise ValueError("need at least 3 points")
    return _all_empty(_below_tables(ps))


def _all_empty(tables: Tables) -> list[Triple]:
    """Sorted empty triples of the point set that `tables` describes.

    Each triple is tested in O(1) from the per-pair counts of
    `_below_tables`.  For ranks a < b, below(a, b) counts the points
    ranked strictly between them that lie strictly right of a -> b.  A
    triple a < b < c is empty iff

        below(a, c) == below(a, b) + below(b, c) + [b right of a -> c],

    because the points inside are below(a,b) + below(b,c) - below(a,c)
    when b is left of a -> c, and below(a,c) - below(a,b) - below(b,c) - 1
    (b itself is below ac) when it is right.  `_empty_candidates` applies
    the same identity to fewer triples.
    """
    order, pos, below = tables
    n = len(order)
    found = []
    for a in range(n - 2):
        pa, ba = pos[a], below[a]
        for b in range(a + 1, n - 1):
            pab, bab, bb = pa[b], ba[b], below[b]
            for c in range(b + 1, n):
                if ba[c] == bab + bb[c] + (pab < pa[c]):
                    found.append(tuple(sorted((order[a], order[b], order[c]))))
    found.sort()
    return found


def _empty_candidates(tables: Tables, edges: frozenset[Edge]) -> list[Triple]:
    """Sorted empty triples that induce at most one of `edges`.

    Tests only `_candidates`, by the identity of `_all_empty`.
    """
    order, pos, below = tables
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    empty = []
    for t in _candidates(len(order), edges):
        a, b, c = sorted((rank[t[0]], rank[t[1]], rank[t[2]]))
        if below[a][c] == below[a][b] + below[b][c] + (pos[a][b] < pos[a][c]):
            empty.append(t)
    return empty


@lru_cache(maxsize=4096)
def _empty_triples(ps: PointSet, edges: frozenset[Edge]) -> tuple[Triple, ...]:
    """`_empty_candidates` of ps and edges, memoised per point set and edge set.

    The one cache of the package: the builder's root count, so that a
    repeated build of the same graph reads it instead of testing again.
    `perfbench` clears it before every timed build.
    """
    return tuple(_empty_candidates(_below_tables(ps), edges))


def _below_tables(ps: PointSet) -> Tables:
    """order, pos[a][c] and below[a][b] for ps ranked by (x, y), ranks a < b, c.

    order[r] is the index in ps of the point of rank r.  Every point
    ranked after a lies in the half-plane dx > 0, or dx == 0 and dy > 0,
    about a, so one cross-product sign orders them by angle, clockwise
    first; pos[a][c] is c's place in that order.  Then b lies right of
    a -> c iff pos[a][b] < pos[a][c], and below[a][b] counts the c
    between a and b with pos[a][c] < pos[a][b], filled by bisect
    insertion in rank order.  Entries at or before the diagonal are 0.
    The (x, y) order is a symbolic shear of the x order that keeps every
    orientation.
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
