"""Empty triangles of a point set and the disconnected-triangle count.

A triple is an empty triangle when no other point of the set lies
strictly inside it.  Relative to a graph, an empty triangle is
"disconnected" when its three vertices induce at most one edge.
Emptiness inside an induced subgraph is always judged against the
subgraph's own points, not the parent's.

The disconnected count tests emptiness only for triples that induce at
most one edge.  On a half-plane subset it can instead filter the
parent's witnesses, which needs no emptiness test at all.  The O(n^4)
scan of every triple stays as the reference enumeration.  Both scans
are cached per point set (and edge set), so a repeated build is warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .geometry import INTERIOR, PointSet, point_in_triangle
from .graphs import Edge, GeometricGraph

Triple = tuple[int, int, int]


def enumerate_empty_triangles(ps: PointSet) -> list[Triple]:
    """All empty triangles of ps, sorted lexicographically.

    Reference O(n^4) scan: every triple against every other point.
    """
    if len(ps) < 3:
        raise ValueError("need at least 3 points")
    return list(_empty_triples(ps))


@lru_cache(maxsize=4096)
def _empty_triples(
    ps: PointSet, edges: frozenset[Edge] | None = None
) -> tuple[Triple, ...]:
    """Sorted empty triples of ps; with `edges`, only those inducing <= 1."""
    n = len(ps)
    triples = combinations(range(n), 3) if edges is None else _candidates(n, edges)
    return tuple(t for t in triples if _is_empty(ps, t))


def _is_empty(ps: PointSet, triple: Triple) -> bool:
    i, j, k = triple
    a, b, c = ps[i], ps[j], ps[k]
    return all(
        point_in_triangle(ps[t], a, b, c) != INTERIOR
        for t in range(len(ps))
        if t not in triple
    )


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
