"""Empty triangles of a point set and the disconnected-triangle count.

A triple is an empty triangle when no other point of the set lies
strictly inside it.  Relative to a graph, an empty triangle is
"disconnected" when its three vertices induce at most one edge.
Emptiness inside an induced subgraph is always judged against the
subgraph's own points, not the parent's.

Every empty triangle is enumerated in O(T), for T of them, after
per-point angular orders (Dobkin, Edelsbrunner and Overmars,
"Searching for empty convex polygons", Algorithmica 1990): the points
after each point, in angular order, form a star-shaped polygon, and a
visibility walk over it emits each of its triangles once.  Emptiness
of a given triple is tested in O(1) from per-pair counts of the points
below each segment (Eppstein, Overmars, Rote and Woeginger, "Finding
minimum area k-gons", DCG 1992).  Both read one set of tables, filled
up front in O(n^2 log n) comparisons, plus O(n^3 / w) word operations
for the popcounts on w-bit words.  No step forms a float: each order
is one sort by the exact integer slope key floor(dy / dx * 2**62),
strictly monotone because two distinct slopes of differences within
2**31 differ by at least 2**-62, and within 2**93 (the argument is at
`geometry.COORD_LIMIT`).  Each below count is a popcount over an int
bitmask of the angular places already passed.  The disconnected
count draws only the triples that induce at most one edge, tests each
as it is drawn, and keeps and sorts only the empty ones.  On a
half-plane subset it can instead filter the parent's witnesses, which
needs no emptiness test at all.  Each call builds the counts it reads
and passes them down.  One result is memoised: the last graph's root
count (`_empty_triples`), so a build repeated back to back is warm and
no earlier graph is kept alive; the generators count without it, so a
generated instance builds cold.  The tests keep the O(n^3) scan of
every triple by the below counts and the O(n^4) scan of every triple
against every point as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator

from .geometry import PointSet
from .graphs import Edge, GeometricGraph

Triple = tuple[int, int, int]
# order, pos and below of `_below_tables`.
Tables = tuple[list[int], list[list[int]], list[list[int]]]
# The slope key of the one later point straight above a point: above
# every other key, which lies within 2**93 (see `geometry.COORD_LIMIT`).
_VERTICAL = 1 << 94


def enumerate_empty_triangles(ps: PointSet) -> list[Triple]:
    """All empty triangles of ps, sorted lexicographically.

    O(n^2 log n + T log T) for T empty triangles: the walk of
    `_empty_walk`, then one sort.
    """
    if len(ps) < 3:
        raise ValueError("need at least 3 points")
    return sorted(tuple(sorted(t)) for t in _empty_walk(ps, _below_tables(ps)))


def _empty_walk(ps: PointSet, tables: Tables) -> Iterator[Triple]:
    """Each empty triangle of ps once, as three indices in ps, in no set order.

    Dobkin, Edelsbrunner and Overmars, "Searching for empty convex
    polygons" (Algorithmica 1990).  The points ranked after a, in
    counter-clockwise order about a (the inverse of pos[a]), are a fan
    q_0, q_1, ... that bounds a polygon star-shaped from a.  The
    triangle a q_i q_j is empty iff q_i sees q_j inside that polygon, so
    the edges of its visibility graph are the empty triangles whose
    least-ranked vertex is a, each once.  PROCEED(j - 1, j) finds the
    edges that end at q_j:

        PROCEED(i, j):  while q_h, the front of Q_i, turns left at q_i toward q_j:
                            dequeue h from Q_i; PROCEED(h, j)
                        emit (i, j); enqueue i on Q_j

    where Q_i queues the other ends of the edges found to end at q_i.
    Every nested call shares j, so the calls are one stack of ints, not
    recursion.  A left turn opens a frame and every other test closes
    one, and each frame emits one triangle, so the walk makes at most 2T
    turn tests for its T triangles after the sorts.  The turn test is
    the exact integer cross sign.
    """
    order, pos, _ = tables
    n = len(order)
    xs = [ps[i].x for i in order]
    ys = [ps[i].y for i in order]
    for a in range(n - 2):
        fan = sorted(range(a + 1, n), key=pos[a].__getitem__)
        get = itemgetter(*fan)  # at least two ranks, so it returns tuples
        fx, fy, ids = get(xs), get(ys), get(order)
        u = order[a]
        queues: list[list[int]] = [[]]  # Q_j is built at step j, then reversed: front last
        for j in range(1, len(fan)):
            xj, yj, v = fx[j], fy[j], ids[j]
            ends: list[int] = []
            stack: list[int] = []  # the open frames under frame i
            i = j - 1
            while True:
                q = queues[i]
                if q:
                    h = q[-1]
                    xh, yh = fx[h], fy[h]
                    if (fx[i] - xh) * (yj - yh) > (fy[i] - yh) * (xj - xh):
                        q.pop()
                        stack.append(i)
                        i = h
                        continue
                yield u, ids[i], v
                ends.append(i)
                if not stack:
                    break
                i = stack.pop()
            ends.reverse()
            queues.append(ends)


def _empty_candidates(tables: Tables, edges: frozenset[Edge]) -> list[Triple]:
    """Sorted empty triples that induce at most one of `edges`.

    Such a triple has two non-edges at a shared vertex v, so it is drawn
    once from a pair a < b of v's non-neighbours: at v < a when all
    three pairs are non-edges, and otherwise only when ab is an edge.
    The draw runs over ranks, and each triple is tested in O(1) as it
    is drawn; only the triples kept are mapped back and sorted.

    For ranks a < b, below(a, b) counts the points ranked strictly
    between them that lie strictly right of a -> b.  A triple x < y < z
    is empty iff

        below(x, z) == below(x, y) + below(y, z) + [y right of x -> z],

    because the points inside are below(x,y) + below(y,z) - below(x,z)
    when y is left of x -> z, and below(x,z) - below(x,y) - below(y,z) - 1
    (y itself is below xz) when it is right.
    """
    order, pos, below = tables
    n = len(order)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    adjacent = [[False] * n for _ in range(n)]  # rows indexed by rank
    for i, j in edges:
        adjacent[rank[i]][rank[j]] = adjacent[rank[j]][rank[i]] = True
    empty = []
    for v, row in enumerate(adjacent):
        others = [u for u, linked in enumerate(row) if not linked and u != v]
        for a, b in combinations(others, 2):
            if v < a:
                x, y, z = v, a, b
            elif adjacent[a][b]:
                x, y, z = (a, v, b) if v < b else (a, b, v)
            else:
                continue
            if below[x][z] == below[x][y] + below[y][z] + (pos[x][y] < pos[x][z]):
                empty.append(tuple(sorted((order[x], order[y], order[z]))))
    empty.sort()
    return empty


@lru_cache(maxsize=1)
def _empty_triples(ps: PointSet, edges: frozenset[Edge]) -> tuple[Triple, ...]:
    """`_empty_candidates` of ps and edges, memoised for the last graph only.

    The one cache of the package: the builder's root count, so that
    building the last graph again reads it, and a dropped graph is freed
    once the next one is counted.  No generator fills it.  `perfbench`
    clears it before every timed build.
    """
    return tuple(_empty_candidates(_below_tables(ps), edges))


def _below_tables(ps: PointSet) -> Tables:
    """order, pos[a][c] and below[a][b] for ps ranked by (x, y), ranks a < b, c.

    order[r] is the index in ps of the point of rank r.  Every point
    ranked after a lies in the half-plane dx > 0, or dx == 0 and dy > 0,
    about a, so increasing slope dy / dx orders them by angle, clockwise
    first.  One sort orders them by the exact integer key
    (dy << 62) // dx = floor(dy / dx * 2**62), with `_VERTICAL` for the
    one point with dx == 0; no float is formed.  Two distinct slopes
    differ by at least 2**-62, so the key is strictly monotone, and it
    lies within 2**93 (see `geometry.COORD_LIMIT`).  pos[a][c] is c's
    place in that order.  Then b lies right of a -> c iff pos[a][b] <
    pos[a][c], and below[a][b] counts the c between a and b with
    pos[a][c] < pos[a][b]: in rank order, the popcount of the places
    passed so far, kept as the bits of one int, below b's place.
    Entries at or before the diagonal are 0.  The (x, y) order is a
    symbolic shear of the x order that keeps every orientation.
    """
    n = len(ps)
    keys = [(p.x, p.y) for p in ps.points]  # int tuples compare in C
    order = sorted(range(n), key=keys.__getitem__)
    xs = [keys[i][0] for i in order]
    high = [keys[i][1] << 62 for i in order]  # so dy << 62 is one subtraction
    bit = [1 << r for r in range(n)]
    low = [b - 1 for b in bit]  # the places before r
    pos: list[list[int]] = []
    below: list[list[int]] = []
    for a in range(n):
        px, py = xs[a], high[a]
        slope = [0] * n
        for c in range(a + 1, n):
            dx = xs[c] - px
            slope[c] = (high[c] - py) // dx if dx else _VERTICAL
        row = [0] * n
        for place, c in enumerate(sorted(range(a + 1, n), key=slope.__getitem__)):
            row[c] = place
        counts = [0] * n
        seen = 0
        for b in range(a + 1, n):
            r = row[b]
            counts[b] = (seen & low[r]).bit_count()
            seen |= bit[r]
        pos.append(row)
        below.append(counts)
    return order, pos, below


@dataclass(frozen=True)
class DisconnectedTriangles:
    """The disconnected empty triangles of a graph.  `count`, the paper's
    s, is derived: the number of witnesses."""

    witnesses: tuple[Triple, ...]

    @property
    def count(self) -> int:
        return len(self.witnesses)


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
    return DisconnectedTriangles(witnesses)
