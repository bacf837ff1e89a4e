"""Geometric graphs: straight-line edges over a PointSet.

Edges are canonical (min, max) index pairs.  Induced subgraphs remember
how their local indices map back to the parent so recursively built
trees can be lifted into the original graph.  A graph's point count `n`
is a plain field, set once by each constructor, so reading it costs no
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

from .geometry import PointSet

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError(f"self-loop at index {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class GeometricGraph:
    """Straight-line edges over a PointSet.  `ps` must be a PointSet, which
    validated its points, and `edges` may be any iterable of index pairs.
    This is the one place outside edges are validated, once: each entry
    must be a tuple or list of two distinct in-range ints (not bools),
    and a ValueError names the first bad one; a string, a mapping, a set
    or a range is no pair, even when it unpacks into two values.  The
    edges are stored as a frozenset of canonical pairs.  Edges the
    package derives or generates (an induced subgraph's, a generator's
    pairs from `combinations`) are canonical and in range by
    construction and are never checked again: they enter through
    `_trusted`.  `n`, the number of points, is set by both constructors;
    it takes no part in `==`, `hash` or `repr`."""

    ps: PointSet
    edges: frozenset[Edge]
    parent: "GeometricGraph | None" = field(default=None, repr=False, compare=False)
    parent_map: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.ps, PointSet):
            raise ValueError(f"expected a PointSet, got {type(self.ps).__name__}")
        n = len(self.ps)
        canon = set()
        for entry in self.edges:
            # A string, a mapping, a set or a range unpacks too.  This runs
            # for every edge of every graph, so exact types skip `isinstance`.
            kind = type(entry)
            if kind is not list and kind is not tuple and not isinstance(entry, (tuple, list)):
                raise ValueError(f"expected [i, j], got {entry!r}")
            try:
                i, j = entry
            except ValueError:
                raise ValueError(f"expected [i, j], got {entry!r}") from None
            # `is_integer`, inlined.
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer index")
            if i == j:
                raise ValueError(f"edge ({i}, {j}) is a self-loop")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} points")
            canon.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "edges", frozenset(canon))
        object.__setattr__(self, "n", n)

    @classmethod
    def _trusted(
        cls,
        ps: PointSet,
        edges: frozenset[Edge],
        parent: "GeometricGraph | None" = None,
        parent_map: tuple[int, ...] | None = None,
    ) -> "GeometricGraph":
        """The graph of `edges` over ps, stored unchecked.

        Only for edges the package has already made valid: a frozenset
        of canonical pairs, each in range for ps.
        """
        g = object.__new__(cls)
        # The frozen dataclass refuses attribute assignment; its instance
        # dict takes every field in one call.
        g.__dict__.update(
            ps=ps, edges=edges, parent=parent, parent_map=parent_map, n=len(ps.points)
        )
        return g

    def to_parent(self, edges: Iterable[Edge]) -> set[Edge]:
        """Map local edges to the parent graph's index space."""
        if self.parent_map is None:
            raise ValueError("graph has no parent mapping")
        m = self.parent_map
        # parent_map is increasing, so m[i] < m[j] exactly when i < j.
        return {(m[i], m[j]) if i < j else canonical_edge(m[i], m[j]) for i, j in edges}


def complete_graph(ps: PointSet) -> GeometricGraph:
    return GeometricGraph._trusted(ps, frozenset(combinations(range(len(ps)), 2)))


def induced_subgraph(g: GeometricGraph, subset: Iterable[int]) -> GeometricGraph:
    """Subgraph on `subset` with exactly the edges of g inside it.

    Local index k corresponds to parent index parent_map[k]; the subset
    is sorted, so the mapping is deterministic.  The edges are read from
    the subset's own pairs, not from a scan of g's edges, by a C-level
    pass over both pair lists at once.  Like `PointSet.subset`, the
    result is not validated again: the pairs are canonical and in range
    because the order is increasing.
    """
    order = sorted(set(subset))
    if not order:
        raise ValueError("subset must contain at least one index")
    k = len(order)
    sub_ps = g.ps.subset(order)
    sub_edges = frozenset(
        compress(combinations(range(k), 2), map(g.edges.__contains__, combinations(order, 2)))
    )
    return GeometricGraph._trusted(sub_ps, sub_edges, g, tuple(order))


def find_crossing_pair(
    ps: PointSet, edges: Iterable[Edge]
) -> tuple[Edge, Edge] | None:
    """The lexicographically least pair e < f of properly crossing edges, or None.

    The least pair is kept as `crossing_pairs` finds them, with no sort
    of the edges: most trees the certifier sees cross nothing, and there
    the sort would be pure cost.
    """
    items = list(edges)
    least = None
    for i, j in crossing_pairs(ps, items):
        e, f = items[i], items[j]
        pair = (e, f) if e < f else (f, e)
        if least is None or pair < least:
            least = pair
    return least


def crossing_pairs(ps: PointSet, edges: Sequence[Edge]) -> Iterator[tuple[int, int]]:
    """The positions (i, j), i < j, of every properly crossing pair of
    `edges`, each pair once.

    Each segment runs from its lower (y, x) endpoint, and the segments
    are swept by that lower y.  Each is tested only against the later
    ones that start strictly below its top, and the scan stops at the
    first later segment that does not: that one and every one after it
    lie at or above the top.  This is exact.  A horizontal segment that
    sorts first cannot be properly crossed by a later one, which lies at
    or above its line and meets it only in an endpoint or along it.  Any
    other proper crossing is interior to the first segment, so it lies
    strictly below that segment's top, and at or above the later one's
    low y.

    Why y: the builder's first split line is horizontal whenever the y
    values are distinct (`rotation.initial_halving_line`), and almost
    every split is won there, so each tree edge stays inside its level's
    horizontal strip and few pairs overlap in y.  The worst case is
    still O(m^2).  The cross products are the integer ones of
    `segments_properly_cross`, written out.
    """
    points = ps.points
    segments = []
    for k, (i, j) in enumerate(edges):
        p, q = points[i], points[j]
        if (q.y, q.x) < (p.y, p.x):  # int tuples: no dataclass comparison
            p, q = q, p
        segments.append((p.y, q.y, p.x, q.x, k))
    segments.sort()
    for s, (ay, by, ax, bx, e) in enumerate(segments):
        ux, uy = bx - ax, by - ay
        for cy, dy, cx, dx, f in segments[s + 1:]:
            if cy >= by:
                break
            o1 = ux * (cy - ay) - uy * (cx - ax)
            o2 = ux * (dy - ay) - uy * (dx - ax)
            if not (o1 < 0 < o2 or o2 < 0 < o1):
                continue
            vx, vy = dx - cx, dy - cy
            o3 = vx * (ay - cy) - vy * (ax - cx)
            o4 = vx * (by - cy) - vy * (bx - cx)
            if o3 < 0 < o4 or o4 < 0 < o3:
                yield (e, f) if e < f else (f, e)


def traversal_tree(n: int, edges: Iterable[Edge]) -> set[Edge]:
    """Depth-first tree from vertex 0 over edges on vertices 0..n-1.

    It has n-1 edges exactly when the edges connect all n vertices.
    Edges and neighbours are visited in sorted order, so the tree is a
    deterministic function of the edge set: the canonical pairs are
    sorted once, which leaves every adjacency list ascending, and the
    stack takes each list reversed so its least neighbour is popped first.
    """
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in sorted((i, j) if i < j else (j, i) for i, j in edges):
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    out: set[Edge] = set()
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in reversed(adj[cur]):
            if nxt not in seen:
                seen.add(nxt)
                out.add(canonical_edge(cur, nxt))
                stack.append(nxt)
    return out


@dataclass(frozen=True)
class PlaneTree:
    """A certified plane spanning tree; construct via certify_plane_spanning_tree."""

    tree_edges: frozenset[Edge]


@dataclass(frozen=True)
class Rejection:
    """Structured verdict for a failed certification."""

    reason: str  # "not-subgraph" | "wrong-count" | "disconnected" | "crossing"
    witness: tuple[Edge, Edge] | None = None

    def __str__(self) -> str:
        if self.witness is None:
            return self.reason
        return f"{self.reason} {list(self.witness[0])}x{list(self.witness[1])}"


def certify_plane_spanning_tree(
    g: GeometricGraph, tree_edges: Iterable[Edge]
) -> PlaneTree | Rejection:
    """Check that tree_edges is a plane spanning tree of g.

    Four independent conditions, reported in this order: subgraph,
    edge count n-1, connectivity over all vertices, crossing-freedom
    (with a witness pair on failure).  Returns a verdict for any
    iterable, never raises: an entry that is not a tuple or list of two
    ints (bools and floats are not ints) fails as not-subgraph, and so
    does a self-loop, which is kept as (i, i) and which no graph has.
    """
    t = set()
    for entry in tree_edges:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            return Rejection("not-subgraph")
        i, j = entry
        if type(i) is not int or type(j) is not int:
            return Rejection("not-subgraph")
        t.add((i, j) if i < j else (j, i))
    if not t <= g.edges:
        return Rejection("not-subgraph")
    if len(t) != g.n - 1:
        return Rejection("wrong-count")
    if not (g.n > 0 and len(traversal_tree(g.n, t)) == g.n - 1):
        return Rejection("disconnected")
    pair = find_crossing_pair(g.ps, t)
    if pair is not None:
        return Rejection("crossing", witness=pair)
    return PlaneTree(frozenset(t))
