"""Geometric graphs: straight-line edges over a PointSet.

Edges are canonical (min, max) index pairs.  Induced subgraphs remember
how their local indices map back to the parent so recursively built
trees can be lifted into the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .geometry import PointSet

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError(f"self-loop at index {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class GeometricGraph:
    """Straight-line edges over a PointSet.  `edges` may be any iterable of
    index pairs.  This is the one place edges are validated: each entry
    must be a pair of distinct in-range ints (not bools), and a
    ValueError names the first bad one; a string, a mapping or anything
    that does not unpack into two values is no pair.  The edges are
    stored as a frozenset of canonical pairs."""

    ps: PointSet
    edges: frozenset[Edge]
    parent: "GeometricGraph | None" = field(default=None, repr=False, compare=False)
    parent_map: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.ps)
        canon = set()
        for entry in self.edges:
            try:
                i, j = entry
            except (TypeError, ValueError):
                raise ValueError(f"expected [i, j], got {entry!r}") from None
            # `is_integer`, inlined: this runs for every edge of every graph.
            if type(i) is not int or type(j) is not int:
                if not isinstance(entry, (tuple, list)):  # a string or a dict unpacks too
                    raise ValueError(f"expected [i, j], got {entry!r}")
                raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer index")
            if i == j:
                raise ValueError(f"edge ({i}, {j}) is a self-loop")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} points")
            canon.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "edges", frozenset(canon))

    @property
    def n(self) -> int:
        return len(self.ps)

    def to_parent(self, edges: Iterable[Edge]) -> set[Edge]:
        """Map local edges to the parent graph's index space."""
        if self.parent_map is None:
            raise ValueError("graph has no parent mapping")
        m = self.parent_map
        return {canonical_edge(m[i], m[j]) for i, j in edges}


def complete_graph(ps: PointSet) -> GeometricGraph:
    return GeometricGraph(ps, combinations(range(len(ps)), 2))


def induced_subgraph(g: GeometricGraph, subset: Iterable[int]) -> GeometricGraph:
    """Subgraph on `subset` with exactly the edges of g inside it.

    Local index k corresponds to parent index parent_map[k]; the subset
    is sorted, so the mapping is deterministic.  The edges are read from
    the subset's own pairs, not from a scan of g's edges.  Like
    `PointSet.subset`, the result is not validated again: the pairs are
    canonical and in range because the order is increasing.
    """
    order = sorted(set(subset))
    if not order:
        raise ValueError("subset must contain at least one index")
    sub_ps = g.ps.subset(order)
    sub_edges = frozenset(
        (a, b) for a, b in combinations(range(len(order)), 2)
        if (order[a], order[b]) in g.edges
    )
    sub = object.__new__(GeometricGraph)
    for name, value in (
        ("ps", sub_ps), ("edges", sub_edges), ("parent", g), ("parent_map", tuple(order))
    ):
        object.__setattr__(sub, name, value)
    return sub


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

    The edges are swept by their left x, and each is tested only against
    the later ones that start strictly before it ends: two segments whose
    x-ranges meet in at most one x cannot cross in the interior of both.
    The worst case is still O(m^2).  The cross products are the integer
    ones of `segments_properly_cross`, written out.
    """
    points = ps.points
    segments = []
    for k, (i, j) in enumerate(edges):
        p, q = points[i], points[j]
        if q < p:
            p, q = q, p
        segments.append((p.x, q.x, p.y, q.y, k))
    segments.sort()
    for s, (ax, bx, ay, by, e) in enumerate(segments):
        ux, uy = bx - ax, by - ay
        for cx, dx, cy, dy, f in segments[s + 1:]:
            if cx >= bx:
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
    deterministic function of the edge set.
    """
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in sorted(edges):
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    out: set[Edge] = set()
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in sorted(adj[cur], reverse=True):
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
    (with a witness pair on failure).  Returns a verdict, never raises:
    a self-loop is kept as (i, i), which no graph has, so it fails as
    not-subgraph.
    """
    t = frozenset((i, j) if i < j else (j, i) for i, j in tree_edges)
    if not t <= g.edges:
        return Rejection("not-subgraph")
    if len(t) != g.n - 1:
        return Rejection("wrong-count")
    if not (g.n > 0 and len(traversal_tree(g.n, t)) == g.n - 1):
        return Rejection("disconnected")
    pair = find_crossing_pair(g.ps, t)
    if pair is not None:
        return Rejection("crossing", witness=pair)
    return PlaneTree(t)
