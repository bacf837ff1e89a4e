"""Geometric graphs: straight-line edges over a PointSet.

Edges are canonical (min, max) index pairs.  Induced subgraphs remember
how their local indices map back to the parent so recursively built
trees can be lifted into the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .geometry import PointSet, segments_properly_cross

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError(f"self-loop at index {i}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class GeometricGraph:
    ps: PointSet
    edges: frozenset[Edge]
    parent: "GeometricGraph | None" = field(default=None, repr=False, compare=False)
    parent_map: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.ps)
        for i, j in self.edges:
            # `is_integer`, inlined: this runs for every edge of every graph.
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"edge ({i!r}, {j!r}) has a non-integer index")
        canon = frozenset(canonical_edge(i, j) for i, j in self.edges)
        for i, j in canon:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} points")
        object.__setattr__(self, "edges", canon)

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
    n = len(ps)
    return GeometricGraph(ps, frozenset(combinations(range(n), 2)))


def induced_subgraph(g: GeometricGraph, subset: Iterable[int]) -> GeometricGraph:
    """Subgraph on `subset` with exactly the edges of g inside it.

    Local index k corresponds to parent index parent_map[k]; the subset
    is sorted, so the mapping is deterministic.  Like `PointSet.subset`,
    the result is not validated again: g's edges are integer, canonical
    and in range, and re-indexing by the increasing `local` keeps them so.
    """
    order = sorted(set(subset))
    if not order:
        raise ValueError("subset must contain at least one index")
    sub_ps = g.ps.subset(order)
    local = {parent_idx: k for k, parent_idx in enumerate(order)}
    sub_edges = frozenset(
        (local[i], local[j]) for i, j in g.edges if i in local and j in local
    )
    sub = object.__new__(GeometricGraph)
    for name, value in (
        ("ps", sub_ps), ("edges", sub_edges), ("parent", g), ("parent_map", tuple(order))
    ):
        object.__setattr__(sub, name, value)
    return sub


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


def is_crossing_free(g: GeometricGraph, edge_subset: Iterable[Edge]) -> bool:
    """True iff no two edges of the subset properly cross (all-pairs scan)."""
    return find_crossing_pair(g.ps, edge_subset) is None


def find_crossing_pair(
    ps: PointSet, edges: Iterable[Edge]
) -> tuple[Edge, Edge] | None:
    items = sorted(set(edges))
    for (a, b), (c, d) in combinations(items, 2):
        if segments_properly_cross(ps[a], ps[b], ps[c], ps[d]):
            return (a, b), (c, d)
    return None


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

    graph: GeometricGraph
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
    return PlaneTree(g, t)
