"""Exhaustive ground truth: does a geometric graph contain any plane
spanning tree at all?

Backtracking over edges in lexicographic order, maintaining a
disjoint-set forest for acyclicity.  Two prunes keep desk-scale
instances tractable: an edge incompatible with the chosen set (crossing
or cycle-forming) is never branched on, and a branch dies as soon as
the surviving remaining edges cannot reconnect the current components.
Budget exhaustion is a distinct outcome, never reported as absence.
The table of crossing edge pairs comes from `graphs.crossing_pairs`, the
exact sweep that certification runs, and is built only once the edges
have passed the connectivity test.

The search is iterative, so its depth (n - 1 chosen edges) is not bound
by Python's recursion limit.  It returns the chosen edges uncertified:
a caller certifies them where they leave the program, as
`build_plane_tree` and `planetree oracle` do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, GeometricGraph, crossing_pairs

DEFAULT_BUDGET = 10**8

FOUND = "found"
ABSENT = "absent"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class OracleResult:
    status: str  # FOUND | ABSENT | BUDGET_EXCEEDED
    tree_edges: frozenset[Edge] | None  # the chosen edges when FOUND
    nodes: int

    @property
    def exists(self) -> bool | None:
        if self.status == BUDGET_EXCEEDED:
            return None
        return self.status == FOUND


def has_plane_spanning_tree(
    g: GeometricGraph, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Decide existence with the tree's edges; fixed edge order makes the
    edges deterministic across runs.  The edges are not certified.  A
    budget below 0 raises ValueError."""
    if budget < 0:
        raise ValueError(f"oracle budget must be at least 0, got {budget}")
    n = g.n
    if n == 1:  # `_usable` reads a single component as unreachable
        return OracleResult(FOUND, frozenset(), 0)
    edges = sorted(g.edges)
    m = len(edges)
    parent = list(range(n))
    usable = _usable(edges, parent, 0, 0, n)  # the one connectivity test
    if not usable:
        return OracleResult(ABSENT, None, 0)

    # crossers[e] is a bitmask of the later edges that properly cross
    # edge e, from the certifier's sweep.  Each level draws only from the
    # edges after its pick, so a bit for an earlier edge is never read.
    crossers = [0] * m
    for a, b in crossing_pairs(g.ps, edges):
        crossers[a] |= 1 << b

    status, chosen, nodes = _search(edges, crossers, budget, parent, usable)
    tree_edges = frozenset(edges[e] for e in chosen) if status == FOUND else None
    return OracleResult(status, tree_edges, nodes)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _search(edges, crossers, budget, parent, usable) -> tuple[str, list[int], int]:
    """Depth-first search over edge subsets in index order from the forest
    `parent` of singletons: the status, the chosen edge indices (a tree
    when FOUND) and the nodes visited.  `usable` is the root frame's."""
    n = len(parent)
    chosen: list[int] = []
    banned = 0  # bitmask of edges that cross a chosen edge before them
    nodes = 0
    # Each frame holds a level's usable edges, the position of its next
    # pick and the undo data of the pick explored below it.
    stack = [(usable, 0, None)]
    while stack:
        usable, pos, undo = stack.pop()
        if undo is not None:  # the pick before pos led nowhere
            root, banned = undo
            parent[root] = root
            chosen.pop()
        components = n - len(chosen)
        if len(usable) - pos < components - 1:
            continue
        nodes += 1
        if nodes > budget:
            return BUDGET_EXCEEDED, chosen, nodes
        e = usable[pos]
        i, j = edges[e]
        root = _find(parent, i)
        stack.append((usable, pos + 1, (root, banned)))
        parent[root] = _find(parent, j)
        banned |= crossers[e]
        chosen.append(e)
        if components == 2:
            return FOUND, chosen, nodes
        stack.append((_usable(edges, parent, banned, e + 1, components - 1), 0, None))
    return ABSENT, chosen, nodes


def _usable(edges, parent, banned, start, components) -> list[int]:
    """Edges from start on that cross nothing chosen and join two
    components; empty when all of them together cannot reconnect the
    components, since no subset can then either."""
    usable = []
    for e in range(start, len(edges)):
        i, j = edges[e]
        if not banned >> e & 1 and _find(parent, i) != _find(parent, j):
            usable.append(e)
    if len(usable) < components - 1:
        return []
    parent = parent[:]
    merges = 0
    for e in usable:
        i, j = edges[e]
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[ri] = rj
            merges += 1
            if merges == components - 1:
                return usable
    return []
