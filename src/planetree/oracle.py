"""Exhaustive ground truth: does a geometric graph contain any plane
spanning tree at all?

Backtracking over edges in lexicographic order, maintaining a
disjoint-set forest for acyclicity.  Two prunes keep desk-scale
instances tractable: an edge incompatible with the chosen set (crossing
or cycle-forming) is never branched on, and a branch dies as soon as
the surviving remaining edges cannot reconnect the current components.
Budget exhaustion is a distinct outcome, never reported as absence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import segments_properly_cross
from .graphs import GeometricGraph, PlaneTree, certify_plane_spanning_tree

DEFAULT_BUDGET = 10**8

FOUND = "found"
ABSENT = "absent"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class OracleResult:
    status: str  # FOUND | ABSENT | BUDGET_EXCEEDED
    witness: PlaneTree | None
    nodes: int

    @property
    def exists(self) -> bool | None:
        if self.status == BUDGET_EXCEEDED:
            return None
        return self.status == FOUND


class _BudgetExceeded(Exception):
    pass


def has_plane_spanning_tree(
    g: GeometricGraph, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Decide existence with a witness; fixed edge order makes the
    witness deterministic across runs."""
    n = g.n
    edges = sorted(g.edges)
    m = len(edges)
    if n == 1:
        tree = certify_plane_spanning_tree(g, [])
        if not isinstance(tree, PlaneTree):
            raise AssertionError(f"oracle produced invalid tree: {tree}")
        return OracleResult(FOUND, tree, 0)
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    if m < n - 1 or any(d == 0 for d in degree):
        return OracleResult(ABSENT, None, 0)

    # crossers[e] is a bitmask of edges properly crossing edge e.
    crossers = [0] * m
    for a in range(m):
        pa, qa = edges[a]
        for b in range(a + 1, m):
            pb, qb = edges[b]
            if segments_properly_cross(g.ps[pa], g.ps[qa], g.ps[pb], g.ps[qb]):
                crossers[a] |= 1 << b
                crossers[b] |= 1 << a

    search = _Search(n, edges, crossers, budget)
    try:
        found = search.run()
    except _BudgetExceeded:
        return OracleResult(BUDGET_EXCEEDED, None, search.nodes)
    if not found:
        return OracleResult(ABSENT, None, search.nodes)
    witness = certify_plane_spanning_tree(g, [edges[e] for e in search.chosen])
    if not isinstance(witness, PlaneTree):
        raise AssertionError(f"oracle produced invalid tree: {witness}")
    return OracleResult(FOUND, witness, search.nodes)


class _Search:
    def __init__(self, n, edges, crossers, budget):
        self.n = n
        self.edges = edges
        self.m = len(edges)
        self.crossers = crossers
        self.budget = budget
        self.nodes = 0
        self.chosen: list[int] = []
        self.banned = 0  # bitmask of edges crossing something chosen
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def run(self) -> bool:
        return self._extend(0, self.n)

    def _extend(self, start: int, components: int) -> bool:
        if components == 1:
            return True
        usable = []
        for e in range(start, self.m):
            if self.banned >> e & 1:
                continue
            i, j = self.edges[e]
            if self.find(i) != self.find(j):
                usable.append(e)
        if len(usable) < components - 1:
            return False
        if not self._connectable(usable, components):
            return False
        for pos, e in enumerate(usable):
            if len(usable) - pos < components - 1:
                break
            self.nodes += 1
            if self.nodes > self.budget:
                raise _BudgetExceeded
            i, j = self.edges[e]
            ri, rj = self.find(i), self.find(j)
            if ri == rj:
                continue  # an earlier pick in this loop merged them
            self.parent[ri] = rj
            saved_banned = self.banned
            self.banned |= self.crossers[e]
            self.chosen.append(e)
            if self._extend(e + 1, components - 1):
                return True
            self.chosen.pop()
            self.banned = saved_banned
            self.parent[ri] = ri
        return False

    def _connectable(self, usable: list[int], components: int) -> bool:
        # Union every usable edge at once; if that still leaves several
        # components, no subset can reconnect them either.
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                x = parent[x]
            return x

        merges = 0
        for e in usable:
            i, j = self.edges[e]
            ri, rj = find(self.find(i)), find(self.find(j))
            if ri != rj:
                parent[ri] = rj
                merges += 1
                if merges == components - 1:
                    return True
        return False
