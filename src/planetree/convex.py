"""Exact O(n^3) decision of plane spanning trees for points in convex position.

With the points indexed in hull order, an edge ij of a plane tree
separates the points strictly between i and j from all the others, so
no other tree edge joins the two groups.  That makes every sub-tree on
a run i..j of consecutive hull points a tree of that run alone, and
gives the interval recurrence for non-crossing spanning trees (Flajolet
and Noy, "Analytic combinatorics of non-crossing configurations", 1999):

- A(i, i) holds: one point is its own tree;
- B(i, j) = ij in E and A(i, m) and A(m + 1, j) for some m in [i, j):
  a tree of i..j through the edge ij, which is a side of the run's
  hull, so removing ij leaves two trees on consecutive runs;
- A(i, j) = B(i, k) and A(k, j) for some k in (i, j]: k is i's farthest
  tree neighbour, and the chord ik leaves the runs i..k and k..j on
  opposite sides, sharing only k.

The general problem is NP-complete (Jansen and Woeginger, BIT 1993), so
`oracle` keeps deciding points that are not in convex position.
"""

from __future__ import annotations

from .graphs import Edge, GeometricGraph, canonical_edge


def convex_tree_edges(g: GeometricGraph, order: tuple[int, ...]) -> frozenset[Edge] | None:
    """Edges of a plane spanning tree of g, or None when g has none.

    `order` is `geometry.hull_order(g.ps)`, computed once by the caller.
    g's points must be in convex position (the order lists them all), or
    ValueError is raised.
    """
    n = len(order)
    if n != g.n:
        raise ValueError("points are not in convex position")
    position = {v: i for i, v in enumerate(order)}
    adjacent = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        i, j = sorted((position[u], position[v]))
        adjacent[i][j] = True
    # Over hull positions: a[i][j] is the k that makes A(i, j) hold (i for
    # a single point), b[i][j] the m that makes B(i, j) hold; None where
    # it fails.
    a: list[list[int | None]] = [[None] * n for _ in range(n)]
    b: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = i
    for length in range(1, n):
        for i in range(n - length):
            j = i + length
            a_i, b_i = a[i], b[i]
            if adjacent[i][j]:
                for m in range(i, j):
                    if a_i[m] is not None and a[m + 1][j] is not None:
                        b_i[j] = m
                        break
            for k in range(i + 1, j + 1):
                if b_i[k] is not None and a[k][j] is not None:
                    a_i[j] = k
                    break
    if a[0][n - 1] is None:
        return None
    edges = set()
    runs = [(0, n - 1)]  # runs i..j whose A-choice still has to be unfolded
    while runs:
        i, j = runs.pop()
        if i == j:
            continue
        k = a[i][j]
        m = b[i][k]
        edges.add(canonical_edge(order[i], order[k]))
        runs += [(i, m), (m + 1, k), (k, j)]
    return frozenset(edges)
