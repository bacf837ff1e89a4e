"""The theorem on every graph of every order type up to 5 points.

An order type is the orientation of every triple of a point set, up to
relabelling and mirroring.  There are 1, 2 and 3 of them for n = 3, 4
and 5 (Aichholzer, Aurenhammer and Krasser, "Enumerating order types
for small point sets with applications", Order 2002), one per hull
size.  One representative of each is committed below, so every point
set of up to 5 points in general position is covered without sampling,
and every graph on it is built: 3,208 graphs in all.

On each of these order types the theorem's bound is tight: the least
count s of a graph with no plane spanning tree is n - 2.
"""

from itertools import combinations, permutations

from _diagnostics import triple_connected
from test_triangles import brute_empty_triples

from planetree.builder import FALLBACK, build_plane_tree
from planetree.geometry import PointSet, hull_order, in_general_position, orient
from planetree.graphs import GeometricGraph
from planetree.oracle import BUDGET_EXCEEDED, FOUND, has_plane_spanning_tree
from planetree.triangles import _below_tables, _empty_candidates

ORDER_TYPES = {
    3: [[(0, 0), (3, 1), (1, 3)]],
    4: [
        [(0, 0), (4, 1), (5, 5), (1, 4)],
        [(0, 0), (6, 0), (0, 6), (1, 2)],
    ],
    5: [
        [(0, 0), (4, 0), (6, 3), (2, 6), (-2, 3)],
        [(0, 0), (6, 0), (6, 6), (0, 6), (2, 3)],
        [(0, 0), (10, 0), (0, 10), (2, 3), (3, 1)],
    ],
}


def _signature(ps):
    """The least orientation tuple over all relabellings and the mirror."""
    triples = list(combinations(range(len(ps)), 3))
    best = None
    for perm in permutations(range(len(ps))):
        signs = tuple(orient(ps[perm[i]], ps[perm[j]], ps[perm[k]]) for i, j, k in triples)
        for sig in (signs, tuple(-s for s in signs)):
            if best is None or sig < best:
                best = sig
    return best


def test_the_representatives_are_distinct_order_types_one_per_hull_size():
    for n, sets in ORDER_TYPES.items():
        point_sets = [PointSet.from_coords(coords) for coords in sets]
        assert all(in_general_position(ps.points) for ps in point_sets)
        signatures = {_signature(ps) for ps in point_sets}
        assert len(signatures) == len(sets) == n - 2
        assert sorted(len(hull_order(ps)) for ps in point_sets) == list(range(3, n + 1))


def test_every_graph_on_every_order_type_up_to_5_points():
    graphs = trees = 0
    for n, coords in ((n, c) for n, sets in ORDER_TYPES.items() for c in sets):
        ps = PointSet.from_coords(coords)
        s_without_tree = []
        pairs = list(combinations(range(n), 2))
        empty = brute_empty_triples(ps)
        tables = _below_tables(ps)
        for mask in range(1 << len(pairs)):
            edges = frozenset(e for b, e in enumerate(pairs) if mask >> b & 1)
            g = GeometricGraph(ps, edges)
            witnesses = _empty_candidates(tables, edges)
            assert witnesses == [t for t in empty if not triple_connected(g, *t)]
            report = build_plane_tree(g)
            oracle = has_plane_spanning_tree(g)
            assert oracle.status != BUDGET_EXCEEDED
            assert (report.tree is not None) == (oracle.status == FOUND), (n, edges)
            assert not report.theorem_gap_fallback_used, (n, edges)
            s = len(witnesses)
            if s <= n - 3:
                assert report.tree is not None and report.flags() == [], (n, edges)
                assert FALLBACK not in (tag for _, tag in report.trace), (n, edges)
            if report.tree is None:
                s_without_tree.append(s)
            graphs += 1
            trees += report.tree is not None
        assert min(s_without_tree) == n - 2
    assert graphs == 3208
    assert 0 < trees < graphs
