"""The theorem on every graph of every order type up to 6 points.

An order type is the orientation of every triple of a point set, up to
relabelling and mirroring.  There are 1, 2, 3 and 16 of them for n = 3,
4, 5 and 6 (Aichholzer, Aurenhammer and Krasser, "Enumerating order
types for small point sets with applications", Order 2002).  One
representative of each is committed below, so every point set of up to
6 points in general position is covered without sampling.  Every graph
on the representatives of up to 5 points is built in tier-1, 3,208
graphs in all; the 524,288 graphs on 6 points run behind the
`exhaustive` marker (`pytest -m exhaustive`).

The least count s of a graph with no plane spanning tree is n - 2 on
every order type up to 5 points, so the theorem's bound is tight there.
On 6 points it is 4, 5 or 6, pinned per order type below.
"""

from itertools import combinations, permutations

import pytest
from _diagnostics import triple_connected
from test_triangles import brute_empty_triples

from planetree.builder import CASE2, FALLBACK, build_plane_tree
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
    # By hull size: 1 of 6, 3 of 5, 6 of 4 and 6 of 3.
    6: [
        [(2, 3), (3, 6), (5, 0), (5, 5), (6, 1), (6, 2)],
        [(0, 1), (2, 0), (3, 6), (5, 4), (6, 0), (6, 4)],
        [(1, 4), (4, 4), (4, 5), (5, 0), (6, 3), (6, 5)],
        [(0, 2), (1, 0), (2, 3), (2, 5), (5, 6), (6, 0)],
        [(0, 1), (0, 5), (2, 4), (4, 2), (5, 4), (6, 1)],
        [(1, 6), (2, 5), (3, 3), (3, 5), (4, 2), (5, 6)],
        [(0, 5), (1, 2), (1, 5), (2, 0), (3, 2), (6, 6)],
        [(0, 5), (1, 0), (1, 1), (2, 6), (3, 1), (6, 0)],
        [(0, 5), (1, 3), (2, 0), (2, 2), (5, 6), (6, 5)],
        [(2, 0), (3, 6), (4, 2), (4, 3), (5, 6), (6, 1)],
        [(0, 2), (3, 2), (4, 1), (4, 5), (5, 6), (6, 0)],
        [(0, 0), (0, 5), (1, 2), (1, 3), (2, 2), (6, 0)],
        [(0, 0), (2, 1), (2, 2), (3, 6), (5, 2), (6, 1)],
        [(0, 0), (0, 6), (1, 3), (1, 4), (2, 3), (6, 4)],
        [(0, 1), (1, 2), (1, 3), (2, 1), (2, 2), (5, 0)],
        [(0, 10), (1, 7), (2, 6), (3, 0), (5, 1), (11, 0)],
    ],
}
ORDER_TYPE_COUNTS = {3: 1, 4: 2, 5: 3, 6: 16}

# The least s of a graph with no plane spanning tree, per 6-point
# representative in ORDER_TYPES[6]'s order.  The bound n - 3 is tight
# where it reads 4.
LEAST_S_WITHOUT_TREE_6 = [4, 4, 4, 5, 4, 5, 4, 5, 4, 5, 4, 6, 5, 5, 5, 5]


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
    # Up to 5 points there is one order type per hull size; 6 points
    # have 16, with every hull size from 3 to 6.
    for n, sets in ORDER_TYPES.items():
        point_sets = [PointSet.from_coords(coords) for coords in sets]
        assert all(in_general_position(ps.points) for ps in point_sets)
        signatures = {_signature(ps) for ps in point_sets}
        assert len(signatures) == len(sets) == ORDER_TYPE_COUNTS[n]
        assert {len(hull_order(ps)) for ps in point_sets} == set(range(3, n + 1))


def _check_every_graph(coords):
    """Build every graph on the points `coords` and check the theorem.

    Returns (graphs, graphs with a tree, least s of a graph without one).
    """
    ps = PointSet.from_coords(coords)
    n = len(ps)
    s_without_tree = []
    graphs = trees = 0
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
            assert not {FALLBACK, CASE2} & {tag for _, tag in report.trace}, (n, edges)
        if report.tree is None:
            s_without_tree.append(s)
        graphs += 1
        trees += report.tree is not None
    return graphs, trees, min(s_without_tree)


def test_every_graph_on_every_order_type_up_to_5_points():
    graphs = trees = 0
    for n in (3, 4, 5):
        for coords in ORDER_TYPES[n]:
            count, with_tree, least_s = _check_every_graph(coords)
            assert least_s == n - 2
            graphs += count
            trees += with_tree
    assert graphs == 3208
    assert 0 < trees < graphs


@pytest.mark.exhaustive
@pytest.mark.parametrize(
    "coords, least_s",
    list(zip(ORDER_TYPES[6], LEAST_S_WITHOUT_TREE_6)),
    ids=[f"type{i}" for i in range(len(ORDER_TYPES[6]))],
)
def test_every_graph_on_every_order_type_of_6_points(coords, least_s):
    graphs, trees, least = _check_every_graph(coords)
    assert graphs == 1 << 15
    assert 0 < trees < graphs
    assert least == least_s
