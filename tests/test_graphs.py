import random
from itertools import combinations

import pytest
from _diagnostics import triple_connected

from planetree.generators import convex_position_points, random_point_set
from planetree.geometry import PointSet, segments_properly_cross
from planetree.graphs import (
    GeometricGraph,
    PlaneTree,
    Rejection,
    canonical_edge,
    certify_plane_spanning_tree,
    complete_graph,
    find_crossing_pair,
    induced_subgraph,
)


def square_plus_center():
    return PointSet.from_coords([(0, 0), (10, 0), (10, 10), (0, 10), (4, 5)])


def test_edges_canonicalized():
    ps = convex_position_points(4)
    g = GeometricGraph(ps, frozenset({(2, 0), (3, 1)}))
    assert g.edges == frozenset({(0, 2), (1, 3)})


@pytest.mark.parametrize(
    "edge", [(0.0, 1), (0, 1.0), (True, 2), (0, "1"), 5, (0, 1, 2), (0,), "01"]
)
def test_graph_rejects_a_non_integer_index(edge):
    # The last four are no pair at all, and the error names the entry; a
    # string unpacks into two characters but is no pair either.
    ps = convex_position_points(4)
    with pytest.raises(ValueError) as err:
        GeometricGraph(ps, [(2, 3), edge])
    if isinstance(edge, tuple) and len(edge) == 2:
        assert str(err.value) == f"edge ({edge[0]!r}, {edge[1]!r}) has a non-integer index"
    else:
        assert str(err.value) == f"expected [i, j], got {edge!r}"


def test_self_loop_rejected():
    ps = convex_position_points(4)
    with pytest.raises(ValueError):
        GeometricGraph(ps, frozenset({(1, 1)}))


def test_graph_takes_any_iterable_of_pairs_and_stores_them_canonically():
    ps = convex_position_points(4)
    g = GeometricGraph(ps, [(2, 0), (0, 2), (3, 1)])
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert GeometricGraph(ps, ((i, i + 1) for i in range(3))).edges == frozenset(
        {(0, 1), (1, 2), (2, 3)}
    )


def test_a_pair_that_breaks_two_rules_is_refused():
    # (7, 7) is both a self-loop and out of range; the self-loop is checked first.
    ps = convex_position_points(4)
    with pytest.raises(ValueError, match=r"edge \(7, 7\) is a self-loop"):
        GeometricGraph(ps, [(0, 1), (7, 7)])


def test_induced_subgraph_of_complete():
    g = complete_graph(convex_position_points(5))
    sub = induced_subgraph(g, [0, 2, 4])
    assert sub.n == 3
    assert sub.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert sub.parent_map == (0, 2, 4)


def test_induced_subgraph_edgeless_and_path_ends():
    ps = convex_position_points(5)
    edgeless = GeometricGraph(ps, frozenset())
    assert induced_subgraph(edgeless, [1, 3]).edges == frozenset()
    path = GeometricGraph(ps, frozenset((i, i + 1) for i in range(4)))
    ends = induced_subgraph(path, [0, 4])
    assert ends.n == 2 and ends.edges == frozenset()


def test_induced_subgraph_full_subset_is_same_graph():
    g = complete_graph(convex_position_points(6))
    sub = induced_subgraph(g, range(6))
    assert sub.edges == g.edges
    assert sub.ps == g.ps


def test_induced_subgraph_equals_a_validated_graph():
    # induced_subgraph skips __post_init__; its result must be what
    # validation would have built.
    rng = random.Random(11)
    ps = random_point_set(12, rng)
    edges = frozenset(e for e in combinations(range(12), 2) if rng.random() < 0.5)
    g = GeometricGraph(ps, edges)
    for _ in range(20):
        order = sorted(rng.sample(range(12), rng.randint(1, 12)))
        sub = induced_subgraph(g, reversed(order))
        inside = {(order.index(i), order.index(j)) for i, j in edges if {i, j} <= set(order)}
        fresh = GeometricGraph(ps.subset(order), frozenset(inside))
        assert sub == fresh and hash(sub) == hash(fresh)
        assert all(i < j for i, j in sub.edges)
        assert (sub.parent, sub.parent_map) == (g, tuple(order))


def test_induced_subgraph_invalid_index():
    g = complete_graph(convex_position_points(4))
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 9])


def test_triple_connected():
    ps = convex_position_points(4)
    g = GeometricGraph(ps, frozenset({(0, 1), (1, 2)}))
    assert triple_connected(g, 0, 1, 2)
    assert not triple_connected(g, 0, 1, 3)
    assert not triple_connected(g, 0, 2, 3)
    with pytest.raises(ValueError):
        triple_connected(g, 0, 0, 1)


def test_crossing_free_star_and_diagonals():
    g = complete_graph(square_plus_center())
    star = {(4, i) for i in range(4)}
    assert find_crossing_pair(g.ps, star) is None
    assert find_crossing_pair(g.ps, {(0, 2), (1, 3)}) == ((0, 2), (1, 3))
    assert find_crossing_pair(g.ps, set()) is None


def test_certify_star_of_complete_graph():
    g = complete_graph(convex_position_points(5))
    result = certify_plane_spanning_tree(g, [(0, i) for i in range(1, 5)])
    assert isinstance(result, PlaneTree)
    assert len(result.tree_edges) == 4


def test_certify_rejections():
    g = complete_graph(convex_position_points(4))
    crossing = certify_plane_spanning_tree(g, [(0, 2), (1, 3), (0, 1)])
    assert isinstance(crossing, Rejection)
    assert crossing.reason == "crossing"
    assert crossing.witness == ((0, 2), (1, 3))

    short = certify_plane_spanning_tree(g, [(0, 1), (1, 2)])
    assert isinstance(short, Rejection) and short.reason == "wrong-count"

    duplicated = certify_plane_spanning_tree(g, [(0, 1), (1, 0), (2, 3)])
    assert isinstance(duplicated, Rejection) and duplicated.reason == "wrong-count"

    ps = convex_position_points(4)
    sparse = GeometricGraph(ps, frozenset({(0, 1)}))
    outside = certify_plane_spanning_tree(sparse, [(0, 1), (1, 2), (2, 3)])
    assert isinstance(outside, Rejection) and outside.reason == "not-subgraph"


def test_a_rejection_prints_its_reason_and_witness():
    g = complete_graph(convex_position_points(4))
    crossing = certify_plane_spanning_tree(g, [(0, 2), (1, 3), (0, 1)])
    assert str(crossing) == "crossing [0, 2]x[1, 3]"
    assert str(Rejection("wrong-count")) == "wrong-count"


def test_certify_reports_a_self_loop_as_not_subgraph():
    g = complete_graph(convex_position_points(4))
    for tree in ([(1, 1)], [(0, 1), (2, 2), (2, 3)]):
        verdict = certify_plane_spanning_tree(g, tree)
        assert isinstance(verdict, Rejection) and verdict.reason == "not-subgraph"


def test_certify_disconnected_cycle_plus_isolated():
    g = complete_graph(convex_position_points(4))
    verdict = certify_plane_spanning_tree(g, [(0, 1), (1, 2), (0, 2)])
    assert isinstance(verdict, Rejection)
    assert verdict.reason == "disconnected"


def _independent_checks(g, edges):
    t = {canonical_edge(i, j) for i, j in edges}
    subgraph = t <= g.edges
    count = len(t) == g.n - 1
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in t:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    connected = len({find(i) for i in range(g.n)}) == 1
    plane = not any(
        segments_properly_cross(g.ps[a], g.ps[b], g.ps[c], g.ps[d])
        for (a, b), (c, d) in combinations(sorted(t), 2)
    )
    return subgraph and count and connected and plane


def test_certify_equals_conjunction_of_checks():
    rng = random.Random(11)
    for trial in range(60):
        ps = random_point_set(rng.randint(4, 7), rng)
        g = complete_graph(ps)
        k = rng.randint(1, g.n)
        candidate = rng.sample(sorted(g.edges), k)
        verdict = certify_plane_spanning_tree(g, candidate)
        assert isinstance(verdict, PlaneTree) == _independent_checks(g, candidate)


def test_star_always_certifies():
    rng = random.Random(5)
    for trial in range(20):
        ps = random_point_set(rng.randint(3, 9), rng)
        g = complete_graph(ps)
        center = rng.randrange(g.n)
        star = [(center, i) for i in range(g.n) if i != center]
        assert isinstance(certify_plane_spanning_tree(g, star), PlaneTree)
