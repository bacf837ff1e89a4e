import random

from planetree import cli
from planetree.generators import (
    convex_position_points,
    path_complement,
    random_point_set,
)
from planetree.geometry import Point, PointSet
from planetree.graphs import GeometricGraph, PlaneTree, certify_plane_spanning_tree, complete_graph
from planetree.instance_io import dump_instance
from planetree.oracle import ABSENT, BUDGET_EXCEEDED, FOUND, has_plane_spanning_tree


def test_complete_graph_finds_lex_first_star():
    g = complete_graph(convex_position_points(6))
    result = has_plane_spanning_tree(g)
    assert result.status == FOUND
    assert result.exists is True
    # Lexicographic edge order makes the star at vertex 0 the first tree.
    assert result.tree_edges == frozenset((0, i) for i in range(1, 6))


def test_isolated_vertex_means_absent():
    ps = convex_position_points(5)
    edges = {(i, j) for i in range(4) for j in range(i + 1, 4)}
    g = GeometricGraph(ps, frozenset(edges))
    result = has_plane_spanning_tree(g)
    assert result.status == ABSENT
    assert result.exists is False


def test_path_complement_n6_has_no_tree():
    g = path_complement(6).graph
    assert has_plane_spanning_tree(g).status == ABSENT


def test_budget_exceeded_is_distinct():
    g = complete_graph(convex_position_points(9))
    result = has_plane_spanning_tree(g, budget=3)
    assert result.status == BUDGET_EXCEEDED
    assert result.exists is None
    assert result.nodes > 3


def test_witness_deterministic():
    rng = random.Random(13)
    ps = random_point_set(8, rng)
    g = complete_graph(ps)
    first = has_plane_spanning_tree(g)
    second = has_plane_spanning_tree(g)
    assert first.tree_edges == second.tree_edges
    assert first.nodes == second.nodes


def test_sparse_graphs_random_consistency():
    # Removing edges can only destroy trees: once absent, always absent
    # under further deletion.
    rng = random.Random(21)
    for _ in range(10):
        ps = random_point_set(rng.randint(4, 7), rng)
        edges = sorted(complete_graph(ps).edges)
        rng.shuffle(edges)
        seen_absent = False
        for cut in range(len(edges), -1, -2):
            g = GeometricGraph(ps, frozenset(edges[:cut]))
            result = has_plane_spanning_tree(g)
            status = result.status
            if status == FOUND:
                # The oracle returns its edges uncertified; check them here.
                assert isinstance(certify_plane_spanning_tree(g, result.tree_edges), PlaneTree)
            if seen_absent:
                assert status == ABSENT
            elif status == ABSENT:
                seen_absent = True


def test_the_search_is_iterative_on_a_1000_point_path(tmp_path, capsys):
    # One chosen edge per level: a recursive search would go 999 levels
    # deep, past Python's default recursion limit.
    n = 1000
    ps = PointSet(tuple(Point(i, i * i) for i in range(n)))
    g = GeometricGraph(ps, frozenset((i, i + 1) for i in range(n - 1)))
    result = has_plane_spanning_tree(g)
    assert result.status == FOUND
    assert result.nodes == n - 1
    path = tmp_path / "path.json"
    dump_instance(g, str(path))
    assert cli.main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f"nodes={n - 1}")


def _admitted(coords, edges, budget=10**8):
    g = GeometricGraph(PointSet.from_coords(coords), frozenset(edges))
    result = has_plane_spanning_tree(g, budget=budget)
    return result.status, result.tree_edges, result.nodes


def test_a_graph_that_cannot_connect_is_refused_before_any_node():
    hexagon = [(0, 0), (4, 0), (6, 3), (4, 6), (0, 6), (-2, 3)]
    # An isolated vertex, too few edges, and two disjoint triangles, which
    # have enough edges and no isolated vertex but still do not connect.
    isolated = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    too_few = [(0, 1), (1, 2), (3, 4)]
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    for edges in (isolated, too_few, triangles):
        assert _admitted(hexagon, edges) == (ABSENT, None, 0)
        assert _admitted(hexagon, edges, budget=0) == (ABSENT, None, 0)


def test_one_point_and_two_points_have_their_trees():
    assert _admitted([(3, 4)], []) == (FOUND, frozenset(), 0)
    assert _admitted([(3, 4), (5, 1)], [(0, 1)]) == (FOUND, frozenset({(0, 1)}), 1)
    assert _admitted([(3, 4), (5, 1)], []) == (ABSENT, None, 0)


def test_the_oracle_command_on_one_point(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"points": [[3, 4]], "edges": []}')
    assert cli.main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == "exists tree=[] nodes=0\n"
