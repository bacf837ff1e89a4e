import random
from functools import partial

import pytest
from _diagnostics import all_pairs_crossing_positions

from planetree import builder, cli, oracle
from planetree.builder import build_plane_tree
from planetree.generators import (
    convex_position_points,
    path_complement,
    r_construction,
    random_point_set,
)
from planetree.geometry import Point, PointSet
from planetree.graphs import GeometricGraph, PlaneTree, certify_plane_spanning_tree, complete_graph
from planetree.instance_io import dump_instance
from planetree.oracle import (
    ABSENT,
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FOUND,
    OracleResult,
    has_plane_spanning_tree,
)


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


def _reference_oracle(g, budget=DEFAULT_BUDGET):
    """The oracle's search on a crossing table from the all-pairs scan.
    The table holds both directions of every pair, so the oracle's table
    of later edges only is checked to lose nothing."""
    edges = sorted(g.edges)
    parent = list(range(g.n))
    usable = oracle._usable(edges, parent, 0, 0, g.n)
    if not usable:
        return OracleResult(ABSENT, None, 0)
    crossers = [0] * len(edges)
    for a, b in all_pairs_crossing_positions(g.ps, edges):
        crossers[a] |= 1 << b
        crossers[b] |= 1 << a
    status, chosen, nodes = oracle._search(edges, crossers, budget, parent, usable)
    tree_edges = frozenset(edges[e] for e in chosen) if status == FOUND else None
    return OracleResult(status, tree_edges, nodes)


def _oracle_cases():
    rng = random.Random(2323)
    for n in range(3, 11):
        ps = random_point_set(n, rng)
        pairs = sorted(complete_graph(ps).edges)
        for density in (0.3, 0.5, 0.7, 0.9, 1.0):
            for _ in range(3):
                yield GeometricGraph(ps, frozenset(e for e in pairs if rng.random() < density))
    for n in range(5, 11):
        yield path_complement(n).graph
        for instance in r_construction(n):
            yield instance.graph


def test_the_oracle_matches_its_search_on_the_all_pairs_crossing_table():
    statuses = set()
    for g in _oracle_cases():
        result = has_plane_spanning_tree(g)
        assert result == _reference_oracle(g)
        statuses.add(result.status)
        if result.status == FOUND and result.nodes > 4:
            # The same search cut short by the budget.
            budget = result.nodes // 2
            spent = has_plane_spanning_tree(g, budget=budget)
            assert spent.status == BUDGET_EXCEEDED
            assert spent == _reference_oracle(g, budget=budget)
            statuses.add(spent.status)
    assert statuses == {FOUND, ABSENT, BUDGET_EXCEEDED}


def test_a_negative_budget_is_refused(monkeypatch):
    g = complete_graph(convex_position_points(6))
    with pytest.raises(ValueError, match="budget must be at least 0, got -1"):
        has_plane_spanning_tree(g, budget=-1)
    # Budget 0 stays legal: the search stops at its first node, and a
    # build on the theorem path never spends any.
    assert has_plane_spanning_tree(g, budget=0) == OracleResult(BUDGET_EXCEEDED, None, 1)
    monkeypatch.setattr(builder, "has_plane_spanning_tree", partial(has_plane_spanning_tree, budget=0))
    assert build_plane_tree(g).tree is not None
