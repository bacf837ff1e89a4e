"""The interval recurrence for points in convex position, against the oracle.

The exhaustive oracle is the reference: on every graph both must agree
on whether a plane spanning tree exists, and every tree the recurrence
returns must pass the certifier.  The builder sends its convex fallbacks
from 5 points up to the recurrence, so an out-of-theorem convex input
is decided in polynomial time instead of by an exponential search.
"""

import hashlib
import json
from itertools import combinations

import pytest

from _diagnostics import random_convex_graph
import planetree.builder
from planetree.builder import FALLBACK, build_plane_tree
from planetree.convex import convex_tree_edges
from planetree.generators import convex_position_points, path_complement, r_construction
from planetree.geometry import hull_order
from planetree.graphs import GeometricGraph, PlaneTree, certify_plane_spanning_tree
from planetree.oracle import has_plane_spanning_tree

DENSITIES = (0.25, 0.45, 0.65, 0.85)


def _agrees_with_the_oracle(g):
    edges = convex_tree_edges(g, hull_order(g.ps))
    oracle = has_plane_spanning_tree(g)
    assert (edges is not None) == oracle.exists
    if edges is not None:
        # Neither decision certifies its own edges, so both are checked here.
        assert isinstance(certify_plane_spanning_tree(g, edges), PlaneTree)
        assert isinstance(certify_plane_spanning_tree(g, oracle.tree_edges), PlaneTree)
    return edges is not None


def test_the_recurrence_agrees_with_the_oracle_on_random_convex_graphs():
    found = checked = 0
    for n in range(3, 10):
        for density in DENSITIES:
            for rep in range(11):
                g = random_convex_graph(n, density, seed=1000 * n + 100 * rep + int(100 * density))
                found += _agrees_with_the_oracle(g)
                checked += 1
    assert checked >= 300
    # Both verdicts occur often, so neither side of the agreement is vacuous.
    assert 60 <= found <= checked - 60


def _named_graphs(n):
    ps = convex_position_points(n)
    pairs = frozenset(combinations(range(n), 2))
    path = frozenset((i, i + 1) for i in range(n - 1))
    yield "complete", GeometricGraph(ps, pairs), True
    yield "empty", GeometricGraph(ps, frozenset()), False
    yield "star", GeometricGraph(ps, frozenset((0, j) for j in range(1, n))), True
    yield "path", GeometricGraph(ps, path), True
    yield "path complement", GeometricGraph(ps, pairs - path), False


@pytest.mark.parametrize("n", range(3, 10))
def test_the_recurrence_decides_named_convex_graphs(n):
    for name, g, exists in _named_graphs(n):
        assert _agrees_with_the_oracle(g) == exists, name


def test_the_recurrence_rejects_points_not_in_convex_position():
    with pytest.raises(ValueError, match="convex position"):
        g = r_construction(8)[1].graph
        convex_tree_edges(g, hull_order(g.ps))


def _no_oracle(*args, **kwargs):
    raise AssertionError("a convex fallback ran the oracle")


@pytest.mark.parametrize("n", (40, 64))
def test_large_path_complements_fail_fast_without_the_oracle(n, monkeypatch):
    # Out of theorem by one triangle; the oracle's search is exponential here.
    monkeypatch.setattr(planetree.builder, "has_plane_spanning_tree", _no_oracle)
    report = build_plane_tree(path_complement(n).graph)
    assert report.tree is None
    assert report.trace == [(n, FALLBACK)]
    assert report.flags() == ["precondition_violated"]


def test_the_convex_path_gets_a_tree_through_the_fallback(monkeypatch):
    monkeypatch.setattr(planetree.builder, "has_plane_spanning_tree", _no_oracle)
    n = 40
    path = frozenset((i, i + 1) for i in range(n - 1))
    g = GeometricGraph(convex_position_points(n), path)
    report = build_plane_tree(g)
    assert report.flags() == ["precondition_violated"]
    assert report.trace == [(n, FALLBACK)]
    assert report.tree is not None and report.tree.tree_edges == path


def _recurrence_edges_text():
    lines = []
    for n in range(5, 17):
        for density in DENSITIES:
            for rep in range(6):
                seed = 7919 * n + 100 * rep + int(100 * density)
                g = random_convex_graph(n, density, seed=seed)
                edges = convex_tree_edges(g, hull_order(g.ps))
                text = "none" if edges is None else json.dumps(sorted(map(sorted, edges)))
                lines.append(text)
    return lines


# sha256 of the recurrence's edges, one line per graph, over 288 seeded
# random convex graphs on 5..16 points.  The verdict alone does not pin
# which tree comes back; this pins the first-m, first-k choices.
GOLDEN_RECURRENCE_EDGES = "1852511d2683f66ce32464c21a807f0ed63a59f884c50e21b1a8002d1fee79d8"


def test_the_recurrence_returns_the_same_edges():
    lines = _recurrence_edges_text()
    trees = sum(line != "none" for line in lines)
    assert 60 <= trees <= len(lines) - 60  # both verdicts occur often
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_RECURRENCE_EDGES
