"""Fast disconnected-triangle counts against the O(n^4) reference scan.

The root count tests emptiness only for triples with at most one edge,
and a sweep side filters its parent's witnesses instead of testing
anything.  Both must give exactly the witnesses the reference gives.
"""

import random

import pytest

from planetree.generators import path_complement, r_construction, random_point_set
from planetree.graphs import (
    GeometricGraph,
    complete_graph,
    induced_subgraph,
    triple_connected,
)
from planetree.rotation import full_rotation
from planetree.triangles import disconnected_empty_triangles, enumerate_empty_triangles


def reference_witnesses(g):
    return tuple(
        t for t in enumerate_empty_triangles(g.ps) if not triple_connected(g, *t)
    )


def random_graph(n, density, rng):
    ps = random_point_set(n, rng)
    edges = [e for e in sorted(complete_graph(ps).edges) if rng.random() < density]
    return GeometricGraph(ps, frozenset(edges))


def test_root_count_matches_reference_across_densities():
    rng = random.Random(2024)
    for n in range(3, 11):
        for density in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            for _ in range(3):
                g = random_graph(n, density, rng)
                found = disconnected_empty_triangles(g)
                assert found.witnesses == reference_witnesses(g)
                assert found.count == len(found.witnesses)


def test_root_count_matches_reference_on_families():
    graphs = [path_complement(n).graph for n in range(3, 11)]
    for n in range(5, 11):
        graphs.extend(inst.graph for inst in r_construction(n))
    for g in graphs:
        edgeless = GeometricGraph(g.ps, frozenset())
        for h in (g, edgeless, complete_graph(g.ps)):
            assert disconnected_empty_triangles(h).witnesses == reference_witnesses(h)


def test_sweep_sides_inherit_the_root_witnesses():
    rng = random.Random(77)
    sides = 0
    for _ in range(24):
        g = random_graph(rng.randint(5, 10), rng.choice((0.3, 0.6, 0.9)), rng)
        root = disconnected_empty_triangles(g).witnesses
        for _, part in full_rotation(g.ps).states():
            for side in (part.left, part.right):
                if len(side) < 3:
                    continue
                sub = induced_subgraph(g, side)
                inherited = disconnected_empty_triangles(sub, inherited=root)
                assert inherited == disconnected_empty_triangles(sub)
                assert inherited.witnesses == reference_witnesses(sub)
                sides += 1
    assert sides > 500


def test_inheritance_needs_an_induced_subgraph():
    g = complete_graph(random_point_set(5, random.Random(1)))
    with pytest.raises(ValueError):
        disconnected_empty_triangles(g, inherited=())
