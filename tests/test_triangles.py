import random
from itertools import combinations

import pytest
from _diagnostics import relative_equals_global_empty

from planetree.generators import convex_position_points, path_complement, random_point_set
from planetree.geometry import Point, PointSet
from planetree.graphs import GeometricGraph, complete_graph, induced_subgraph
from planetree.rotation import full_rotation
from planetree.triangles import disconnected_empty_triangles, enumerate_empty_triangles


def brute_empty_triples(ps):
    """Independent enumeration: strict interior via the absolute-area
    identity, |abp| + |bcp| + |cap| == |abc|, with each cross product
    written out over plain coordinate lists."""
    coords = [(p.x, p.y) for p in ps]
    out = []
    for i, j, k in combinations(range(len(coords)), 3):
        (ax, ay), (bx, by), (cx, cy) = coords[i], coords[j], coords[k]
        total = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        for t, (px, py) in enumerate(coords):
            if t == i or t == j or t == k:
                continue
            parts = (
                abs((bx - ax) * (py - ay) - (by - ay) * (px - ax))
                + abs((cx - bx) * (py - by) - (cy - by) * (px - bx))
                + abs((ax - cx) * (py - cy) - (ay - cy) * (px - cx))
            )
            if parts == total:
                break
        else:
            out.append((i, j, k))
    return out


def test_convex_position_all_triples_empty():
    ps = convex_position_points(5)
    assert len(enumerate_empty_triangles(ps)) == 10


def test_interior_point_excludes_outer_triple():
    ps = PointSet.from_coords([(0, 0), (6, 0), (0, 6), (1, 1)])
    triples = enumerate_empty_triangles(ps)
    assert triples == brute_empty_triples(ps)
    assert len(triples) == 3
    assert (0, 1, 2) not in triples


def test_three_points_single_triple():
    ps = PointSet.from_coords([(0, 0), (5, 1), (2, 7)])
    assert enumerate_empty_triangles(ps) == [(0, 1, 2)]


def test_too_few_points_rejected():
    ps = PointSet.from_coords([(0, 0), (1, 3)])
    with pytest.raises(ValueError):
        enumerate_empty_triangles(ps)


def test_enumeration_matches_brute_force_on_random_sets():
    rng = random.Random(99)
    for _ in range(30):
        ps = random_point_set(rng.randint(3, 10), rng)
        assert enumerate_empty_triangles(ps) == brute_empty_triples(ps)


def test_counts_on_complete_edgeless_and_path_complement():
    ps = convex_position_points(5)
    assert disconnected_empty_triangles(complete_graph(ps)).count == 0
    edgeless = GeometricGraph(ps, frozenset())
    assert disconnected_empty_triangles(edgeless).count == 10

    tc5 = path_complement(5).graph
    result = disconnected_empty_triangles(tc5)
    assert result.count == 3
    assert result.witnesses == ((0, 1, 2), (1, 2, 3), (2, 3, 4))


def test_removing_edges_never_decreases_count():
    rng = random.Random(3)
    for _ in range(15):
        ps = random_point_set(rng.randint(4, 8), rng)
        g = complete_graph(ps)
        edges = sorted(g.edges)
        rng.shuffle(edges)
        prev = disconnected_empty_triangles(g).count
        current = set(g.edges)
        for e in edges[: len(edges) // 2]:
            current.discard(e)
            now = disconnected_empty_triangles(GeometricGraph(ps, frozenset(current))).count
            assert now >= prev
            prev = now


def test_subadditivity_across_rotation_lines():
    rng = random.Random(17)
    for _ in range(10):
        ps = random_point_set(rng.randint(5, 9), rng)
        g = complete_graph(ps)
        edges = sorted(g.edges)
        keep = rng.sample(edges, max(len(edges) - 6, g.n - 1))
        g = GeometricGraph(ps, frozenset(keep))
        total = disconnected_empty_triangles(g).count
        seq = full_rotation(ps)
        for part in seq.intermediate_partitions:
            left = disconnected_empty_triangles(induced_subgraph(g, part.left)).count
            right = disconnected_empty_triangles(induced_subgraph(g, part.right)).count
            assert left + right <= total


def test_half_plane_subsets_preserve_emptiness():
    rng = random.Random(31)
    for _ in range(10):
        ps = random_point_set(rng.randint(5, 10), rng)
        seq = full_rotation(ps)
        for part in seq.intermediate_partitions[:4]:
            assert relative_equals_global_empty(ps, part.left)
            assert relative_equals_global_empty(ps, part.right)
        assert relative_equals_global_empty(ps, range(len(ps)))


def test_non_half_plane_subset_can_break_equivalence():
    # Dropping the middle point leaves a subset-empty triangle that
    # contains it, so subset emptiness does not imply global emptiness.
    ps = PointSet.from_coords([(0, 0), (10, 0), (5, 1), (5, 8)])
    assert not relative_equals_global_empty(ps, [0, 1, 3])
