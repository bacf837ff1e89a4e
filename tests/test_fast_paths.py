"""Fast paths against their slow references.

Empty triangles are enumerated by visibility walks over each point's
angular order, the root count tests only triples with at most one edge
in O(1) each from per-pair below-segment counts, and a sweep side
filters its parent's witnesses instead of testing anything.  All must
give exactly the triples of the independent area-identity scan
`brute_empty_triples`, which shares no code with them; the walk must
also give those of the O(n^3) scan of every triple by the below counts.
The crossing sweep must find the pairs of the all-pairs scan, and the
certifier must return that scan's witness.
"""

import gc
import random
import sys
import tracemalloc
import weakref
from itertools import combinations
from math import comb

import pytest
from _diagnostics import (
    all_empty_triples,
    all_pairs_crossing_pair,
    all_pairs_crossing_positions,
    slope_tie_point_sets,
    triple_connected,
)
from test_triangles import brute_empty_triples

from planetree.builder import build_plane_tree
from planetree.generators import (
    convex_position_points,
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from planetree.geometry import (
    COORD_LIMIT,
    Point,
    PointSet,
    in_general_position,
    orient,
    segments_properly_cross,
)
from planetree.graphs import (
    GeometricGraph,
    canonical_edge,
    complete_graph,
    crossing_pairs,
    find_crossing_pair,
    induced_subgraph,
)
from planetree.rotation import full_rotation
from planetree.triangles import (
    _below_tables,
    _empty_candidates,
    _empty_walk,
    disconnected_empty_triangles,
    enumerate_empty_triangles,
)


def reference_witnesses(g):
    return tuple(t for t in brute_empty_triples(g.ps) if not triple_connected(g, *t))


def random_graph(n, density, rng):
    ps = random_point_set(n, rng)
    edges = [e for e in sorted(complete_graph(ps).edges) if rng.random() < density]
    return GeometricGraph(ps, frozenset(edges))


def test_root_count_matches_reference_across_densities():
    rng = random.Random(2024)
    edgeless_witnesses = 0
    for n in range(3, 15):
        for density in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            for _ in range(3):
                g = random_graph(n, density, rng)
                found = disconnected_empty_triangles(g)
                assert found.witnesses == reference_witnesses(g)
                assert found.count == len(found.witnesses)
                edgeless_witnesses += sum(
                    not ({(a, b), (a, c), (b, c)} & g.edges) for a, b, c in found.witnesses
                )
    # The draw takes triples that induce no edge by their own rule (at
    # their smallest vertex), so that rule must be well exercised too.
    assert edgeless_witnesses > 100


def test_the_root_count_peak_memory_stays_near_its_result():
    """The candidates are tested as they are drawn: the peak memory of a
    root count stays within a small multiple of the witnesses it returns,
    also on an edgeless graph, where every triple is a candidate."""
    tables = _below_tables(random_point_set(120, random.Random(5)))
    tracemalloc.start()
    try:
        found = _empty_candidates(tables, frozenset())
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == all_empty_triples(tables)
    assert peak < 3 * held


def test_the_root_count_cache_keeps_only_the_last_graph():
    # The cache holds one entry: a graph built and dropped is freed once
    # the next graph is counted, and is not kept alive by its key.
    g = random_instance(20, seed=11).graph
    first = weakref.ref(g.ps)
    assert build_plane_tree(g).tree is not None
    del g
    assert build_plane_tree(random_instance(20, seed=12).graph).tree is not None
    gc.collect()
    assert first() is None


def _walk(ps):
    """The walk's triangles, each sorted, after checking that none of
    them comes out twice."""
    found = [tuple(sorted(t)) for t in _empty_walk(ps, _below_tables(ps))]
    assert len(found) == len(set(found))
    return sorted(found)


def test_the_visibility_walk_matches_both_references():
    # The area scan is O(n^4): it checks one random set per size, the
    # families, and one slope-tie set per sign.
    rng = random.Random(1990)
    for n in range(3, 41):
        for seed in range(4):
            ps = random_point_set(n, rng)
            walk = _walk(ps)
            assert walk == all_empty_triples(_below_tables(ps)), (n, seed)
            if seed == 0:
                assert walk == brute_empty_triples(ps), n
    ties = slope_tie_point_sets(1) + slope_tie_point_sets(-1)
    families = [path_complement(n).graph.ps for n in range(3, 16)]
    families += [r_construction(n)[0].graph.ps for n in range(5, 16)]
    for k, ps in enumerate(ties + families):
        walk = _walk(ps)
        assert walk == all_empty_triples(_below_tables(ps))
        if k in (0, len(ties) // 2) or k >= len(ties):
            assert walk == brute_empty_triples(ps)
    # In convex position every triple is empty.
    assert _walk(convex_position_points(100)) == list(combinations(range(100), 3))


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _reflex_fan(k):
    """a = (0, -H), p = (0, 1 - H) and k points on y = x^2 above them.

    Seen from a or p, the parabola points turn toward it, so each sees
    only its neighbours; from a, p comes last and sees them all.  A
    recursive walk from a nests k deep at p.  Empty triangles: every
    triple on the parabola, the k - 1 neighbour pairs with a and again
    with p, and a p c for each of the k points c, so C(k, 3) + 3k - 2.
    """
    h = 4 * k * k
    parabola = (Point(x, x * x) for x in range(1, k + 1))
    return PointSet((Point(0, -h), Point(0, 1 - h), *parabola))


def test_the_walk_needs_no_recursion():
    # In convex position every turn is a left turn, but each queue
    # empties as it goes, so a recursive walk nests only 2 deep there;
    # the reflex fan makes it nest 118 deep.
    cases = [
        (convex_position_points(120), comb(120, 3)),
        (_reflex_fan(118), comb(118, 3) + 3 * 118 - 2),
    ]
    for ps, count in cases:
        tables = _below_tables(ps)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 40)
        try:
            found = sum(1 for _ in _empty_walk(ps, tables))
        finally:
            sys.setrecursionlimit(limit)
        assert found == count


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


def _shuffled(points, rng):
    points = list(points)
    rng.shuffle(points)
    return PointSet(tuple(points))


def _parabola(n, rng):
    """n points on y = x^2: convex position, no three collinear."""
    xs = rng.sample(range(-40, 41), n)
    return PointSet(tuple(Point(x, x * x) for x in xs))


def _differential_point_sets():
    rng = random.Random(8)
    for n in range(3, 13):
        for _ in range(6):
            yield random_point_set(n, rng)
        # Small grids: many points share an x or a y coordinate, so the
        # rank order falls back on y.  A +-3 grid holds few points in
        # general position, hence the cap.
        for _ in range(2):
            yield random_point_set(min(n, 8), rng, box=3)
            yield random_point_set(n, rng, box=5)
        yield _shuffled(convex_position_points(n), rng)
        yield _parabola(n, rng)
        yield random_point_set(n, rng, box=COORD_LIMIT)
        yield path_complement(n).graph.ps
    for n in range(5, 20, 2):
        yield r_construction(n)[1].graph.ps
    corners = [Point(sx * COORD_LIMIT, sy * COORD_LIMIT) for sx in (-1, 1) for sy in (-1, 1)]
    for _ in range(6):
        points = corners + list(random_point_set(4, rng, box=COORD_LIMIT).points)
        if in_general_position(points):
            yield _shuffled(points, rng)
    # Two sets of 30: random at the coordinate limit, and a grid.  A +-5
    # grid holds at most 22 points in general position (two per column),
    # so the grid of 30 is +-12, and a +-5 grid of 16 sits next to it.
    yield random_point_set(30, rng, box=COORD_LIMIT)
    yield random_point_set(30, rng, box=12)
    yield random_point_set(16, rng, box=5)


def test_pair_count_engine_matches_the_reference_scan():
    rng = random.Random(9)
    checked = 0
    for ps in _differential_point_sets():
        brute = brute_empty_triples(ps)
        assert enumerate_empty_triangles(ps) == brute
        pairs = sorted(complete_graph(ps).edges)
        for density in (0.0, 0.25, 0.5, 0.75, 1.0):
            g = GeometricGraph(ps, frozenset(e for e in pairs if rng.random() < density))
            expected = tuple(t for t in brute if not triple_connected(g, *t))
            assert disconnected_empty_triangles(g).witnesses == expected
        checked += 1
    assert checked > 150


def _slope_ties_against_rank_order(ps):
    """Pairs of points ranked after ps's first point whose float slopes
    from it are equal while their exact angular order is the reverse of
    their (x, y) rank order: a stable float sort alone gets them wrong."""
    pts = sorted(ps.points)
    a, later = pts[0], pts[1:]
    slopes = [(q.y - a.y) / (q.x - a.x) if q.x != a.x else float("inf") for q in later]
    return sum(
        slopes[i] == slopes[j] and orient(a, later[i], later[j]) < 0
        for i, j in combinations(range(len(later)), 2)
    )


def test_below_tables_match_orientation_signs():
    """The emptiness tables, checked pair by pair with `orient`, also on
    point sets at the coordinate limit whose float slopes tie."""
    tie_sets = slope_tie_point_sets(1) + slope_tie_point_sets(-1)
    assert sum(map(_slope_ties_against_rank_order, tie_sets)) > 50
    checked = 0
    point_sets = [ps for k, ps in enumerate(_differential_point_sets()) if k % 8 == 0]
    for ps in point_sets + tie_sets:
        order, pos, below = _below_tables(ps)
        pts = [ps[i] for i in order]
        assert pts == sorted(ps.points)
        n = len(pts)
        for a in range(n):
            for b in range(a + 1, n):
                right = [c for c in range(a + 1, b) if orient(pts[a], pts[b], pts[c]) < 0]
                assert below[a][b] == len(right)
                for c in range(b + 1, n):
                    clockwise_first = orient(pts[a], pts[b], pts[c]) > 0
                    assert (pos[a][b] < pos[a][c]) == clockwise_first
        checked += 1
    assert checked > 35


@pytest.mark.parametrize(
    "coords, empty",
    [
        # Two vertices on the vertical line x = 0, the fourth point inside.
        ([(0, 0), (0, 6), (6, 3), (2, 3)], [(0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        # The same mirrored, listed out of (x, y) order.
        ([(4, 3), (6, 6), (0, 3), (6, 0)], [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
        # The inside point shares its x coordinate with the apex.
        ([(0, 0), (6, 2), (3, 8), (3, 3)], [(0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    ],
)
def test_shared_x_coordinate_with_a_point_inside(coords, empty):
    ps = PointSet.from_coords(coords)
    assert brute_empty_triples(ps) == empty
    assert enumerate_empty_triangles(ps) == empty
    edgeless = GeometricGraph(ps, frozenset())
    assert disconnected_empty_triangles(edgeless).witnesses == tuple(empty)


def _crossing_cases(rng):
    """Seeded edge sets: random subsets, which mostly cross, with some
    pairs given reversed; greedy plane subsets, whose edges share many
    endpoints and cross nothing; and those with one crossing edge added.
    Small boxes put many points on one x, so many segments are vertical."""
    for n in range(2, 15):
        for box in (5, 12, 1000, COORD_LIMIT):
            ps = random_point_set(min(n, 12) if box == 5 else n, rng, box=box)
            pairs = sorted(complete_graph(ps).edges)
            for density in (0.1, 0.3, 0.6, 1.0):
                subset = [e for e in pairs if rng.random() < density]
                yield ps, [(j, i) if rng.random() < 0.3 else (i, j) for i, j in subset]
            rng.shuffle(pairs)
            plane = []
            for a, b in pairs:
                if not any(segments_properly_cross(ps[a], ps[b], ps[c], ps[d]) for c, d in plane):
                    plane.append((a, b))
            yield ps, plane
            chords = [e for e in pairs if e not in plane]
            if chords:
                yield ps, plane + [rng.choice(chords)]


def test_the_crossing_sweep_returns_the_all_pairs_witness():
    rng = random.Random(1313)
    crossing = free = vertical = 0
    for ps, edges in _crossing_cases(rng):
        expected = all_pairs_crossing_pair(ps, edges)
        assert find_crossing_pair(ps, edges) == expected
        crossing += expected is not None
        free += expected is None
        vertical += any(ps[i].x == ps[j].x for i, j in edges)
    for n in range(5, 40, 3):
        g = random_instance(n, seed=90_001 + n).graph
        tree = build_plane_tree(g).tree.tree_edges
        assert find_crossing_pair(g.ps, tree) is None
        assert all_pairs_crossing_pair(g.ps, tree) is None
        free += 1
    assert crossing > 150 and free > 80 and vertical > 50


def test_the_crossing_kernel_finds_the_pairs_of_the_all_pairs_scan():
    # Canonical edges in a shuffled order, so positions are not the
    # sorted order; each crossing pair comes out once, with i < j.
    rng = random.Random(1414)
    cases = [(ps, [canonical_edge(*e) for e in edges]) for ps, edges in _crossing_cases(rng)]
    for sy in (1, -1):
        for ps in slope_tie_point_sets(sy):
            pairs = combinations(range(len(ps)), 2)
            cases.append((ps, [e for e in pairs if rng.random() < 0.15]))
    found = []
    for ps, edges in cases:
        edges = sorted(set(edges))
        rng.shuffle(edges)
        pairs = list(crossing_pairs(ps, edges))
        assert all(i < j for i, j in pairs)
        assert len(pairs) == len(set(pairs))
        assert sorted(pairs) == all_pairs_crossing_positions(ps, edges)
        found.append(len(pairs))
    ties = len(slope_tie_point_sets(1)) + len(slope_tie_point_sets(-1))
    assert sum(found[:-ties]) > 5_000 and sum(found[-ties:]) > 10_000
