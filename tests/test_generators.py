import hashlib
import math

import pytest
from _diagnostics import in_convex_position, reference_budgeted_edges

from planetree import generators
from planetree.builder import build_plane_tree
from planetree.cli import main
from planetree.generators import (
    DEFAULT_SCALE,
    GenerationError,
    convex_position_points,
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from planetree.geometry import (
    COORD_LIMIT,
    INTERIOR,
    Point,
    PointSet,
    _degeneracy,
    hull_order,
    in_general_position,
    orient,
    point_in_triangle,
)
from planetree.graphs import GeometricGraph, find_crossing_pair
from planetree.instance_io import dumps_instance
from planetree.oracle import ABSENT, has_plane_spanning_tree
from planetree.triangles import _empty_triples, disconnected_empty_triangles

import random


def test_convex_points_certified():
    for n in (3, 4, 7, 12):
        ps = convex_position_points(n)
        assert in_general_position(ps.points)
        assert in_convex_position(ps)


def test_convex_points_in_hull_order():
    ps = convex_position_points(9)
    n = len(ps)
    for i in range(n):
        assert orient(ps[i], ps[(i + 1) % n], ps[(i + 2) % n]) == 1
    # Index order is the hull order itself, read from the hull's lowest point.
    for scale in (DEFAULT_SCALE, 10):
        for n in range(3, 41):
            hull = hull_order(convex_position_points(n, scale=scale))
            assert hull == tuple((hull[0] + i) % n for i in range(n))


def test_convex_points_small_scale():
    ps = convex_position_points(4, scale=10)
    assert in_convex_position(ps)


@pytest.mark.parametrize("scale", [0, COORD_LIMIT + 1, -COORD_LIMIT - 1, 2_000_000_000])
def test_a_scale_outside_the_coordinate_bound_is_refused(scale):
    with pytest.raises(ValueError, match=f"<= {COORD_LIMIT}$"):
        convex_position_points(5, scale)


def test_a_scale_at_the_coordinate_bound_is_realized():
    for scale in (COORD_LIMIT, -COORD_LIMIT):
        assert in_convex_position(convex_position_points(5, scale))


def test_the_radius_stops_doubling_at_the_coordinate_bound(monkeypatch):
    radii = []

    def collides(ps):
        radii.append(ps[0].x)  # the vertex at angle 0 lies at (radius, 0)
        return tuple(range(len(ps) - 1))  # a hull short of one point

    monkeypatch.setattr(generators, "hull_order", collides)
    with pytest.raises(GenerationError, match=f"up to radius {COORD_LIMIT}$"):
        convex_position_points(5, COORD_LIMIT // 16)
    assert radii == [COORD_LIMIT >> k for k in (4, 3, 2, 1, 0)]


def test_the_radius_keeps_doubling_until_the_points_are_distinct():
    # Radii 1 to 2048 do not realize 300 rounded polygon vertices; the
    # thirteenth, 4096, does.
    ps = convex_position_points(300, 1)
    assert len(ps) == 300
    assert in_convex_position(ps)


def _rounded_polygon(n, radius):
    return tuple(
        Point(round(radius * math.cos(2 * math.pi * i / n)),
              round(radius * math.sin(2 * math.pi * i / n)))
        for i in range(n)
    )


def test_a_hull_listing_every_vertex_in_order_certifies_general_position():
    # Small radii round vertices together and onto common lines; the strict
    # hull that `convex_position_points` reads must then miss a vertex.
    accepted = degenerate = 0
    for n in range(3, 41):
        for radius in (*range(1, 25), *range(-12, 0)):
            pts = _rounded_polygon(n, radius)
            hull = hull_order(PointSet._trusted(pts))
            clash = _degeneracy(pts)
            degenerate += clash is not None
            if hull == tuple((hull[0] + i) % n for i in range(n)):
                accepted += 1
                assert clash is None, (n, radius)
                assert convex_position_points(n, radius).points == pts
    assert accepted > 300 and degenerate > 700


GENERATORS = {
    "path_complement": lambda: [path_complement(9)],
    "r_construction": lambda: list(r_construction(9)),
    "random_budgeted": lambda: [random_instance(9, 1)],
    "random_complete": lambda: [random_instance(9, 1, "complete")],
}


@pytest.mark.parametrize("generate", GENERATORS.values(), ids=GENERATORS.keys())
def test_generation_leaves_the_root_count_cold(generate):
    _empty_triples.cache_clear()
    graphs = [inst.graph for inst in generate()]
    assert _empty_triples.cache_info().currsize == 0
    for g in graphs:
        before = _empty_triples.cache_info()
        build_plane_tree(g)
        after = _empty_triples.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 1)


def test_path_complement_counts():
    for n in range(4, 10):
        inst = path_complement(n)
        assert disconnected_empty_triangles(inst.graph).count == n - 2


def test_path_complement_witnesses_are_consecutive_triples():
    inst = path_complement(5)
    assert disconnected_empty_triangles(inst.graph).witnesses == (
        (0, 1, 2),
        (1, 2, 3),
        (2, 3, 4),
    )


def test_path_complement_has_no_tree_small():
    assert has_plane_spanning_tree(path_complement(6).graph).status == ABSENT


def test_path_complement_minimum_size():
    with pytest.raises(ValueError):
        path_complement(2)
    # n=3 degenerates to a single edge but is allowed.
    assert len(path_complement(3).graph.edges) == 1


def test_r_construction_certificates():
    for n in (5, 7, 10):
        r, rc = r_construction(n)
        assert disconnected_empty_triangles(rc.graph).count == n - 3
        # The path instance must itself be drawn without crossings.
        assert len(r.graph.edges) == n - 1
        assert find_crossing_pair(r.graph.ps, r.graph.edges) is None
        # The pulled vertex sits strictly inside the last hull ear.
        ps = r.graph.ps
        w = ps[n - 1]
        assert point_in_triangle(w, ps[n - 4], ps[n - 3], ps[n - 2]) == INTERIOR


def test_r_construction_minimum_size():
    with pytest.raises(ValueError):
        r_construction(4)


def test_random_instance_modes_and_determinism():
    complete = random_instance(7, seed=5, mode="complete")
    assert disconnected_empty_triangles(complete.graph).count == 0

    budgeted = random_instance(7, seed=5, mode="budgeted")
    assert disconnected_empty_triangles(budgeted.graph).count <= 7 - 3
    assert len(budgeted.graph.edges) < len(complete.graph.edges)

    again = random_instance(7, seed=5, mode="budgeted")
    assert again.graph.edges == budgeted.graph.edges
    assert again.graph.ps == budgeted.graph.ps

    other = random_instance(7, seed=6, mode="budgeted")
    assert other.graph.ps != budgeted.graph.ps

    with pytest.raises(ValueError):
        random_instance(7, seed=1, mode="sparse")


def test_budgeted_instances_respect_budget_across_sizes():
    for n in range(5, 13):
        inst = random_instance(n, seed=n * 31, mode="budgeted")
        assert disconnected_empty_triangles(inst.graph).count <= n - 3


def test_budgeted_generation_fails_when_the_closing_recount_drifts(monkeypatch):
    random_instance(12, seed=3)  # passes its own check unpatched
    recount = generators._empty_candidates

    def one_triple_more(tables, edges):
        return [*recount(tables, edges), (0, 1, 2)]

    monkeypatch.setattr(generators, "_empty_candidates", one_triple_more)
    with pytest.raises(GenerationError, match="incremental disconnected count drifted"):
        random_instance(12, seed=3)


def test_budgeted_deletions_match_the_sum_per_draw_reference():
    cases = [(n, seed) for n in range(3, 41) for seed in (1, 2, n * 7919)]
    # Larger sets, where each edge carries about ten third vertices.
    cases += [(64, 1640), (100, 7)]
    for n, seed in cases:
        got = random_instance(n, seed).graph.edges
        assert got == reference_budgeted_edges(n, seed), (n, seed)


def test_random_point_set_general_position():
    # The generators build their records unchecked; each must equal the
    # record that validation builds from the same points and edges.
    rng = random.Random(2)
    for _ in range(10):
        ps = random_point_set(rng.randint(3, 20), rng)
        assert in_general_position(ps.points)
        assert PointSet(ps.points) == ps and hash(PointSet(ps.points)) == hash(ps)
    graphs = [
        random_instance(n, seed, mode).graph
        for mode in ("complete", "budgeted")
        for n, seed in [(3, 0), (4, 1), (9, 0), (9, 5), (17, 2), (30, 4)]
    ]
    graphs += [path_complement(n).graph for n in (3, 6, 13)]
    graphs += [g.graph for n in (5, 8, 13) for g in r_construction(n)]
    for g in graphs:
        ps = PointSet(g.ps.points)
        fresh = GeometricGraph(ps, g.edges)
        assert ps == g.ps and hash(ps) == hash(g.ps)
        assert fresh == g and hash(fresh) == hash(g)
        assert fresh.n == g.n == len(ps)


@pytest.mark.parametrize("box", [COORD_LIMIT + 1, -COORD_LIMIT - 1, 0, -5])
def test_a_box_outside_the_coordinate_bound_is_refused(box):
    with pytest.raises(ValueError, match=f"<= {COORD_LIMIT}$"):
        random_point_set(3, random.Random(0), box)
    ps = random_point_set(3, random.Random(0), box=COORD_LIMIT)
    assert PointSet(ps.points) == ps


# sha256 of dumps_instance output.  The benchmark's workloads are built by
# these generators, so a changed digest silently changes the workloads.
GOLDEN = [
    pytest.param(
        lambda: random_instance(12, 7),
        "e3db59d0ff3f95b6e6e57d7e83c5bfb2db506d1680a2d188916c0f5b6b2698f8",
        id="budgeted-12-7",
    ),
    pytest.param(
        lambda: random_instance(24, 3),
        "022aef9635856b88cafeb046571ac505dcf9a080f667f0419def6e65be501cac",
        id="budgeted-24-3",
    ),
    # Every instance of the budgeted_large workload at seed 1.
    pytest.param(
        lambda: random_instance(48, 1480),
        "1ac7b674e0cbaa13f9f2ba01f6c4eb7709d52e0ae788215545bbace122e20d78",
        id="budgeted-48-1480",
    ),
    pytest.param(
        lambda: random_instance(48, 1481),
        "c21fc156cfe1d1758602157cc731ee279df27f0a9f953dd61324f8c841af0296",
        id="budgeted-48-1481",
    ),
    pytest.param(
        lambda: random_instance(48, 1482),
        "41e1b12fa2ee048d8f3f92d8d094df8b64090f617d0d87861839fc970375b9f4",
        id="budgeted-48-1482",
    ),
    pytest.param(
        lambda: random_instance(64, 1640),
        "6c6af826d83f644200c94ca75a09922a59655fdfade3f5284e08dd3490652d8b",
        id="budgeted-64-1640",
    ),
    pytest.param(
        lambda: random_instance(64, 1641),
        "e7442d025a95dda5e9da9f80189b06987ede77ee964c19dba9e9eaff197a1b6b",
        id="budgeted-64-1641",
    ),
    pytest.param(
        lambda: random_instance(64, 1642),
        "591882fdc2f56bd516bd48572eb078ad5e8a01e22ecbe9cb91226a81a491ce8e",
        id="budgeted-64-1642",
    ),
    pytest.param(
        lambda: random_instance(10, 5, mode="complete"),
        "a7cc0afef5bac7c009f1de560b42349063041d4fb5a190ffbfaf221a7a53d2b3",
        id="complete-10-5",
    ),
    pytest.param(
        lambda: r_construction(9)[0],
        "e0a8aad8d52c62697d12930d396779408bc779facac81fffc01a8676c3d98b7c",
        id="r_construction-9-path",
    ),
    pytest.param(
        lambda: r_construction(9)[1],
        "65246780b81b03786ace0d652caced7cad107fcc762e7766d0424597760fa395",
        id="r_construction-9-complement",
    ),
    pytest.param(
        lambda: path_complement(8),
        "1015bcb16ee985f7ee29f85ae10d2c5c4a8c76381a5afc4cfd50bb21592c92f9",
        id="path_complement-8",
    ),
]


@pytest.mark.parametrize("make, digest", GOLDEN)
def test_generated_instances_are_byte_stable(make, digest):
    text = dumps_instance(make().graph)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_batch_output_is_byte_stable(capsys):
    # `planetree batch` generates, builds and (for n <= 9) cross-checks
    # 40 budgeted instances; stdout holds the totals and one line per
    # failed trial.
    assert main(["batch", "--trials", "40", "--n-range", "5:12", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d563872ca172ea020048c0b401fccc7319f40dd9b8e8a9d3d3f8d040953b1e13"
    )
