import hashlib

import pytest

from planetree import generators
from planetree.generators import (
    GenerationError,
    convex_position_points,
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from planetree.geometry import INTERIOR, in_convex_position, in_general_position, orient, point_in_triangle
from planetree.graphs import is_crossing_free
from planetree.instance_io import dumps_instance
from planetree.oracle import ABSENT, has_plane_spanning_tree
from planetree.triangles import disconnected_empty_triangles

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


def test_convex_points_small_scale():
    ps = convex_position_points(4, scale=10)
    assert in_convex_position(ps)


def test_path_complement_counts():
    for n in range(4, 10):
        inst = path_complement(n)
        assert inst.family_tag == "path_complement"
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
        assert r.family_tag == rc.family_tag == "r_construction"
        assert disconnected_empty_triangles(rc.graph).count == n - 3
        # The path instance must itself be drawn without crossings.
        assert len(r.graph.edges) == n - 1
        assert is_crossing_free(r.graph, r.graph.edges)
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


def test_random_point_set_general_position():
    rng = random.Random(2)
    for _ in range(10):
        ps = random_point_set(rng.randint(3, 20), rng)
        assert in_general_position(ps.points)


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
    # Seed 1's first instance of each size in the budgeted_large workload.
    pytest.param(
        lambda: random_instance(48, 1480),
        "1ac7b674e0cbaa13f9f2ba01f6c4eb7709d52e0ae788215545bbace122e20d78",
        id="budgeted-48-1480",
    ),
    pytest.param(
        lambda: random_instance(64, 1640),
        "6c6af826d83f644200c94ca75a09922a59655fdfade3f5284e08dd3490652d8b",
        id="budgeted-64-1640",
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
