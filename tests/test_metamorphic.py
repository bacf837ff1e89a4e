"""Exact symmetries of the plane, applied to whole instances.

An integer translation keeps every cross product of point differences,
and it shifts every start-line key `p.y - k * p.x` by one constant, so
the sweep, the tree and the trace stay exactly the same.  A 90°
rotation, the mirror (x, y) -> (-x, y) and the shear (x + y, y) are
integer maps of determinant +-1: each keeps every orientation sign or
flips all of them.  They may move the start line, and with it the
tree, so only what the geometry alone decides is compared: the empty
triangles, the disconnected witnesses, the flags and whether a
certified tree comes back.  Every image stays inside `COORD_LIMIT`.

The interval recurrence for convex position reads the points in hull
order, which the mirror reverses and the other maps may start at a
different vertex; its verdict must not change, and a translation, which
keeps the hull order, must keep its witness.  The exhaustive oracle
reads only the indices and which pairs properly cross, so its whole
result must not change under any map.

Point sets at the coordinate limit whose float slopes tie go through
every map that keeps them inside the box.
"""

import random
from itertools import combinations

import pytest

from _diagnostics import random_convex_graph, slope_tie_point_sets
from planetree.builder import build_plane_tree
from planetree.convex import convex_tree_edges
from planetree.generators import path_complement, r_construction, random_instance
from planetree.geometry import COORD_LIMIT, Point, PointSet, hull_order
from planetree.graphs import GeometricGraph, PlaneTree, certify_plane_spanning_tree
from planetree.oracle import has_plane_spanning_tree
from planetree.rotation import full_rotation
from planetree.triangles import disconnected_empty_triangles, enumerate_empty_triangles


def _instances():
    for t in range(30):
        yield random_instance(5 + t % 12, seed=70_001 + t).graph
    for n in (24, 32, 40):
        yield random_instance(n, seed=70_101 + n).graph
    for n in range(5, 21, 3):
        yield r_construction(n)[1].graph
    for n in range(5, 10):
        yield path_complement(n).graph


def _mapped(g, f):
    ps = PointSet(tuple(Point(*f(p.x, p.y)) for p in g.ps))
    assert all(abs(c) <= COORD_LIMIT for p in ps for c in (p.x, p.y))
    return GeometricGraph(ps, g.edges)


def _translations(g):
    xs = [p.x for p in g.ps]
    ys = [p.y for p in g.ps]
    # A small shift, and one that pushes the set into a corner of the
    # coordinate box.
    yield 37, -11
    yield COORD_LIMIT - max(xs), -COORD_LIMIT - min(ys)


def test_integer_translations_keep_the_sweep_and_the_build_byte_identical():
    checked = 0
    for g in _instances():
        text = build_plane_tree(g).to_text()
        states = list(full_rotation(g.ps).states())
        for tx, ty in _translations(g):
            image = _mapped(g, lambda x, y: (x + tx, y + ty))
            assert build_plane_tree(image).to_text() == text
            assert list(full_rotation(image.ps).states()) == states
            checked += 1
    assert checked > 80


MAPS = {
    "rotate90": lambda x, y: (-y, x),
    "mirror": lambda x, y: (-x, y),
    "shear": lambda x, y: (x + y, y),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_orientation_maps_keep_triangles_witnesses_flags_and_certifiability(name):
    f = MAPS[name]
    trees = 0
    violated = 0
    for g in _instances():
        image = _mapped(g, f)
        assert enumerate_empty_triangles(image.ps) == enumerate_empty_triangles(g.ps)
        assert (
            disconnected_empty_triangles(image).witnesses
            == disconnected_empty_triangles(g).witnesses
        )
        report = build_plane_tree(g)
        image_report = build_plane_tree(image)
        assert image_report.flags() == report.flags()
        assert (image_report.tree is None) == (report.tree is None)
        if report.tree is not None:
            # A tree of g, drawn on the image, is still plane and spanning.
            assert isinstance(
                certify_plane_spanning_tree(image, report.tree.tree_edges), PlaneTree
            )
            trees += 1
        violated += report.precondition_violated
    assert trees > 30
    assert violated >= 5


def test_the_oracle_result_is_the_same_under_every_map_and_translation():
    # The maps keep indices and every proper crossing, so the search sees
    # the same edges and the same crossing table.
    checked = 0
    for g in _instances():
        if g.n > 10:
            continue
        result = has_plane_spanning_tree(g)
        maps = list(MAPS.values())
        maps += [lambda x, y, tx=tx, ty=ty: (x + tx, y + ty) for tx, ty in _translations(g)]
        for f in maps:
            assert has_plane_spanning_tree(_mapped(g, f)) == result
            checked += 1
    assert checked > 100


def _slope_tie_graphs():
    for sy in (1, -1):
        for k, ps in enumerate(slope_tie_point_sets(sy)):
            rng = random.Random(72_001 + 100 * sy + k)
            pairs = combinations(range(len(ps)), 2)
            yield GeometricGraph(ps, frozenset(e for e in pairs if rng.random() < 0.5))


def _in_the_box(g, f):
    return all(abs(c) <= COORD_LIMIT for p in g.ps for c in f(p.x, p.y))


def test_float_slope_ties_keep_triangles_and_witnesses_under_every_map():
    # Point sets at the coordinate limit whose angular sorts meet float
    # ties.  Builds are left out: their witnesses put them far outside
    # the theorem, where the oracle would decide.  A map that leaves
    # the coordinate box is skipped for that set.
    mapped = set()
    for g in _slope_tie_graphs():
        empty = enumerate_empty_triangles(g.ps)
        witnesses = disconnected_empty_triangles(g).witnesses
        maps = dict(MAPS)
        for k, (tx, ty) in enumerate(_translations(g)):
            maps[f"translate{k}"] = lambda x, y, tx=tx, ty=ty: (x + tx, y + ty)
        for name, f in sorted(maps.items()):
            if not _in_the_box(g, f):
                continue
            image = _mapped(g, f)
            assert enumerate_empty_triangles(image.ps) == empty, name
            assert disconnected_empty_triangles(image).witnesses == witnesses, name
            mapped.add(name)
    assert mapped >= {"rotate90", "mirror", "translate1"}


def _convex_instances():
    for t in range(40):
        yield random_convex_graph(4 + t % 6, (0.3, 0.5, 0.7, 0.9)[t % 4], seed=71_001 + t)
    for n in range(5, 17):
        yield path_complement(n).graph


def test_the_convex_decision_keeps_its_verdict_under_every_map():
    trees = 0
    for g in _convex_instances():
        edges = convex_tree_edges(g, hull_order(g.ps))
        trees += edges is not None
        for tx, ty in _translations(g):
            image = _mapped(g, lambda x, y: (x + tx, y + ty))
            assert convex_tree_edges(image, hull_order(image.ps)) == edges
        for name, f in sorted(MAPS.items()):
            image = _mapped(g, f)
            image_edges = convex_tree_edges(image, hull_order(image.ps))
            assert (image_edges is None) == (edges is None), name
            if image_edges is not None:
                # Indices are kept, so the image's tree is a tree of g too.
                assert isinstance(certify_plane_spanning_tree(g, image_edges), PlaneTree)
    assert 10 <= trees <= 40


def test_the_mirror_reverses_the_hull_order():
    g = path_complement(9).graph
    order = hull_order(g.ps)
    mirrored = hull_order(_mapped(g, MAPS["mirror"]).ps)
    start = mirrored.index(order[0])
    assert mirrored[start::-1] + mirrored[:start:-1] == order
