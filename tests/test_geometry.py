from fractions import Fraction

import pytest
from _diagnostics import in_convex_position
from hypothesis import given, strategies as st

from planetree.builder import build_plane_tree
from planetree.geometry import (
    BOUNDARY,
    COORD_LIMIT,
    GeneralPositionError,
    INTERIOR,
    OUTSIDE,
    Point,
    PointSet,
    hull_order,
    in_general_position,
    orient,
    point_in_triangle,
    segments_properly_cross,
)
from planetree.graphs import complete_graph

coords = st.integers(min_value=-(2**20), max_value=2**20)
points = st.builds(Point, coords, coords)


def test_orient_examples():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


@given(points, points, points)
def test_orient_antisymmetry_and_cycle(a, b, c):
    assert orient(a, b, c) == -orient(b, a, c) == orient(b, c, a)


@given(points, points, points)
def test_orient_matches_exact_rational_recomputation(a, b, c):
    det = (Fraction(b.x) - a.x) * (Fraction(c.y) - a.y) - (
        Fraction(b.y) - a.y
    ) * (Fraction(c.x) - a.x)
    expected = 0 if det == 0 else (1 if det > 0 else -1)
    assert orient(a, b, c) == expected


def test_cross_examples():
    assert segments_properly_cross(
        Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)
    )
    assert not segments_properly_cross(
        Point(0, 0), Point(1, 0), Point(0, 0), Point(0, 1)
    )
    assert not segments_properly_cross(
        Point(0, 0), Point(1, 0), Point(3, 3), Point(4, 4)
    )


@given(points, points, points, points)
def test_cross_symmetries(p, q, r, s):
    base = segments_properly_cross(p, q, r, s)
    assert segments_properly_cross(r, s, p, q) == base
    assert segments_properly_cross(q, p, r, s) == base
    assert segments_properly_cross(p, q, s, r) == base


def test_point_in_triangle_examples():
    a, b, c = Point(0, 0), Point(3, 0), Point(0, 3)
    assert point_in_triangle(Point(1, 1), a, b, c) == INTERIOR
    assert point_in_triangle(Point(0, 0), a, b, c) == BOUNDARY
    assert point_in_triangle(Point(5, 5), a, b, c) == OUTSIDE


def test_point_in_triangle_edge_point_is_boundary():
    assert point_in_triangle(
        Point(1, 0), Point(0, 0), Point(3, 0), Point(0, 3)
    ) == BOUNDARY


def test_point_in_triangle_degenerate_raises():
    with pytest.raises(ValueError):
        point_in_triangle(Point(1, 1), Point(0, 0), Point(1, 0), Point(2, 0))


@given(points, points, points, points)
def test_point_in_triangle_permutation_invariant(p, a, b, c):
    if orient(a, b, c) == 0:
        with pytest.raises(ValueError):
            point_in_triangle(p, a, b, c)
        return
    results = {
        point_in_triangle(p, *perm)
        for perm in [(a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)]
    }
    assert len(results) == 1


def test_general_position_examples():
    assert not in_general_position(
        [Point(0, 0), Point(1, 0), Point(2, 0)]
    )
    assert in_general_position([Point(0, 0), Point(1, 0), Point(0, 1)])
    assert not in_general_position([Point(0, 0), Point(0, 0), Point(1, 1)])


def test_pointset_rejects_bad_configurations():
    with pytest.raises(GeneralPositionError):
        PointSet.from_coords([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError):
        PointSet.from_coords([(COORD_LIMIT + 1, 0), (1, 0), (0, 1)])


@pytest.mark.parametrize(
    "coords, detail",
    [
        # from_coords used to truncate this to (0, 0), (3, 0), (0, 2).
        ([(0.9, 0), (3, 0.5), (0, 2)], "point 0 = (0.9, 0)"),
        ([(0, 0), (3, 1), (0, 2.0)], "point 2 = (0, 2.0)"),
        ([(0, 0), (True, 3), (0, 2)], "point 1 = (True, 3)"),
        ([(0, 0), (3, 1), ("0", 2)], "point 2 = ('0', 2)"),
    ],
)
def test_pointset_rejects_a_non_integer_coordinate(coords, detail):
    with pytest.raises(ValueError, match="non-integer coordinate") as err:
        PointSet.from_coords(coords)
    assert detail in str(err.value)
    with pytest.raises(ValueError, match="non-integer coordinate"):
        PointSet(tuple(Point(x, y) for x, y in coords))


def test_a_point_set_stores_its_points_as_a_tuple():
    # Stored as a tuple, the point set hashes, so a build can key its root
    # count on it.
    points = [Point(0, 0), Point(6, 1), Point(2, 7), Point(9, 5), Point(3, 3)]
    ps = PointSet(points)
    assert ps.points == tuple(points)
    assert ps == PointSet(tuple(points)) and hash(ps) == hash(PointSet(tuple(points)))
    assert build_plane_tree(complete_graph(ps)).tree is not None


def test_pointset_refuses_an_entry_that_is_not_a_point():
    with pytest.raises(ValueError) as err:
        PointSet(((0, 0), (1, 1)))
    assert str(err.value) == "point 0 is not a Point: (0, 0)"
    with pytest.raises(ValueError) as err:
        PointSet([Point(0, 0), Point(4, 1), [2, 7]])
    assert str(err.value) == "point 2 is not a Point: [2, 7]"


def test_convex_position_examples():
    square = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert in_convex_position(square)
    with_inner = PointSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (1, 2)])
    assert not in_convex_position(with_inner)
    triangle = PointSet.from_coords([(0, 0), (5, 1), (2, 7)])
    assert in_convex_position(triangle)


def test_hull_order_lists_the_hull_vertices_counter_clockwise():
    # From the lowest point in (x, y) order; the inner point 3 is left out.
    ps = PointSet.from_coords([(4, 4), (0, 4), (4, 0), (1, 2), (0, 0)])
    assert hull_order(ps) == (4, 2, 0, 1)
    assert hull_order(ps.subset([3, 0])) == (0, 1)


def test_subset_equals_a_validated_point_set():
    ps = PointSet.from_coords([(0, 0), (5, 1), (2, 7), (9, 4), (-3, 6)])
    for indices in ([0], [4, 1, 2], [0, 1, 2, 3, 4], []):
        sub = ps.subset(indices)
        fresh = PointSet(tuple(ps[i] for i in indices))
        assert sub == fresh and hash(sub) == hash(fresh)
    with pytest.raises(ValueError):
        ps.subset([1, 3, 1])
    for indices in ([0, -5], [-1], [5], [2, 7]):
        with pytest.raises(ValueError, match="out of range"):
            ps.subset(indices)
