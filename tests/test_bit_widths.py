"""Sweep sides and empty triangles at the coordinate bound, recomputed
with `fractions.Fraction`.

Near the corners of the ±2**30 box the sweep's cross products and the
below-segment counts of `triangles._below_tables` work on the widest
integers the package meets, and the slope-tie sets hold pairs whose
float slopes from a corner are equal.  The reference here forms no
integer cross product: a point's side of a line is the sign of its
height above the line's equation y = y0 + slope (x - x0), with the slope
a Fraction, or of its offset from x = x0 when the line is vertical.
"""

from fractions import Fraction
from itertools import combinations

from _diagnostics import slope_tie_point_sets
from hypothesis import assume, given, strategies as st

from planetree.geometry import COORD_LIMIT, GeneralPositionError, Point, PointSet
from planetree.rotation import full_rotation
from planetree.triangles import enumerate_empty_triangles


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sides(a: Point, d: tuple[int, int], points) -> list[int]:
    """1, -1 or 0 for each point left of, right of or on the line
    through a with direction d."""
    dx, dy = d
    if dx == 0:
        return [_sign(a.x - q.x) * _sign(dy) for q in points]
    slope = Fraction(dy, dx)
    return [_sign(q.y - a.y - slope * (q.x - a.x)) * _sign(dx) for q in points]


def _fraction_empty_triangles(ps: PointSet) -> list[tuple[int, int, int]]:
    pts = ps.points
    side = {
        (u, v): _sides(pts[u], (pts[v].x - pts[u].x, pts[v].y - pts[u].y), pts)
        for u, v in combinations(range(len(pts)), 2)
    }

    def inside(q, a, b, c):
        # A vertex lies on two of the lines, so it is never inside.
        return (
            side[a, b][q] == side[a, b][c]
            and side[b, c][q] == side[b, c][a]
            and side[a, c][q] == side[a, c][b]
        )

    return [
        t
        for t in combinations(range(len(pts)), 3)
        if not any(inside(q, *t) for q in range(len(pts)))
    ]


def _check_against_fractions(ps: PointSet) -> None:
    states = 0
    for line, part in full_rotation(ps).states():
        sides = _sides(ps[line.pivot], line.direction, ps.points)
        assert {i for i, s in enumerate(sides) if s == 0} == set(line.on_line())
        assert part.left == {i for i, s in enumerate(sides) if s >= 0}
        assert part.right == {i for i, s in enumerate(sides) if s <= 0}
        states += 1
    assert states >= 2 * len(ps)  # every point is a pivot at least once
    assert enumerate_empty_triangles(ps) == _fraction_empty_triangles(ps)


def _tie_sets():
    """Each slope-tie set as its corner and its tied pairs.  A pair
    corner + (k, sy (k - r)), k = m, m + 1, shares r = dx - sy dy."""
    for sy in (1, -1):
        corner = Point(-COORD_LIMIT, -sy * COORD_LIMIT)
        for ps in slope_tie_point_sets(sy):
            pairs = {}
            for p in ps.points:
                if p != corner:
                    r = (p.x - corner.x) - sy * (p.y - corner.y)
                    pairs.setdefault(r, []).append(p)
            yield corner, [tuple(pair) for pair in pairs.values()]


TIE_SETS = list(_tie_sets())

near_corner = st.tuples(
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
    st.integers(0, 2**12),
    st.integers(0, 2**12),
).map(lambda c: Point(c[0] * (COORD_LIMIT - c[2]), c[1] * (COORD_LIMIT - c[3])))


@given(st.lists(near_corner, min_size=3, max_size=9, unique=True))
def test_sides_and_empty_triangles_near_the_box_corners(points):
    try:
        ps = PointSet(tuple(points))
    except GeneralPositionError:
        assume(False)
    _check_against_fractions(ps)


@given(st.sampled_from(TIE_SETS), st.data())
def test_sides_and_empty_triangles_on_slope_ties(tie_set, data):
    corner, pairs = tie_set
    assert len(pairs) >= 19 and all(len(pair) == 2 for pair in pairs)
    chosen = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)
    )
    _check_against_fractions(PointSet((corner, *(p for pair in chosen for p in pair))))
