"""Exact integer predicates over planar point sets.

Every geometric decision in this package reduces to the sign of an
integer cross product, so there is no floating point anywhere on a
decision path.  Coordinates are bounded once, at PointSet construction;
after that every predicate is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

# Coordinates up to 2**30 keep every orientation determinant (twice a
# triangle's area in a box of side 2**31) and each of its two products
# within 2**62 in magnitude; the strip cross products in `triangles` are
# such determinants too.  All of them fit a signed 64-bit integer.  The
# sweep's event directions are point differences, within 2**31 per
# component, and its intermediate directions (`rotation._add`) sum two
# events through the same pivot, within 2**32.  A cross product of an
# intermediate direction with a difference from its pivot is thus a sum
# of two orientation determinants: within 2**63, which the four box
# corners reach exactly, one past the signed 64-bit range, so it needs a
# wider type.  Python ints never overflow, but the bound keeps instance
# files portable.
COORD_LIMIT = 2**30

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


class GeneralPositionError(ValueError):
    """A point collection has a duplicate point or a collinear triple."""


@dataclass(frozen=True, order=True)
class Point:
    """Planar point with integer coordinates."""

    x: int
    y: int


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a -> b -> c.

    Returns +1 when c lies strictly left of the directed line a -> b,
    -1 when strictly right and 0 when the three points are collinear.
    The value is the sign of the integer cross product, computed exactly.
    """
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def segments_properly_cross(p: Point, q: Point, r: Point, s: Point) -> bool:
    """True iff the open segments pq and rs cross in a single interior point.

    Shared endpoints, touching configurations and collinear overlaps do
    not count: both segments must be strictly straddled by the other.
    """
    o1 = orient(p, q, r)
    o2 = orient(p, q, s)
    if o1 * o2 >= 0:
        return False
    o3 = orient(r, s, p)
    o4 = orient(r, s, q)
    return o3 * o4 < 0


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> str:
    """Classify p against triangle abc as INTERIOR, BOUNDARY or OUTSIDE.

    Raises ValueError for a degenerate (collinear) triangle.  The result
    does not depend on the order in which a, b, c are given.
    """
    o = orient(a, b, c)
    if o == 0:
        raise ValueError("degenerate triangle: vertices are collinear")
    if o < 0:
        b, c = c, b
    s1 = orient(a, b, p)
    s2 = orient(b, c, p)
    s3 = orient(c, a, p)
    if s1 > 0 and s2 > 0 and s3 > 0:
        return INTERIOR
    if s1 >= 0 and s2 >= 0 and s3 >= 0:
        return BOUNDARY
    return OUTSIDE


def in_general_position(points: Iterable[Point]) -> bool:
    """True iff all points are distinct and no three are collinear."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        return False
    for a, b, c in combinations(pts, 3):
        if orient(a, b, c) == 0:
            return False
    return True


@dataclass(frozen=True)
class PointSet:
    """Immutable indexed point set in general position.

    Validation happens here, once: coordinate bound and general position.
    All downstream predicates may then assume exactness and
    non-degeneracy.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.points):
            if abs(p.x) > COORD_LIMIT or abs(p.y) > COORD_LIMIT:
                raise ValueError(
                    f"point {i} = ({p.x}, {p.y}) exceeds coordinate limit {COORD_LIMIT}"
                )
        if not in_general_position(self.points):
            raise GeneralPositionError(
                "point set must be duplicate-free with no collinear triple"
            )

    @classmethod
    def from_coords(cls, coords: Iterable[Sequence[int]]) -> "PointSet":
        return cls(tuple(Point(int(x), int(y)) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]


def in_convex_position(ps: PointSet) -> bool:
    """True iff every point of ps is a vertex of the convex hull of ps."""
    pts = sorted(ps.points)
    if len(pts) <= 2:
        return True
    return len(_hull(pts)) == len(pts)


def _hull(sorted_pts: list[Point]) -> list[Point]:
    # Andrew monotone chain; strict turns only, which is safe because the
    # host PointSet forbids collinear triples.
    def half(seq: Iterable[Point]) -> list[Point]:
        chain: list[Point] = []
        for p in seq:
            while len(chain) >= 2 and orient(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(sorted_pts)
    upper = half(reversed(sorted_pts))
    return lower[:-1] + upper[:-1]
