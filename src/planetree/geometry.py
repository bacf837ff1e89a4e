"""Exact integer predicates over planar point sets.

Every geometric decision in this package reduces to the sign of an
integer cross product or to an exact integer direction key.  Floats
appear in one place only: a slope key that pre-orders the angular sort
in `triangles`, where every order decision is then confirmed by an exact
integer cross sign (see `COORD_LIMIT`).  Coordinates are bounded
once, at PointSet construction; after that every predicate is exact by
construction.  General position is checked in O(n^2): each point must
see every earlier point in a distinct, nonzero direction, compared as
gcd-reduced, sign-normalised integer vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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
# wider type.  The angular sort in `triangles` compares two differences
# from one point by an orientation determinant, within 2**62, and the
# general-position keys are gcd-reduced differences, within 2**31 per
# component.  Python ints never overflow, but the bound keeps instance
# files portable.
#
# The angular sort keys each difference (dx, dy) by the float dy / dx.
# Both components are integers within 2**31 < 2**53, so they are exact
# doubles, and int / int is correctly rounded.  Rounding is monotone, so
# an exact s1 < s2 gives fl(s1) <= fl(s2): the float order can only be
# wrong inside a run of equal keys, and an insertion pass by the exact
# cross sign orders those runs.
COORD_LIMIT = 2**30

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def is_integer(value: object) -> bool:
    """True for an exact int: what a coordinate or an index must be.

    A bool (an int subclass), a float or a string is refused, never
    converted: a truncated coordinate would be a different point set.
    """
    return type(value) is int


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
    """True iff all points are distinct and no three are collinear.

    O(n^2) exact integer work: see `_degeneracy`.
    """
    return _degeneracy(list(points)) is None


def _degeneracy(pts: Sequence[Point]) -> tuple[int, ...] | None:
    """Indices of a duplicate pair or a collinear triple of pts, or None.

    Point k is checked against the earlier points only, as the sampler
    checks a candidate against the points kept so far: a duplicate pair
    j < k and a collinear triple i < j < k are both caught at k, before
    any later point could see the pair as one direction.  The witness is
    (j, k) for pts[j] == pts[k] and (i, j, k) for a collinear triple.
    """
    for k in range(1, len(pts)):
        clash = _direction_clash(pts[k], pts[:k])
        if clash:
            return (*clash, k)
    return None


def _direction_clash(p: Point, others: Sequence[Point]) -> tuple[int, ...]:
    """Where p fails to see `others` in pairwise distinct, nonzero directions.

    Returns () when it does not fail, (j,) when others[j] == p, and
    (j, k) with j < k when p, others[j] and others[k] are collinear.  Each
    direction is reduced by its gcd and its sign normalised so that the
    first nonzero component is positive, so two points lie on one line
    through p exactly when their keys are equal.
    """
    px, py = p.x, p.y
    seen: dict[tuple[int, int], int] = {}
    for j, q in enumerate(others):
        dx, dy = q.x - px, q.y - py
        g = gcd(dx, dy)
        if g == 0:
            return (j,)
        if dx < 0 or (dx == 0 and dy < 0):
            g = -g
        key = (dx // g, dy // g)
        if key in seen:
            return (seen[key], j)
        seen[key] = j
    return ()


@dataclass(frozen=True)
class PointSet:
    """Immutable indexed point set in general position.

    `points`, any iterable of Points, is stored as a tuple.  Validation
    happens here, once: each entry a Point with int coordinates within
    the bound (a ValueError names the first bad one by index), and
    general position in O(n^2) (`in_general_position`), where a
    GeneralPositionError names the offending points.  `subset` skips it,
    because a subset of a validated set needs none.  All downstream predicates may then assume
    exactness and non-degeneracy.
    """

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        for i, p in enumerate(self.points):
            if not isinstance(p, Point):
                raise ValueError(f"point {i} is not a Point: {p!r}")
            if not (is_integer(p.x) and is_integer(p.y)):
                raise ValueError(f"point {i} = ({p.x!r}, {p.y!r}) has a non-integer coordinate")
            if abs(p.x) > COORD_LIMIT or abs(p.y) > COORD_LIMIT:
                raise ValueError(
                    f"point {i} = ({p.x}, {p.y}) exceeds coordinate limit {COORD_LIMIT}"
                )
        witness = _degeneracy(self.points)
        if witness is not None:
            if len(witness) == 2:
                detail = "points {} and {} coincide".format(*witness)
            else:
                detail = "points {}, {} and {} are collinear".format(*witness)
            raise GeneralPositionError(
                f"point set must be duplicate-free with no collinear triple: {detail}"
            )

    @classmethod
    def from_coords(cls, coords: Iterable[Sequence[int]]) -> "PointSet":
        return cls(tuple(Point(x, y) for x, y in coords))

    def subset(self, indices: Sequence[int]) -> "PointSet":
        """The points at the distinct `indices`, in that order.

        Not validated again: distinct points of a validated set are within
        the coordinate bound and in general position.  So the indices are
        checked instead: in range (no negative alias) and distinct.
        """
        n = len(self.points)
        for i in indices:
            if not (0 <= i < n):
                raise ValueError(f"index {i} out of range for {n} points")
        if len(set(indices)) != len(indices):
            raise ValueError("subset indices must be distinct")
        sub = object.__new__(PointSet)
        object.__setattr__(sub, "points", tuple(self.points[i] for i in indices))
        return sub

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]


def hull_order(ps: PointSet) -> tuple[int, ...]:
    """Indices of the convex hull vertices of ps, counter-clockwise.

    Andrew's monotone chain, from the lowest point in (x, y) order.  Only
    strict turns are kept, which is safe because a PointSet has no
    collinear triple.  With at most two points, every point is a vertex.
    """
    pts = ps.points
    order = sorted(range(len(pts)), key=pts.__getitem__)
    if len(order) <= 2:
        return tuple(order)

    def half(seq: Iterable[int]) -> list[int]:
        chain: list[int] = []
        for k in seq:
            while len(chain) >= 2 and orient(pts[chain[-2]], pts[chain[-1]], pts[k]) <= 0:
                chain.pop()
            chain.append(k)
        return chain

    lower = half(order)
    upper = half(reversed(order))
    return tuple(lower[:-1] + upper[:-1])
