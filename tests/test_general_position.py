"""The O(n^2) general-position check and the sampler against the seed's.

`in_general_position` compares gcd-reduced, sign-normalised direction
keys, and `random_point_set` uses the same keys to test each candidate.
The references below are the original O(n^3) `combinations` + `orient`
check and the sampler built on it, which share no code with the keys.
"""

import random
from itertools import combinations, permutations

import pytest

from planetree.generators import GenerationError, random_point_set
from planetree.geometry import (
    COORD_LIMIT,
    GeneralPositionError,
    Point,
    PointSet,
    _degeneracy,
    in_general_position,
    orient,
)


def reference_in_general_position(points):
    pts = list(points)
    if len(set(pts)) != len(pts):
        return False
    return all(orient(a, b, c) != 0 for a, b, c in combinations(pts, 3))


def reference_random_point_set(n, rng, box):
    pts = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 1000 * n + 1000:
            raise GenerationError("rejection sampling budget exhausted")
        cand = Point(rng.randint(-box, box), rng.randint(-box, box))
        if any(cand == p for p in pts):
            continue
        if any(orient(p, q, cand) == 0 for p, q in combinations(pts, 2)):
            continue
        pts.append(cand)
    return PointSet(tuple(pts))


def _fibonacci_pairs(limit):
    """Consecutive Fibonacci numbers: F(k) F(k+2) - F(k+1)^2 = +-1."""
    a, b = 1, 1
    while b <= limit:
        yield a, b
        a, b = b, a + b


def _point_lists():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(0, 12)
        yield [Point(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)) for _ in range(n)]
    # Small grids, sampled with replacement: duplicates, shared x and y,
    # and collinear triples in many directions.
    for box in (3, 5):
        for n in range(3, 9):
            for _ in range(12):
                yield [Point(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(n)]
    # Vertical, horizontal and non-primitive collinear triples in every
    # order, so the middle point is seen first, second or last.
    for line in (
        [(0, 0), (0, 5), (0, -3)],
        [(4, 2), (-7, 2), (1, 2)],
        [(0, 0), (2, 4), (3, 6)],
        [(-6, 9), (2, -3), (-2, 3)],
    ):
        for perm in permutations(line):
            yield [Point(7, 1)] + [Point(*xy) for xy in perm]
    # Duplicates, next to each other and apart.
    yield [Point(1, 2), Point(1, 2)]
    yield [Point(0, 0), Point(5, 1), Point(2, 7), Point(5, 1)]
    # Coordinates at the limit: the box corners, their diagonals and
    # midpoints, and random points.
    c = COORD_LIMIT
    corners = [Point(sx * c, sy * c) for sx in (-1, 1) for sy in (-1, 1)]
    yield corners
    yield corners + [Point(0, 0)]
    yield corners + [Point(0, c)]
    yield corners + [Point(1, c - 1)]
    for _ in range(8):
        pts = corners + [Point(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(4)]
        rng.shuffle(pts)
        yield pts


def test_general_position_matches_the_reference():
    verdicts = {True: 0, False: 0}
    for pts in _point_lists():
        expected = reference_in_general_position(pts)
        assert in_general_position(pts) == expected, pts
        witness = _degeneracy(pts)
        assert (witness is None) == expected
        if witness is not None:
            assert list(witness) == sorted(set(witness))
            if len(witness) == 2:
                i, j = witness
                assert pts[i] == pts[j]
            else:
                i, j, k = witness
                assert len({pts[i], pts[j], pts[k]}) == 3
                assert orient(pts[i], pts[j], pts[k]) == 0
        verdicts[expected] += 1
    assert min(verdicts.values()) > 80


def test_near_collinear_triples_are_in_general_position():
    # Cross products of exactly +-1 up to 2**30, with the third point on
    # either side of the first: nearly equal and nearly opposite keys.
    checked = 0
    for a, b in _fibonacci_pairs(COORD_LIMIT):
        o, p, q = Point(0, 0), Point(a, b), Point(b, a + b)
        assert abs(orient(o, p, q)) == 1
        for pts in ([o, p, q], [q, o, Point(-a, -b)], [p, q, o]):
            assert in_general_position(pts)
        checked += 1
    assert checked > 40


@pytest.mark.parametrize(
    "box, sizes, seeds",
    [
        (1, (2, 4, 6), range(2)),
        (3, (5, 9, 12), range(1)),
        (4, (6, 11), range(2)),
        (5, (8, 16), range(2)),
    ],
)
def test_sampler_matches_the_reference_on_tiny_boxes(box, sizes, seeds):
    errors = 0
    for seed in seeds:
        for n in sizes:
            outcomes = []
            for sample in (random_point_set, reference_random_point_set):
                rng = random.Random(seed)
                try:
                    result = sample(n, rng, box=box).points
                except GenerationError as err:
                    result = str(err)
                outcomes.append((result, rng.getstate()))
            assert outcomes[0] == outcomes[1]
            errors += isinstance(outcomes[0][0], str)
    if box in (1, 3):
        assert errors > 0


@pytest.mark.parametrize(
    "coords, detail",
    [
        ([(0, 0), (3, 1), (1, 4), (3, 1)], "points 1 and 3 coincide"),
        ([(5, 4), (0, 0), (2, 4), (1, 1), (3, 6)], "points 1, 2 and 4 are collinear"),
        ([(1, 1), (0, 0), (2, 2)], "points 0, 1 and 2 are collinear"),
    ],
)
def test_general_position_error_names_the_points(coords, detail):
    with pytest.raises(GeneralPositionError) as err:
        PointSet.from_coords(coords)
    assert str(err.value) == (
        f"point set must be duplicate-free with no collinear triple: {detail}"
    )
