"""Leaves in closed form: `builder._leaf_edges` against the oracle.

A side of 3 or 4 points is decided without an induced graph and without
the oracle.  Its tree must be the one the oracle finds on the induced
graph, mapped back to the parent's indices, and its absence must be the
oracle's.  Four points in general position have two order types, a
convex quadrilateral and a triangle with an interior point; both are
checked with every edge subset, every labelling and every exact map of
the plane that the metamorphic tests use.
"""

from itertools import combinations, permutations

from hypothesis import assume, given, strategies as st
from test_metamorphic import MAPS

from planetree.builder import _leaf_edges
from planetree.geometry import COORD_LIMIT, GeneralPositionError, Point, PointSet
from planetree.graphs import GeometricGraph, induced_subgraph
from planetree.oracle import FOUND, has_plane_spanning_tree

TRIANGLE = ((0, 0), (10, 1), (2, 9))
CONVEX = ((0, 0), (10, 1), (11, 12), (1, 9))
INTERIOR = ((0, 0), (20, 1), (3, 17), (7, 6))
# Two far points the side shares its parent with, at slots 0 and 3, so
# the side's parent indices are neither contiguous nor from 0.
PADDING = ((-1000, 3), (997, -1013))


def _oracle_leaf(g, side):
    """The oracle's tree of the graph induced on side, in g's indices."""
    sub = induced_subgraph(g, side)
    result = has_plane_spanning_tree(sub)
    if result.status != FOUND:
        return None
    return frozenset(sub.to_parent(result.tree_edges))


def _maps():
    yield "identity", lambda x, y: (x, y)
    yield from sorted(MAPS.items())
    yield "corner", lambda x, y: (x + COORD_LIMIT - 2000, y - COORD_LIMIT + 2000)


def test_the_leaf_is_the_oracles_tree_on_every_small_graph():
    checked = found = 0
    for coords in (TRIANGLE, CONVEX, INTERIOR):
        for _, f in _maps():
            for labelled in permutations(coords):
                points = [PADDING[0], *labelled[:2], PADDING[1], *labelled[2:]]
                ps = PointSet(tuple(Point(*f(x, y)) for x, y in points))
                side = [i for i in range(len(ps)) if i not in (0, 3)]
                pairs = list(combinations(side, 2))
                padding_edges = [e for e in combinations(range(len(ps)), 2) if 0 in e or 3 in e]
                for mask in range(1 << len(pairs)):
                    chosen = [e for b, e in enumerate(pairs) if mask >> b & 1]
                    g = GeometricGraph(ps, chosen + padding_edges)
                    expected = _oracle_leaf(g, side)
                    assert _leaf_edges(g, side) == expected, (coords, points, chosen)
                    checked += 1
                    found += expected is not None
    assert checked == 5 * (6 * 8 + 2 * 24 * 64)  # 3,120 labelled graphs per map
    assert 0 < found < checked


near_limit = st.integers(COORD_LIMIT - 2**12, COORD_LIMIT)


@given(
    st.lists(st.tuples(near_limit, near_limit), min_size=4, max_size=4),
    st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    st.integers(0, 63),
    st.sampled_from([(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
)
def test_the_leaf_is_the_oracles_tree_near_the_coordinate_limit(coords, signs, mask, side):
    sx, sy = signs
    try:
        ps = PointSet(tuple(Point(sx * x, sy * y) for x, y in coords))
    except GeneralPositionError:
        assume(False)
    pairs = list(combinations(range(4), 2))
    g = GeometricGraph(ps, [e for b, e in enumerate(pairs) if mask >> b & 1])
    assert _leaf_edges(g, side) == _oracle_leaf(g, side)
