"""Inputs below each entry point's minimum are refused with ValueError."""

import random

import pytest

from planetree.builder import build_plane_tree
from planetree.generators import convex_position_points, random_instance, random_point_set
from planetree.geometry import PointSet
from planetree.graphs import GeometricGraph, canonical_edge, complete_graph, induced_subgraph
from planetree.rotation import initial_halving_line

TWO_POINTS = PointSet.from_coords([(0, 0), (1, 2)])
ROOT = complete_graph(convex_position_points(5))

REFUSALS = {
    "build_plane_tree": (
        lambda: build_plane_tree(GeometricGraph(TWO_POINTS, [(0, 1)])),
        "need at least 3 points",
    ),
    "random_instance": (lambda: random_instance(2, 0), "need at least 3 points"),
    "random_point_set": (
        lambda: random_point_set(0, random.Random(0)),
        "need at least 1 point",
    ),
    "convex_position_points": (lambda: convex_position_points(2), "need at least 3 points"),
    "initial_halving_line": (lambda: initial_halving_line(TWO_POINTS), "need at least 3 points"),
    "induced_subgraph": (lambda: induced_subgraph(ROOT, []), "at least one index"),
    "to_parent": (lambda: ROOT.to_parent([(0, 1)]), "no parent mapping"),
    "canonical_edge": (lambda: canonical_edge(3, 3), "self-loop at index 3"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_out_of_range_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
