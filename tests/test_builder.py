import hashlib
import json
import math
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import planetree
import planetree.builder
from planetree.builder import (
    BASE,
    CASE1,
    CASE2,
    CASE2_1,
    CASE2_2,
    FALLBACK,
    SplitLine,
    build_plane_tree,
    case2_walk,
    find_valid_split,
    merge_side_trees,
)
from planetree.generators import (
    convex_position_points,
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from planetree.graphs import (
    GeometricGraph,
    PlaneTree,
    certify_plane_spanning_tree,
    complete_graph,
    induced_subgraph,
)
from planetree.oracle import ABSENT, FOUND, has_plane_spanning_tree
from planetree.rotation import full_rotation
from planetree.triangles import disconnected_empty_triangles


def test_complete_graph_splits_at_start_line():
    rng = random.Random(8)
    g = complete_graph(random_point_set(8, rng))
    split = find_valid_split(g, disconnected_empty_triangles(g).witnesses)
    assert split is not None
    assert split.case_tag == CASE1
    assert len(split.left_indices & split.right_indices) == 1
    assert split.left_indices | split.right_indices == frozenset(range(8))


def test_find_valid_split_needs_five_points():
    g = complete_graph(convex_position_points(4))
    witnesses = disconnected_empty_triangles(g).witnesses
    with pytest.raises(ValueError):
        find_valid_split(g, witnesses)


def test_path_complement_has_no_split():
    g = path_complement(6).graph
    assert find_valid_split(g, disconnected_empty_triangles(g).witnesses) is None


def test_r_construction_splits_and_builds():
    _, rc = r_construction(7)
    split = find_valid_split(rc.graph, disconnected_empty_triangles(rc.graph).witnesses)
    assert split is not None
    report = build_plane_tree(rc.graph)
    assert report.tree is not None
    assert not report.precondition_violated
    assert not report.theorem_gap_fallback_used


def test_build_complete_random():
    rng = random.Random(19)
    g = complete_graph(random_point_set(8, rng))
    report = build_plane_tree(g)
    assert report.tree is not None
    assert report.flags() == []
    assert len(report.tree.tree_edges) == 7


def test_build_base_cases_are_closed_form_leaves():
    g3 = complete_graph(convex_position_points(3))
    report = build_plane_tree(g3)
    assert report.tree is not None
    assert report.trace == [(3, BASE)]

    g4 = complete_graph(convex_position_points(4))
    report = build_plane_tree(g4)
    assert report.tree is not None
    assert report.trace == [(4, BASE)]


def test_build_path_complement_reports_violation():
    for n in (5, 6):
        g = path_complement(n).graph
        report = build_plane_tree(g)
        assert report.tree is None
        assert report.precondition_violated
        assert not report.theorem_gap_fallback_used



def _oracle_budget(monkeypatch, budget):
    """Make the builder's oracle calls run at `budget` nodes."""
    monkeypatch.setattr(
        planetree.builder,
        "has_plane_spanning_tree",
        partial(has_plane_spanning_tree, budget=budget),
    )


def test_spent_oracle_budget_is_not_reported_as_absence(monkeypatch):
    # The plane path of an r-construction is not in convex position, so
    # its fallback runs the oracle.
    g = r_construction(9)[1].graph
    unbudgeted = build_plane_tree(g).tree
    _oracle_budget(monkeypatch, 10)
    spent = build_plane_tree(r_construction(12)[0].graph)
    assert spent.tree is None
    assert spent.flags() == ["precondition_violated", "oracle_budget_exceeded"]
    assert spent.to_text().endswith('flags=["precondition_violated", "oracle_budget_exceeded"]')
    # Leaves are decided in closed form, so no budget reaches them.
    _oracle_budget(monkeypatch, 1)
    leaves = build_plane_tree(g)
    assert leaves.tree == unbudgeted
    assert isinstance(leaves.tree, PlaneTree)
    assert leaves.flags() == []
    assert leaves.trace[-1] == (4, BASE)
    proven = build_plane_tree(path_complement(8).graph)
    assert proven.tree is None and proven.flags() == ["precondition_violated"]


def test_a_convex_fallback_spends_no_oracle_budget(monkeypatch):
    # Points in convex position fall back to the interval recurrence,
    # which needs no budget, so even a budget of 10 nodes decides.
    _oracle_budget(monkeypatch, 10)
    convex = build_plane_tree(path_complement(12).graph)
    assert convex.tree is None
    assert convex.trace == [(12, FALLBACK)]
    assert convex.flags() == ["precondition_violated"]


def test_the_theorem_path_never_calls_the_oracle(monkeypatch):
    # Inside the theorem every side splits or is a closed-form leaf, so
    # the exhaustive search is reached only by fallbacks.
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran on the theorem path")

    monkeypatch.setattr(planetree.builder, "has_plane_spanning_tree", refuse)
    graphs = [
        random_instance(5 + t % 8, seed=1_000_003 + t, mode="budgeted").graph
        for t in range(160)
    ]
    graphs += [r_construction(n)[1].graph for n in range(6, 30)]
    for g in graphs:
        report = build_plane_tree(g)
        assert isinstance(report.tree, PlaneTree)
        assert report.flags() == []


def test_merge_with_single_shared_vertex():
    rng = random.Random(40)
    g = complete_graph(random_point_set(9, rng))
    split = find_valid_split(g, disconnected_empty_triangles(g).witnesses)
    assert split is not None
    (shared,) = split.left_indices & split.right_indices
    gl = induced_subgraph(g, split.left_indices)
    gr = induced_subgraph(g, split.right_indices)
    # Stars centered on the shared pivot always certify on each side.
    merged = merge_side_trees(split, _star(gl, shared), _star(gr, shared))
    assert len(merged) == g.n - 1
    assert isinstance(certify_plane_spanning_tree(g, merged), PlaneTree)


def _first_event_split(g):
    seq = full_rotation(g.ps)
    for line, part in seq.states():
        if line.kind != "event":
            continue
        return SplitLine(line, part.left, part.right, CASE2)
    raise AssertionError


def _star(side, parent_center):
    """A star tree of `side` centered on `parent_center`, in parent indices."""
    c = side.parent_map.index(parent_center)
    tree = certify_plane_spanning_tree(side, [(c, i) for i in range(side.n) if i != c])
    assert isinstance(tree, PlaneTree)
    return side.to_parent(tree.tree_edges)


def test_merge_two_shared_vertices_dedups_on_line_edge():
    rng = random.Random(41)
    g = complete_graph(random_point_set(6, rng))
    split = _first_event_split(g)
    shared = split.left_indices & split.right_indices
    assert len(shared) == 2
    gl = induced_subgraph(g, split.left_indices)
    gr = induced_subgraph(g, split.right_indices)
    a, b = sorted(shared)
    # Stars rooted at the two shared vertices both contain the on-line
    # edge; the union dedups it and is already a tree.
    left, right = _star(gl, a), _star(gr, b)
    union = left | right
    assert len(union) == g.n - 1
    merged = merge_side_trees(split, left, right)
    assert merged == frozenset(union)
    assert isinstance(certify_plane_spanning_tree(g, merged), PlaneTree)


def test_merge_two_shared_vertices_drops_cycle_edge():
    rng = random.Random(41)
    g = complete_graph(random_point_set(6, rng))
    split = _first_event_split(g)
    gl = induced_subgraph(g, split.left_indices)
    gr = induced_subgraph(g, split.right_indices)
    shared = split.left_indices & split.right_indices
    a, b = sorted(shared)
    # Left star holds the on-line edge; the right star is rooted off the
    # split line, so the union closes one cycle across the two shared
    # vertices and the merge must drop exactly one edge.
    off_line = sorted(split.right_indices - shared)[0]
    left, right = _star(gl, a), _star(gr, off_line)
    union = left | right
    assert len(union) == g.n
    merged = merge_side_trees(split, left, right)
    assert len(merged) == g.n - 1
    assert merged < frozenset(union)
    assert isinstance(certify_plane_spanning_tree(g, merged), PlaneTree)


def test_merge_rejects_foreign_side_trees():
    rng = random.Random(42)
    g = complete_graph(random_point_set(8, rng))
    split = find_valid_split(g, disconnected_empty_triangles(g).witnesses)
    (shared,) = split.left_indices & split.right_indices
    left = _star(induced_subgraph(g, split.left_indices), shared)
    right = _star(induced_subgraph(g, split.right_indices), shared)
    assert len(merge_side_trees(split, left, right)) == g.n - 1
    with pytest.raises(ValueError):
        merge_side_trees(split, right, left)  # each side's edges on the other
    stray = min(split.right_indices - split.left_indices)
    with pytest.raises(ValueError):
        merge_side_trees(split, left | {(shared, stray)}, right)


def test_builder_matches_oracle_on_arbitrary_sparse_graphs():
    # Not restricted to instances satisfying the size condition: when the
    # condition holds a tree must appear, and tree presence must always
    # coincide with oracle existence.
    rng = random.Random(909)
    for trial in range(30):
        n = rng.randint(5, 8)
        ps = random_point_set(n, rng)
        edges = sorted(complete_graph(ps).edges)
        keep = rng.sample(edges, rng.randint(n - 1, len(edges)))
        g = GeometricGraph(ps, frozenset(keep))
        report = build_plane_tree(g)
        oracle = has_plane_spanning_tree(g)
        assert (report.tree is not None) == (oracle.status == FOUND)
        assert not report.theorem_gap_fallback_used
        s = disconnected_empty_triangles(g).count
        if s <= n - 3:
            assert report.tree is not None
            assert not report.precondition_violated
        else:
            assert report.precondition_violated


def test_builder_agrees_with_oracle_on_random_corpus():
    rng = random.Random(600)
    for trial in range(40):
        n = rng.randint(5, 9)
        inst = random_instance(n, seed=rng.randrange(2**30), mode="budgeted")
        report = build_plane_tree(inst.graph)
        assert report.tree is not None
        assert not report.theorem_gap_fallback_used
        assert not report.precondition_violated
        assert has_plane_spanning_tree(inst.graph).status == FOUND


def test_recursion_depth_stays_logarithmic():
    rng = random.Random(77)
    for n in (8, 10, 12):
        g = complete_graph(random_point_set(n, rng))
        report = build_plane_tree(g)
        assert report.tree is not None
        assert report.max_depth <= math.ceil(math.log2(n)) + 3


def test_case2_walk_bookkeeping_law():
    # Scan a deterministic corpus for splits in the both-sides-overloaded
    # configuration; whenever the walk completes, the shifted event line
    # must preserve the left size and grow the right size by one.
    rng = random.Random(500)
    instances = [r_construction(n)[1].graph for n in range(5, 13)]
    for _ in range(60):
        n = rng.randint(5, 10)
        instances.append(random_instance(n, seed=rng.randrange(2**30)).graph)
    walked = 0
    for g in instances:
        seq = full_rotation(g.ps)
        part0 = seq.intermediate_partitions[0]
        s_left = disconnected_empty_triangles(
            induced_subgraph(g, part0.left)
        ).count
        s_right = disconnected_empty_triangles(
            induced_subgraph(g, part0.right)
        ).count
        if s_left <= len(part0.left) - 3 or s_right <= len(part0.right) - 3:
            continue  # not the both-overloaded configuration
        walk = case2_walk(seq, disconnected_empty_triangles(g).witnesses)
        if walk is None:
            continue
        subcase, event_idx, before = walk
        ev = seq.event_partitions[event_idx]
        base = seq.intermediate_partitions[before]
        if subcase == CASE2_1:
            assert len(ev.left) == len(base.left)
            assert len(ev.right) == len(base.right) + 1
        else:
            assert subcase == CASE2_2
            assert len(ev.right) == len(base.right)
            assert len(ev.left) == len(base.left) + 1
        walked += 1
    # The corpus is fixed and known to contain at least one instance in
    # this configuration, so the law above really ran.
    assert walked >= 1


def test_every_returned_tree_is_certified():
    rng = random.Random(321)
    for trial in range(25):
        n = rng.randint(5, 11)
        inst = random_instance(n, seed=trial, mode="budgeted")
        report = build_plane_tree(inst.graph)
        assert report.tree is not None
        verdict = certify_plane_spanning_tree(inst.graph, report.tree.tree_edges)
        assert isinstance(verdict, PlaneTree)


def test_a_build_is_certified_once_at_the_root(monkeypatch):
    certified = []
    certify = planetree.builder.certify_plane_spanning_tree

    def counting(g, edges):
        certified.append(g)
        return certify(g, edges)

    monkeypatch.setattr(planetree.builder, "certify_plane_spanning_tree", counting)
    graphs = [random_instance(n, seed=n).graph for n in range(5, 30, 4)]
    graphs += [r_construction(n)[1].graph for n in (9, 16)]
    for g in graphs:
        certified.clear()
        report = build_plane_tree(g)
        assert report.tree is not None and report.max_depth >= 2
        assert len(certified) == 1 and certified[0] is g
    certified.clear()
    assert build_plane_tree(path_complement(8).graph).tree is None
    assert certified == []


# sha256 of the concatenated build reports (trees, traces with case tags,
# flags) of a fixed corpus: budgeted instances n=5..12, r-constructions
# n=6..29 and path complements n=5..11.
GOLDEN_BUILDS = "23829a371cfa2b14755d7f9b44e470c3295fdc896d8d8a4675f91444ae9371e2"
# sha256 of the JSON list of each build's max_depth over the same corpus,
# which `to_text` leaves out.
GOLDEN_DEPTHS = "4e27311a7a2d1b0c330056ac59c15745788fd39775c93a3f07845aff03637e0e"


def test_build_reports_are_byte_stable():
    graphs = [
        random_instance(5 + t % 8, seed=1_000_003 + t, mode="budgeted").graph
        for t in range(800)
    ]
    graphs += [r_construction(n)[1].graph for n in range(6, 30)]
    graphs += [path_complement(n).graph for n in range(5, 12)]
    reports = [build_plane_tree(g) for g in graphs]
    text = "".join(report.to_text() for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_BUILDS
    depths = json.dumps([report.max_depth for report in reports])
    assert hashlib.sha256(depths.encode()).hexdigest() == GOLDEN_DEPTHS


SOUNDNESS_UNDER_O = """
import planetree.builder as builder
from planetree.generators import convex_position_points
from planetree.graphs import complete_graph

print(__debug__)


def run(label, n):
    try:
        builder.build_plane_tree(complete_graph(convex_position_points(n)))
    except AssertionError as err:
        print(label, err)
    else:
        print(label, "returned")


leaf_edges, merge = builder._leaf_edges, builder.merge_side_trees
builder._leaf_edges = lambda g, side: frozenset()  # never a spanning tree
for n in (4, 8):
    run(n, n)
builder._leaf_edges = leaf_edges
# A merge that loses one edge of every joined tree.
builder.merge_side_trees = lambda *args: frozenset(sorted(merge(*args))[1:])
run("lossy-merge", 8)
"""


def test_uncertifiable_edges_raise_under_python_O():
    # Levels below the root certify nothing, so every bad tree, whether
    # from a leaf or from a merge, is caught by the root gate.
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", SOUNDNESS_UNDER_O],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == "False"
    assert out[1] == "4 unsound build: wrong-count"
    assert out[2] == "8 unsound build: wrong-count"
    assert out[3] == "lossy-merge unsound build: wrong-count"

