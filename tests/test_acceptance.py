"""End-to-end acceptance campaign.

One test per criterion, in order; each prints a single summary line, so
`pytest -s tests/test_acceptance.py` shows the per-criterion verdicts.
All expectations are exact; there are no tolerances to tune.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

from _diagnostics import (
    line_crosses_triangle,
    relative_equals_global_empty,
    triangle_crossing_witness,
)

import planetree
from planetree.builder import build_plane_tree
from planetree.generators import (
    path_complement,
    r_construction,
    random_instance,
    random_point_set,
)
from planetree.graphs import PlaneTree, certify_plane_spanning_tree, complete_graph
from planetree.oracle import ABSENT, FOUND, has_plane_spanning_tree
from planetree.rotation import full_rotation
from planetree.triangles import disconnected_empty_triangles, enumerate_empty_triangles


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL")
        raise
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_tightness_family():
    with criterion(1, "tightness family"):
        for n in range(5, 13):
            g = path_complement(n).graph
            assert disconnected_empty_triangles(g).count == n - 2
            if n <= 10:
                assert has_plane_spanning_tree(g).status == ABSENT


def test_criterion_2_boundary_family():
    with criterion(2, "boundary family"):
        for n in range(5, 13):
            _, rc = r_construction(n)
            assert disconnected_empty_triangles(rc.graph).count == n - 3
            report = build_plane_tree(rc.graph)
            assert report.tree is not None
            assert not report.theorem_gap_fallback_used
            assert not report.precondition_violated
            verdict = certify_plane_spanning_tree(rc.graph, report.tree.tree_edges)
            assert isinstance(verdict, PlaneTree)


def test_criterion_3_theorem_campaign():
    with criterion(3, "theorem campaign"):
        for trial in range(1000):
            n = 5 + trial % 8
            inst = random_instance(n, seed=0xC0FFEE + trial, mode="budgeted")
            g = inst.graph
            assert disconnected_empty_triangles(g).count <= n - 3
            report = build_plane_tree(g)
            assert report.tree is not None, (trial, n)
            assert not report.theorem_gap_fallback_used, (trial, n)
            assert not report.precondition_violated, (trial, n)
            verdict = certify_plane_spanning_tree(g, report.tree.tree_edges)
            assert isinstance(verdict, PlaneTree), (trial, n)
            if n <= 9:
                assert has_plane_spanning_tree(g).status == FOUND, (trial, n)


def test_criterion_4_rotation_invariants():
    with criterion(4, "rotation invariants"):
        rng = random.Random(20260810)
        for trial in range(200):
            n = rng.randint(3, 30)
            ps = random_point_set(n, rng)
            seq = full_rotation(ps)
            k = (n + 2) // 2  # ceil((n+1)/2)
            assert seq.pivots[0] == seq.pivots[-1]
            assert seq.pivots == (seq.intermediates[0].pivot,) + tuple(
                e.partner for e in seq.events
            )
            count = len(seq.events)
            for idx in range(count):
                part = seq.intermediate_partitions[idx]
                assert len(part.left) == k
                assert len(part.right) == n + 1 - k
            for idx in range(count):
                cur = seq.intermediate_partitions[idx]
                nxt = seq.intermediate_partitions[(idx + 1) % count]
                ev = seq.event_partitions[idx]
                v_old = seq.intermediates[idx].pivot
                v_new = seq.events[idx].partner
                swap_left = nxt.right == cur.right and nxt.left == (
                    cur.left - {v_old}
                ) | {v_new}
                swap_right = nxt.left == cur.left and nxt.right == (
                    cur.right - {v_old}
                ) | {v_new}
                assert swap_left != swap_right
                if v_new in cur.right:
                    assert ev.left == cur.left | {v_new} and ev.right == cur.right
                else:
                    assert ev.right == cur.right | {v_new} and ev.left == cur.left


def test_criterion_5_crossing_witness_property():
    with criterion(5, "sweep triangle-crossing witness"):
        rng = random.Random(5150)
        verified = 0
        guard = 0
        while verified < 100:
            guard += 1
            assert guard < 5000, "sampling never satisfied the precondition"
            n = rng.randint(6, 14)
            ps = random_point_set(n, rng)
            seq = full_rotation(ps)
            count = len(seq.intermediates)
            if count < 4:
                continue
            i = rng.randrange(0, count - 2)
            j = rng.randrange(i + 2, count)
            region = (
                seq.intermediate_partitions[i].right
                & seq.intermediate_partitions[j].left
            )
            if len(region) < 3:
                continue
            tri = tuple(sorted(rng.sample(sorted(region), 3)))
            k, l = triangle_crossing_witness(ps, seq, i, j, tri)
            assert i <= k < l < j
            assert seq.intermediates[k].pivot in tri
            assert set(tri) <= seq.intermediate_partitions[k].right
            assert set(tri) <= seq.intermediate_partitions[j].left
            assert line_crosses_triangle(seq.intermediates[l], tri, ps)
            verified += 1


def _cross2(a, b, c):
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _brute_empty(ps):
    n = len(ps)
    out = []
    for i, j, k in combinations(range(n), 3):
        a, b, c = ps[i], ps[j], ps[k]
        total = abs(_cross2(a, b, c))
        if all(
            abs(_cross2(a, b, ps[t]))
            + abs(_cross2(b, c, ps[t]))
            + abs(_cross2(c, a, ps[t]))
            != total
            for t in range(n)
            if t not in (i, j, k)
        ):
            out.append((i, j, k))
    return out


def test_criterion_6_enumeration_equivalence():
    with criterion(6, "enumeration oracle equivalence"):
        rng = random.Random(606)
        for trial in range(100):
            n = rng.randint(3, 12)
            ps = random_point_set(n, rng)
            assert enumerate_empty_triangles(ps) == _brute_empty(ps)
            seq = full_rotation(ps)
            for part in seq.intermediate_partitions:
                assert relative_equals_global_empty(ps, part.left)
                assert relative_equals_global_empty(ps, part.right)
            for part in seq.event_partitions:
                assert relative_equals_global_empty(ps, part.left)
                assert relative_equals_global_empty(ps, part.right)


def test_criterion_7_builder_soundness():
    with criterion(7, "builder soundness"):
        rng = random.Random(707)
        produced = 0
        for trial in range(120):
            n = rng.randint(5, 12)
            mode = "complete" if trial % 3 == 0 else "budgeted"
            inst = random_instance(n, seed=rng.randrange(2**31), mode=mode)
            report = build_plane_tree(inst.graph)
            assert report.tree is not None
            verdict = certify_plane_spanning_tree(
                inst.graph, report.tree.tree_edges
            )
            assert isinstance(verdict, PlaneTree)
            produced += 1
        for n in range(5, 13):
            _, rc = r_construction(n)
            report = build_plane_tree(rc.graph)
            assert report.tree is not None
            assert isinstance(
                certify_plane_spanning_tree(rc.graph, report.tree.tree_edges),
                PlaneTree,
            )
            produced += 1
        assert produced == 128


ACCEPTANCE_CORE = """
import planetree.builder as builder
import planetree.rotation as rotation
from planetree.builder import build_plane_tree
from planetree.generators import r_construction, random_instance
from planetree.geometry import Point, PointSet
from planetree.graphs import PlaneTree, certify_plane_spanning_tree

print(__debug__)
for g in (r_construction(15)[1].graph, random_instance(24, seed=5).graph):
    report = build_plane_tree(g)
    verdict = certify_plane_spanning_tree(g, report.tree.tree_edges)
    print(g.n, report.flags(), isinstance(verdict, PlaneTree), report.trace)


def first_error(run):
    try:
        run()
    except AssertionError as err:
        return str(err)
    return "no error"


# Three collinear points, past the validation a PointSet makes.
collinear = object.__new__(PointSet)
coords = [(0, 0), (2, 0), (4, 0), (1, 3), (3, -2)]
object.__setattr__(collinear, "points", tuple(Point(x, y) for x, y in coords))
print(first_error(lambda: list(rotation.sweep_states(collinear))))

# Swap the sides of sweep state `at` only, where `at` is the root's
# winner: the start line, an intermediate line and an event line.  The
# winner's recheck must raise before the build splits on it.
honest = builder.sweep_states


def swapping(at):
    def sweep_states(ps):
        for index, (line, part) in enumerate(honest(ps)):
            if index == at:
                part = rotation.SidePartition(part.right, part.left)
            yield line, part

    return sweep_states


for g, at in (
    (r_construction(5)[1].graph, 0),
    (random_instance(9, seed=1).graph, 4),
    (r_construction(9)[1].graph, 7),
):
    builder.sweep_states = swapping(at)
    print(first_error(lambda: build_plane_tree(g)))
"""


def test_acceptance_core_runs_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(Path(planetree.__file__).parents[1])}
    plain, optimised = (
        subprocess.run(
            [sys.executable, *flags, "-c", ACCEPTANCE_CORE],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for flags in ((), ("-O",))
    )
    assert plain[0] == "True" and optimised[0] == "False"
    assert optimised[1:] == plain[1:]
    for line, n in zip(optimised[1:3], (15, 24)):
        assert line.startswith(f"{n} [] True [({n}, '")
    assert optimised[3:] == [
        "off-line point aligned with sweep state",
        "derived sides differ from the winning line's",
        "derived sides differ from the winning line's",
        "derived sides differ from the winning line's",
    ]
