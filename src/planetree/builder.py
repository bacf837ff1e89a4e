"""Recursive plane-spanning-tree construction via balanced sweep splits.

The strategy: take the rotating sweep's states lazily, in order, and
stop at the first line both of whose closed sides satisfy the inductive
size condition (disconnected empty triangles <= side size - 3).  The
sweep derives each state's sides from the side laws, one moved point
per state, and the scan moves each side's witness count with that
point instead of recounting the side.  Only the winner gets an
`OrientedLine` and frozenset sides, recomputed from the points, one
pass per split; the rest of the turn is never computed.

One function, `_build`, is the induction on a closed side of a graph:
a side of 3 or 4 points is a leaf, which `_leaf_edges` decides in
closed form with no induced graph and no oracle; a proper side of 5 or
more is solved on its induced graph; the whole graph is split, each
side solved, and the two trees merged across the split line.

When no split exists (the size condition fails) or a side has no tree,
the level falls back to an exact decision on its whole graph.  Points
in convex position, from 5 up, are decided by the O(n^3) interval
recurrence in `convex`; all other fallbacks go to the oracle, whose
search is exponential in the worst case.

Levels, the oracle and the convex recurrence return plain edge sets and
certify nothing.  A build is certified once, at the root:
`build_plane_tree` runs the certifier on the final tree and raises on a
rejection, also under `python -O`.

The scan is deliberately more generous than the four-way case analysis
that justifies it; the analysis survives as the case_tag diagnostic so
that tests can pin down which configuration an instance realizes.
Cases 1, 3 and 4 follow from the start line's sides; only case 2 runs
the full turn, closing checks included, for its crossing walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Iterable, Iterator

from .convex import convex_tree_edges
from .geometry import hull_order, segments_properly_cross
from .graphs import (
    Edge,
    GeometricGraph,
    PlaneTree,
    canonical_edge,
    certify_plane_spanning_tree,
    induced_subgraph,
    traversal_tree,
)
from .oracle import BUDGET_EXCEEDED, has_plane_spanning_tree
from .rotation import (
    LEFT,
    RIGHT,
    OrientedLine,
    RotationSequence,
    full_rotation,
    line_labels,
    sides_from_labels,
    sweep_states,
)
from .triangles import Triple, disconnected_empty_triangles

CASE1 = "case1"
CASE2 = "case2"
CASE2_1 = "case2.1"
CASE2_2 = "case2.2"
CASE3 = "case3"
CASE4 = "case4"
FALLBACK = "fallback"
BASE = "leaf"


@dataclass(frozen=True)
class SplitLine:
    """A sweep state whose two closed sides both admit recursion.

    `line` is the state and `left_indices`, `right_indices` its closed
    sides, which share exactly the points on the line.
    """

    line: OrientedLine
    left_indices: frozenset[int]
    right_indices: frozenset[int]
    case_tag: str


@dataclass
class BuildReport:
    tree: PlaneTree | None
    trace: list[tuple[int, str]] = field(default_factory=list)
    precondition_violated: bool = False
    theorem_gap_fallback_used: bool = False
    oracle_budget_exceeded: bool = False
    max_depth: int = 0

    def flags(self) -> list[str]:
        out = []
        if self.precondition_violated:
            out.append("precondition_violated")
        if self.theorem_gap_fallback_used:
            out.append("theorem_gap_fallback_used")
        if self.oracle_budget_exceeded:
            out.append("oracle_budget_exceeded")
        return out

    def to_text(self) -> str:
        edges = (
            "none"
            if self.tree is None
            else json.dumps(sorted(list(e) for e in self.tree.tree_edges))
        )
        trace = json.dumps([[size, tag] for size, tag in self.trace])
        return "\n".join(
            [f"tree={edges}", f"trace={trace}", f"flags={json.dumps(self.flags())}"]
        )


def find_valid_split(g: GeometricGraph, witnesses: tuple[Triple, ...]) -> SplitLine | None:
    """First sweep state whose closed sides both satisfy the size condition.

    Takes states from `_side_rooms` in sweep order and stops at the
    first that qualifies, so the result is deterministic for a fixed
    input and the rest of the turn is never computed.  Only the winner
    becomes an `OrientedLine` with frozenset sides.  The sweep derives
    each state's sides from the state before it, so the winner's side
    labels are recomputed from the points once; a mismatch raises, also
    under `python -O`.  Returns None when no state qualifies, which the
    theorem rules out whenever g itself satisfies the size condition.
    `witnesses` are g's disconnected empty triangles, as the caller
    counted them.
    """
    if g.n < 5:
        raise ValueError("splitting needs at least 5 points")
    start: tuple[bool, bool] | None = None
    for pivot, direction, partner, labels, left, right in _side_rooms(g, witnesses):
        if start is None:
            start = (left >= 0, right >= 0)
        if left < 0 or right < 0:
            continue
        line = OrientedLine(pivot, direction, partner)
        if line_labels(line, g.ps) != labels:
            raise AssertionError("derived sides differ from the winning line's")
        sides = sides_from_labels(labels)
        tag = _classify(g, start, line, witnesses)
        return SplitLine(line, sides.left, sides.right, tag)
    return None


def _side_rooms(
    g: GeometricGraph, witnesses: tuple[Triple, ...]
) -> Iterator[tuple[int, tuple[int, int], int | None, bytearray, int, int]]:
    """Each state of g's sweep with the room the size condition leaves
    on its two closed sides.

    Yields (pivot, direction, partner, labels, left room, right room),
    the first four as `sweep_states` gives them.  A side's room is its
    size - 3 minus the witnesses it holds, and the side passes when its
    room is at least 0.  Each side is a closed half-plane of g, so it
    holds a witness exactly when it holds its three vertices.  The start
    state's rooms come from one pass over the witnesses.  Every later
    state moves one point across one side, which changes only that
    side's room, by one for the point less the witnesses at the point
    whose other two vertices lie on the side; a per-vertex incidence
    list, built once the start is yielded, lists those witnesses.
    """
    states = sweep_states(g.ps)
    pivot, direction, partner, _, _, labels = next(states)
    # Witnesses by the side label all three vertices share, 0 for none;
    # rooms by side label.  A closed side misses the other side's points.
    inside = [0, 0, 0]
    for u, v, w in witnesses:
        inside[labels[u] & labels[v] & labels[w]] += 1
    room = [0, 0, 0]
    room[LEFT] = g.n - labels.count(RIGHT) - 3 - inside[LEFT]
    room[RIGHT] = g.n - labels.count(LEFT) - 3 - inside[RIGHT]
    yield pivot, direction, partner, labels, room[LEFT], room[RIGHT]
    incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, w in witnesses:
        incident[u].append((v, w))
        incident[v].append((u, w))
        incident[w].append((u, v))
    for pivot, direction, partner, moved, side, labels in states:
        gain = 1
        for a, b in incident[moved]:
            if labels[a] & labels[b] & side:
                gain -= 1
        room[side] += gain if partner is not None else -gain
        yield pivot, direction, partner, labels, room[LEFT], room[RIGHT]


def _classify(
    g: GeometricGraph,
    start: tuple[bool, bool],
    winner: OrientedLine,
    witnesses: tuple[Triple, ...],
) -> str:
    """Diagnostic tag: which configuration of the start line led here.

    start holds the size condition's verdicts on the start line's left
    and right sides, and winner is the qualifying state.  When both
    start sides overload, the winner is tagged with the crossing walk's
    subcase if it is the walk's event line, and CASE2 otherwise.  CASE2
    is a tag of its own, apart from the FALLBACK of a level with no
    split; the tests meet it only on graphs over the size condition.
    """
    low_left, low_right = start
    if low_left and low_right:
        return CASE1
    if low_left:
        return CASE4
    if low_right:
        return CASE3
    # Both sides of the start line are overloaded: the qualifying state
    # should be the shifted event line located by the crossing walk.
    seq = full_rotation(g.ps)
    walk = case2_walk(seq, witnesses)
    if walk is not None:
        subcase, event_idx, _ = walk
        if seq.events[event_idx] == winner:  # a turn meets each event line once
            return subcase
    return CASE2


def case2_walk(
    seq: RotationSequence, witnesses: tuple[Triple, ...]
) -> tuple[str, int, int] | None:
    """Locate the shifted event line used when both start sides overload.

    Returns (subcase, event index, index of the last state before the
    first crossing) or None when the walk cannot be completed.  The walk
    finds the first intermediate state that strictly separates one of
    `witnesses`, the disconnected empty triangles of the graph whose
    points seq sweeps, then advances until the sweep axis returns to the heavy
    side; the event reached at that moment is the candidate split.  A
    state strictly separates a triangle exactly when neither of its
    closed sides holds all three vertices.
    """
    if not witnesses:
        return None
    parts = seq.intermediate_partitions
    count = len(seq.intermediates)
    first_cross = None
    for idx, part in enumerate(parts):
        if any(
            not part.left.issuperset(t) and not part.right.issuperset(t)
            for t in witnesses
        ):
            first_cross = idx
            break
    if first_cross is None or first_cross == 0:
        return None
    before = first_cross - 1  # last state that crosses nothing
    v_next = seq.intermediates[first_cross].pivot
    on_before = seq.intermediates[before].pivot
    came_from_right = v_next in parts[before].right
    subcase = CASE2_1 if came_from_right else CASE2_2
    target = (
        parts[before].left - {on_before}
        if came_from_right
        else parts[before].right - {on_before}
    )
    for t in range(first_cross + 1, count):
        if seq.intermediates[t].pivot in target:
            # events[t-1] joins intermediates[t-1] and intermediates[t].
            return subcase, t - 1, before
    return None


def merge_side_trees(
    split: SplitLine, left_edges: Iterable[Edge], right_edges: Iterable[Edge]
) -> frozenset[Edge]:
    """Join two side trees, given in the parent's indices, across the line.

    Side edges live in opposite closed half-planes, so the union is
    crossing-free; with two shared on-line vertices it may close one
    cycle, broken by extracting a traversal tree.  Raises ValueError
    when an edge leaves its side of the split.  The result is not
    certified: the caller certifies it, as `build_plane_tree` does once
    for the whole build.
    """
    union: set[Edge] = set()
    sides = ((left_edges, split.left_indices), (right_edges, split.right_indices))
    for edges, side in sides:
        for i, j in edges:
            if i not in side or j not in side:
                raise ValueError(f"edge ({i}, {j}) leaves its side of the split")
            union.add((i, j) if i < j else canonical_edge(i, j))
    n = len(split.left_indices | split.right_indices)  # the sides cover every point
    if len(union) >= n:
        union = traversal_tree(n, union)
    return frozenset(union)


def build_plane_tree(g: GeometricGraph) -> BuildReport:
    """Build a plane spanning tree of g, reporting how it went.

    Whenever g has at most n-3 disconnected empty triangles a tree is
    guaranteed and found via recursive splitting; otherwise the report
    carries precondition_violated and an exact fallback decides: the
    interval recurrence for points in convex position, else the oracle.
    theorem_gap_fallback_used marks the impossible middle case (size
    condition met but no split found) and signals a bug.
    oracle_budget_exceeded means an oracle call ran out of its default
    budget: the build stops there without a tree, which proves nothing
    about g.
    """
    if g.n < 3:
        raise ValueError("need at least 3 points")
    report = BuildReport(tree=None)
    witnesses = disconnected_empty_triangles(g).witnesses
    if len(witnesses) > g.n - 3:
        report.precondition_violated = True
    try:
        edges = _build(g, range(g.n), witnesses, report, 1)
    except _OracleBudgetSpent:
        report.oracle_budget_exceeded = True
        return report
    if edges is not None:
        certified = certify_plane_spanning_tree(g, edges)
        if not isinstance(certified, PlaneTree):
            raise AssertionError(f"unsound build: {certified}")
        report.tree = certified
    return report


def _build(
    g: GeometricGraph,
    side: Collection[int],
    witnesses: tuple[Triple, ...],
    report: BuildReport,
    depth: int,
) -> Collection[Edge] | None:
    """Tree edges of g on the closed side `side`, in g's indices, or None;
    witnesses are g's disconnected empty triangles.

    A leaf is decided in place.  A larger proper side is solved on its
    induced graph, which inherits g's witnesses since it is a closed
    half-plane.  The whole of g is split and each side solved; both are
    proper, as each misses a point of the other's 3 or more, at most 2
    of them on the line.
    """
    report.max_depth = max(report.max_depth, depth)
    if len(side) <= 4:
        report.trace.append((len(side), BASE))
        return _leaf_edges(g, side)
    if len(side) < g.n:
        sub = induced_subgraph(g, side)
        sub_witnesses = disconnected_empty_triangles(sub, inherited=witnesses).witnesses
        edges = _build(sub, range(sub.n), sub_witnesses, report, depth)
        return None if edges is None else sub.to_parent(edges)

    split = find_valid_split(g, witnesses)
    if split is None:
        if len(witnesses) <= g.n - 3:
            report.theorem_gap_fallback_used = True
        report.trace.append((g.n, FALLBACK))
        return _fallback_edges(g)

    report.trace.append((g.n, split.case_tag))
    left_edges = _build(g, split.left_indices, witnesses, report, depth + 1)
    right_edges = _build(g, split.right_indices, witnesses, report, depth + 1)
    if left_edges is None or right_edges is None:
        # The sides were chosen to satisfy the size condition, so this
        # cannot happen unless something upstream is broken.
        report.theorem_gap_fallback_used = True
        return _fallback_edges(g)
    return merge_side_trees(split, left_edges, right_edges)


def _leaf_edges(g: GeometricGraph, side: Iterable[int]) -> frozenset[Edge] | None:
    """Tree edges of g on the 3 or 4 points `side`, in g's indices, or
    None when they have none.

    The tree is the oracle's on the induced graph, found in closed form:
    the first (k-1)-subset of the side's edges, in sorted order, that
    covers all k points and has no properly crossing pair.  Covering k
    points with k-1 edges, for k <= 4, leaves no room for a cycle.  Only
    vertex-disjoint pairs are tested: edges that share an endpoint never
    cross properly.
    """
    side = sorted(side)
    k = len(side)
    edges = [e for e in combinations(side, 2) if e in g.edges]
    ps = g.ps
    for tree in combinations(edges, k - 1):
        if len({v for e in tree for v in e}) == k and not any(
            len({a, b, c, d}) == 4 and segments_properly_cross(ps[a], ps[b], ps[c], ps[d])
            for (a, b), (c, d) in combinations(tree, 2)
        ):
            return frozenset(tree)
    return None


class _OracleBudgetSpent(Exception):
    """An oracle call ran out of budget, so the build has no verdict."""


def _fallback_edges(g: GeometricGraph) -> frozenset[Edge] | None:
    """Tree edges of g (5 points or more) from an exact decision, or None
    when g has none.

    Points in convex position, the ones the hull order lists in full, are
    decided in O(n^3) by `convex_tree_edges`, which needs no budget.  The
    rest go to the oracle at its default budget, whose edges come back
    uncertified; a spent budget raises _OracleBudgetSpent.
    """
    order = hull_order(g.ps)
    if len(order) == g.n:
        return convex_tree_edges(g, order)
    result = has_plane_spanning_tree(g)
    if result.status == BUDGET_EXCEEDED:
        raise _OracleBudgetSpent
    return result.tree_edges
