"""Instance files: {"points": [[x, y], ...], "edges": [[i, j], ...]}.

Coordinates and indices are integers only; anything else fails the load
with a field diagnostic.  Dumps are canonical (sorted keys, points in
index order, edges as sorted canonical pairs) so a generate/load/dump
round trip is byte-exact.
"""

from __future__ import annotations

import json
from typing import Any

from .geometry import PointSet, is_integer
from .graphs import GeometricGraph, canonical_edge


class InstanceFormatError(ValueError):
    """An instance file failed to parse or validate."""


def _as_int(value: Any, where: str) -> int:
    if not is_integer(value):
        raise InstanceFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def loads_instance(text: str, require_edges: bool = True) -> GeometricGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object")
    if "points" not in data:
        raise InstanceFormatError("missing 'points'")
    raw_points = data["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise InstanceFormatError("'points' must be a non-empty list")
    coords = []
    for idx, entry in enumerate(raw_points):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InstanceFormatError(f"points[{idx}]: expected [x, y]")
        coords.append(
            (
                _as_int(entry[0], f"points[{idx}][0]"),
                _as_int(entry[1], f"points[{idx}][1]"),
            )
        )
    try:
        ps = PointSet.from_coords(coords)
    except ValueError as err:
        raise InstanceFormatError(f"invalid point set: {err}") from err

    raw_edges = data.get("edges")
    if raw_edges is None:
        if require_edges:
            raise InstanceFormatError("missing 'edges'")
        raw_edges = []
    if not isinstance(raw_edges, list):
        raise InstanceFormatError("'edges' must be a list")
    edges = set()
    for idx, entry in enumerate(raw_edges):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InstanceFormatError(f"edges[{idx}]: expected [i, j]")
        i = _as_int(entry[0], f"edges[{idx}][0]")
        j = _as_int(entry[1], f"edges[{idx}][1]")
        if not (0 <= i < len(ps) and 0 <= j < len(ps)) or i == j:
            raise InstanceFormatError(f"edges[{idx}]: invalid pair [{i}, {j}]")
        edges.add(canonical_edge(i, j))
    return GeometricGraph(ps, frozenset(edges))


def load_instance(path: str, require_edges: bool = True) -> GeometricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read(), require_edges=require_edges)


def dumps_instance(g: GeometricGraph) -> str:
    payload = {
        "points": [[p.x, p.y] for p in g.ps],
        "edges": [list(e) for e in sorted(g.edges)],
    }
    return json.dumps(payload, sort_keys=True)


def dump_instance(g: GeometricGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(g))
        fh.write("\n")


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Parse a bare [[i, j], ...] edge list (used for tree arguments)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"invalid edge list JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(data, list):
        raise InstanceFormatError("edge list must be a JSON array")
    out = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InstanceFormatError(f"edge[{idx}]: expected [i, j]")
        out.append(
            (_as_int(entry[0], f"edge[{idx}][0]"), _as_int(entry[1], f"edge[{idx}][1]"))
        )
    return out
