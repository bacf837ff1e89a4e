"""Instance files: {"points": [[x, y], ...], "edges": [[i, j], ...]}.

The loader checks the file's shape and integer coordinates, naming a bad
one by position (`points[1][0]`).  `GeometricGraph` checks the edges;
its error becomes `invalid edges: ...` and names the pair.  Dumps are
canonical (sorted keys, points in index order, edges as sorted canonical
pairs) so a generate/load/dump round trip is byte-exact.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .geometry import PointSet, is_integer
from .graphs import GeometricGraph


class InstanceFormatError(ValueError):
    """An instance file failed to parse or validate."""


def _int_pairs(entries: list, name: str, shape: str) -> list[tuple[int, int]]:
    """A list of [int, int] entries as tuples; an error names the entry
    by position (`points[1]: expected [x, y]`, `points[1][0]`)."""
    for idx, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            raise InstanceFormatError(f"{name}[{idx}]: expected {shape}")
        for k, value in enumerate(entry):
            if not is_integer(value):
                raise InstanceFormatError(
                    f"{name}[{idx}][{k}]: expected an integer, got {value!r}"
                )
    return [(a, b) for a, b in entries]


def _decode(text: str, what: str) -> Any:
    """The package's one JSON decoder: any failure is a format error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(
            f"invalid {what}JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except (RecursionError, ValueError) as err:  # too deep; an over-long integer
        raise InstanceFormatError(f"invalid {what}JSON: {err}") from err


def _read(path: str) -> str:
    """A file's text; bytes that are not UTF-8 are a format error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise InstanceFormatError(f"{path}: not UTF-8 text ({err.reason})") from err


def loads_instance(text: str, require_edges: bool = True) -> GeometricGraph:
    data = _decode(text, "")
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object")
    if "points" not in data:
        raise InstanceFormatError("missing 'points'")
    raw_points = data["points"]
    if not isinstance(raw_points, list) or not raw_points:
        raise InstanceFormatError("'points' must be a non-empty list")
    coords = _int_pairs(raw_points, "points", "[x, y]")
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
        raise InstanceFormatError(f"invalid edges: expected a list, got {raw_edges!r}")
    for entry in raw_edges:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InstanceFormatError(f"invalid edges: expected [i, j], got {entry!r}")
    try:
        return GeometricGraph(ps, raw_edges)
    except ValueError as err:
        raise InstanceFormatError(f"invalid edges: {err}") from err


def load_instance(path: str, require_edges: bool = True) -> GeometricGraph:
    return loads_instance(_read(path), require_edges=require_edges)


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


def parse_edge_list(arg: str) -> list[tuple[int, int]]:
    """Parse a tree argument: an [[i, j], ...] edge list inline, or a file's path."""
    if not arg.lstrip().startswith("[") and os.path.exists(arg):
        arg = _read(arg)
    data = _decode(arg, "edge list ")
    if not isinstance(data, list):
        raise InstanceFormatError("edge list must be a JSON array")
    return _int_pairs(data, "edge", "[i, j]")
