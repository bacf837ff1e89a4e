"""Command-line front end.

Exit codes are a stable contract:
  0 success / verdict positive
  1 I/O, parse or generation failure
  2 bad arguments (argparse default)
  3 verdict negative (no tree / certification rejected)
  4 oracle budget exceeded
  5 batch campaign recorded failures
  141 stdout was closed early (128 + SIGPIPE, as if killed by it)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .builder import build_plane_tree
from .generators import (
    DEFAULT_SCALE,
    GenerationError,
    path_complement,
    r_construction,
    random_instance,
)
from .graphs import PlaneTree, certify_plane_spanning_tree
from .instance_io import (
    InstanceFormatError,
    dump_instance,
    load_instance,
    parse_edge_list,
)
from .oracle import ABSENT, BUDGET_EXCEEDED, FOUND, DEFAULT_BUDGET, has_plane_spanning_tree
from .rotation import full_rotation
from .svg import write_svg
from .triangles import disconnected_empty_triangles, enumerate_empty_triangles

#: `gen` families: each makes its instance from the parsed arguments.
FAMILIES = {
    "complete": lambda args: random_instance(args.n, seed=args.seed, mode="complete"),
    "path-complement": lambda args: path_complement(args.n, scale=args.scale),
    "r-construction": lambda args: r_construction(args.n, scale=args.scale)[1],
    "random": lambda args: random_instance(args.n, seed=args.seed, mode="budgeted"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planetree",
        description="Plane spanning trees in geometric graphs: generators, "
        "builder, oracle and sweep debugging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named instance family")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    p_gen.add_argument("--out", default=None, help="output path (default FAMILY-N.json)")
    p_gen.set_defaults(handler=cmd_gen)

    p_stats = sub.add_parser("stats", help="print instance statistics")
    p_stats.add_argument("path")
    p_stats.set_defaults(handler=cmd_stats)

    p_build = sub.add_parser("build", help="build a plane spanning tree")
    p_build.add_argument("path")
    p_build.add_argument("--svg", default=None, help="render the result to this SVG file")
    p_build.set_defaults(handler=cmd_build)

    p_check = sub.add_parser("check", help="verify a claimed plane spanning tree")
    p_check.add_argument("path")
    p_check.add_argument(
        "tree", help="edge list [[i,j],...] given inline or as a path to a JSON file"
    )
    p_check.set_defaults(handler=cmd_check)

    p_oracle = sub.add_parser("oracle", help="exhaustive existence search")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_oracle.set_defaults(handler=cmd_oracle)

    p_batch = sub.add_parser("batch", help="random campaign of build/oracle checks")
    p_batch.add_argument("--trials", type=int, default=100)
    p_batch.add_argument("--n-range", default="5:9", help="MIN:MAX inclusive")
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.set_defaults(handler=cmd_batch)

    p_rotate = sub.add_parser("rotate", help="dump the rotating-line states")
    p_rotate.add_argument("path", help="instance file; the edges key is optional here")
    p_rotate.set_defaults(handler=cmd_rotate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at shutdown
        return status
    except BrokenPipeError:
        # The reader left early, as `planetree build FILE | head -1` may:
        # nothing failed.  Pointing stdout at devnull keeps the flush at
        # shutdown from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InstanceFormatError, GenerationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        # Semantic argument violations, e.g. an n below a family's minimum.
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


def cmd_gen(args) -> int:
    instance = FAMILIES[args.family](args)
    out = args.out or f"{args.family}-{args.n}.json"
    dump_instance(instance.graph, out)
    s = disconnected_empty_triangles(instance.graph).count
    print(f"wrote {out}")
    print(f"s={s}")
    return 0


def cmd_stats(args) -> int:
    g = load_instance(args.path)
    empties = enumerate_empty_triangles(g.ps)
    disc = disconnected_empty_triangles(g)
    print(
        f"n={g.n} edges={len(g.edges)} "
        f"empty_triangles={len(empties)} s={disc.count}"
    )
    for tri in disc.witnesses:
        print(f"disconnected={tri}")
    return 0


def cmd_build(args) -> int:
    g = load_instance(args.path)
    report = build_plane_tree(g)
    print(report.to_text())
    if args.svg is not None:
        write_svg(g, args.svg, report.tree.tree_edges if report.tree else None)
        print(f"svg={args.svg}")
    if report.tree is not None:
        return 0
    return 4 if report.oracle_budget_exceeded else 3


def cmd_check(args) -> int:
    g = load_instance(args.path)
    verdict = certify_plane_spanning_tree(g, parse_edge_list(args.tree))
    if isinstance(verdict, PlaneTree):
        print("accepted")
        return 0
    print(f"rejected reason={verdict.reason}")
    if verdict.witness is not None:
        a, b = verdict.witness
        print(f"witness={json.dumps([list(a), list(b)])}")
    return 3


def cmd_oracle(args) -> int:
    g = load_instance(args.path)
    result = has_plane_spanning_tree(g, budget=args.budget)
    if result.status == FOUND:
        if result.tree_edges is None:
            raise AssertionError("oracle reported a tree without a witness")
        verdict = certify_plane_spanning_tree(g, result.tree_edges)
        if not isinstance(verdict, PlaneTree):
            raise AssertionError(f"oracle produced invalid tree: {verdict}")
        tree = sorted(list(e) for e in verdict.tree_edges)
        print(f"exists tree={json.dumps(tree)} nodes={result.nodes}")
        return 0
    if result.status == ABSENT:
        print(f"not-exists nodes={result.nodes}")
        return 3
    if result.status != BUDGET_EXCEEDED:
        raise AssertionError(f"unknown oracle status {result.status!r}")
    print(f"budget-exceeded nodes={result.nodes}")
    return 4


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    n_min, n_max = int(lo), int(hi or lo)
    if n_min < 3 or n_max < n_min:
        raise ValueError(f"bad n-range {text!r}")
    return n_min, n_max


def cmd_batch(args) -> int:
    if args.trials < 0:
        raise ValueError(f"bad trials {args.trials}: need 0 or more")
    n_min, n_max = _parse_range(args.n_range)
    span = n_max - n_min + 1
    failures = 0
    built = 0
    flagged = 0
    for trial in range(args.trials):
        n = n_min + trial % span
        seed = args.seed * 1_000_003 + trial
        instance = random_instance(n, seed=seed, mode="budgeted")
        g = instance.graph
        ok = True
        try:
            report = build_plane_tree(g)
        except AssertionError:  # a failed sweep invariant or certification
            ok = False
        else:
            if report.theorem_gap_fallback_used or report.precondition_violated:
                flagged += 1
                ok = False
            if report.tree is None:
                ok = False
            else:
                built += 1
        if n <= 9:
            if has_plane_spanning_tree(g).status != FOUND:
                ok = False
        if not ok:
            failures += 1
            print(f"trial={trial} n={n} seed={seed} FAILED")
    print("trials  built  failures  flags")
    print(f"{args.trials:6d}  {built:5d}  {failures:8d}  {flagged:5d}")
    return 0 if failures == 0 else 5


def cmd_rotate(args) -> int:
    g = load_instance(args.path, require_edges=False)
    seq = full_rotation(g.ps)
    for line, part in seq.states():
        pivots = ",".join(str(i) for i in line.on_line())
        left = ",".join(str(i) for i in sorted(part.left))
        right = ",".join(str(i) for i in sorted(part.right))
        print(f"kind={line.kind} pivot={pivots} left=[{left}] right=[{right}]")
    print(
        f"states={2 * len(seq.intermediates)} left_size={seq.left_size} "
        f"opposite_index={seq.opposite_index}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    console_main()
