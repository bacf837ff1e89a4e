"""Benchmark workloads and the generator process that writes their inputs.

Run as a script, this module generates one workload's instances for a seed
and writes them as a JSON file; the measuring process only loads that file.
Generating in a separate process keeps the generators' work, and any cache
it fills, out of the process that times the builds.  The script generates
cold (package caches cleared) again and again until MIN_SETUP_S has passed,
so that even a set-up of a few milliseconds is timed over enough samples
of the calibrated clock, and writes the mean time of one generation.

    python3 perfbench/workloads.py --workload NAME --seed N --out FILE
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import planetree  # noqa: E402,F401  (loads every module for package_caches)
from planetree.generators import path_complement, r_construction, random_instance  # noqa: E402
from planetree.instance_io import dumps_instance  # noqa: E402

from calibrate import Clock  # noqa: E402

#: Expected outcomes of one build.
TREE = "tree"  # certified tree, no flags
NO_TREE = "no_tree"  # tree is None and precondition_violated is set

#: Budgeted instances per size.  Build time varies by tens of percent from
#: one random instance to the next, so a seed draws several of each size.
BUDGETED_PER_SIZE = 3

BATCH_TRIALS = 800
BATCH_N = range(5, 13)
BATCH_ORACLE_MAX_N = 9

#: Wall seconds over which a short set-up step is repeated and averaged.
MIN_SETUP_S = 0.5


def package_caches() -> list:
    """cache_clear of every cached function in the planetree modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "planetree" or name.startswith("planetree."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


def _item(name, instance_text, expect, certificate, cross_check=False):
    return {
        "name": name,
        "text": instance_text,
        "expect": expect,
        # [relation, value] for the disconnected empty triangle count.
        "certificate": certificate,
        "cross_check": cross_check,
    }


def budgeted_large(seed: int, sizes=(48, 64), per_size: int = BUDGETED_PER_SIZE) -> list[dict]:
    items = []
    for n in sizes:
        for k in range(per_size):
            inst = random_instance(n, seed * 1000 + n * 10 + k)
            items.append(
                _item(f"budgeted-{n}-{k}", dumps_instance(inst.graph), TREE, ["at_most", n - 3])
            )
    return items


def tight_rcons(seed: int, sizes=(40, 48)) -> list[dict]:
    # Deterministic family: the seed only names the run.
    return [
        _item(f"rcons-{n}", dumps_instance(r_construction(n)[1].graph),
              TREE, ["exactly", n - 3])
        for n in sizes
    ]


def batch_small(seed: int, trials: int = BATCH_TRIALS) -> list[dict]:
    # Seeds and sizes follow `planetree batch --seed SEED`.
    items = []
    for trial in range(trials):
        n = BATCH_N[trial % len(BATCH_N)]
        inst = random_instance(n, seed * 1_000_003 + trial)
        items.append(
            _item(f"batch-{trial}", dumps_instance(inst.graph), TREE,
                  ["at_most", n - 3], cross_check=n <= BATCH_ORACLE_MAX_N)
        )
    return items


def fallback_oracle(seed: int, sizes=(14, 15, 16)) -> list[dict]:
    # Deterministic family: the seed only names the run.
    return [
        _item(f"path-complement-{n}", dumps_instance(path_complement(n).graph), NO_TREE,
              ["exactly", n - 2])
        for n in sizes
    ]


WORKLOADS = {
    "budgeted_large": budgeted_large,
    "tight_rcons": tight_rcons,
    "batch_small": batch_small,
    "fallback_oracle": fallback_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make = WORKLOADS[args.workload]
    caches = package_caches()
    clock = Clock()
    reps = 0
    with clock:
        start = time.perf_counter()
        while True:
            for clear in caches:
                clear()
            items = make(args.seed)
            reps += 1
            end = time.perf_counter()
            if end - start >= MIN_SETUP_S:
                break
    # Calibrated seconds (see calibrate.py).
    payload = {"workload": args.workload, "seed": args.seed,
               "generate_s": clock.seconds(start, end) / reps, "instances": items}
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
