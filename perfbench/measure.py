"""Measuring process: cold builds of one workload's generated instances.

    python3 perfbench/measure.py --instances FILE --seconds S --trace 0|1

Loads the instances (timed, again and again for MIN_SETUP_S), then builds
the whole instance set pass after pass until the time is up.  Pass p
builds every instance translated by (p, 0): a translation changes no
orientation, so each pass does exactly the same work and must return the
same tree edges.  No two
instances are translates of each other (ColdGuard checks), so no two
builds in the process see the same point tuple.  Every build also starts
with all of the package's function caches cleared, as a fresh
``planetree build`` process does.  With ``--trace 1`` untraced and traced
passes alternate, and the spans of the first traced pass are written
beside the instances file, to FILE with the suffix .spans.json.  Times are
calibrated (see calibrate.py); an instance's time is the median over its
passes.  Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planetree.builder import build_plane_tree  # noqa: E402
from planetree.graphs import PlaneTree, certify_plane_spanning_tree  # noqa: E402
from planetree.instance_io import loads_instance  # noqa: E402
from planetree.oracle import FOUND, has_plane_spanning_tree  # noqa: E402
from planetree.triangles import disconnected_empty_triangles  # noqa: E402

from calibrate import Clock  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import MIN_SETUP_S, NO_TREE, TREE, package_caches  # noqa: E402

MIN_PASSES = 3
# A traced run makes this many passes of each kind, so that it stays well
# within the time limit; per-layer metrics have no bound to hold.
MIN_TRACED_PASSES = 2


class SharedPointSetError(RuntimeError):
    """Two instances of one measuring process share a point tuple."""


class ColdGuard:
    """Refuses an instance whose point tuple is a translate of an earlier one.

    A repeated point set would find the empty-triangle cache (or any other
    cache keyed on points) already filled and time a warm build.  Passes
    translate the instance set by distinct offsets, so checking the base
    instances up to translation covers every build of the process.
    """

    def __init__(self) -> None:
        self._seen: set[tuple] = set()

    def admit(self, g) -> None:
        x0, y0 = g.ps[0].x, g.ps[0].y
        key = tuple((p.x - x0, p.y - y0) for p in g.ps)
        if key in self._seen:
            raise SharedPointSetError(f"two instances share a point tuple of {g.n} points")
        self._seen.add(key)


def translated(item: dict, dx: int):
    data = json.loads(item["text"])
    data["points"] = [[x + dx, y] for x, y in data["points"]]
    return loads_instance(json.dumps(data))


def wrong_outcome(item: dict, g, report, verdict) -> str | None:
    """Why a build's outcome is wrong for its family, or None if it is right."""
    if item["expect"] == TREE:
        if report.tree is None:
            return "no tree returned"
        if report.flags():
            return f"flags set: {report.flags()}"
        if not isinstance(certify_plane_spanning_tree(g, report.tree.tree_edges), PlaneTree):
            return "independent certification rejected the tree"
    elif item["expect"] == NO_TREE:
        if report.tree is not None:
            return "tree returned although none exists"
        if not report.precondition_violated:
            return "precondition_violated not set"
    if verdict is not None and verdict.status != FOUND:
        return f"oracle cross-check returned {verdict.status}"
    return None


def certificate_error(item: dict, g) -> str | None:
    relation, value = item["certificate"]
    count = disconnected_empty_triangles(g).count
    ok = count == value if relation == "exactly" else count <= value
    return None if ok else f"disconnected count {count}, certificate {relation} {value}"


class Run:
    """Passes over one instance set, with their timings and outcome checks."""

    def __init__(self, items: list[dict], graphs: list, clock: Clock | None = None) -> None:
        self.items = items
        self.base = graphs
        self.clock = clock or Clock()
        guard = ColdGuard()
        for g in graphs:
            guard.admit(g)
        self.caches = package_caches()
        self.attempted = 0
        self.failures: list[str] = []
        self.edges: list = [None] * len(items)
        # Wall intervals, per mode (traced or not), per instance, one per
        # pass: the build, and (untraced only) the build plus cross-check.
        self.build_iv = {mode: [[] for _ in items] for mode in (False, True)}
        self.trial_iv: list[list[tuple[float, float]]] = [[] for _ in items]
        self.passes = {False: 0, True: 0}
        self.tracers: list[Tracer] = []
        self.counts: dict[str, int] | None = None

    def one_pass(self, index: int, tracer: Tracer | None) -> None:
        graphs = self.base if index == 0 else [translated(it, index) for it in self.items]
        traced = tracer is not None
        build = build_plane_tree
        oracle = has_plane_spanning_tree
        if traced:
            oracle = tracer.oracle(has_plane_spanning_tree)

            def build(g):
                return tracer.call("builder", build_plane_tree, g)

        max_depth = 0
        for k, (item, g) in enumerate(zip(self.items, graphs)):
            for clear in self.caches:
                clear()
            self.attempted += 1
            try:
                start = time.perf_counter()
                report = build(g)
                built = time.perf_counter()
                verdict = oracle(g) if item["cross_check"] else None
                done = time.perf_counter()
            except Exception as err:  # a crash is a wrong outcome, not a harness error
                self.failures.append(f"pass {index} {item['name']}: raised {err!r}")
                continue
            self.build_iv[traced][k].append((start, built))
            if not traced:
                self.trial_iv[k].append((start, done))
            max_depth = max(max_depth, report.max_depth)
            why = wrong_outcome(item, g, report, verdict)
            edges = None if report.tree is None else sorted(report.tree.tree_edges)
            if index == 0:
                self.edges[k] = edges
                # Right after the build the count is cheap where the package
                # caches empty triangles; the next build starts cold again.
                self.attempted += 1
                bad_count = certificate_error(item, g)
                if bad_count is not None:
                    self.failures.append(f"{item['name']}: {bad_count}")
            elif why is None and edges != self.edges[k]:
                why = "tree differs from the first pass"
            if why is not None:
                self.failures.append(f"pass {index} {item['name']}: {why}")
        self.passes[traced] += 1
        if traced:
            counts = dict(tracer.counts)
            counts["builder.max_depth"] = max_depth
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                self.failures.append(f"pass {index}: exact work counters changed")
            self.tracers.append(tracer)

    def measure(self, seconds: float, trace: bool) -> None:
        with self.clock:
            self._passes(seconds, trace)

    def _passes(self, seconds: float, trace: bool) -> None:
        deadline = time.perf_counter() + seconds
        index = 0
        longest = 0.0
        while True:
            started = time.perf_counter()
            if trace and index % 2 == 1:
                tracer = Tracer()
                with tracer.installed():
                    self.one_pass(index, tracer)
            else:
                self.one_pass(index, None)
            longest = max(longest, time.perf_counter() - started)
            index += 1
            if trace:
                enough = min(self.passes.values()) >= MIN_TRACED_PASSES
            else:
                enough = self.passes[False] >= MIN_PASSES
            if enough and time.perf_counter() + longest > deadline:
                break

    def typical(self, intervals: list[list[tuple[float, float]]]) -> list[float]:
        """Each instance's median over its passes, in calibrated seconds."""
        return [
            statistics.median(self.clock.seconds(a, b) for a, b in per_pass)
            for per_pass in intervals
            if per_pass
        ]

    def build_s(self, traced: bool) -> float:
        return sum(self.typical(self.build_iv[traced]))


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(run: Run) -> dict[str, float]:
    counts = dict(run.counts or {})
    side_counts = counts.pop("builder.split.side_counts", 0)
    out: dict[str, float] = {name: float(value) for name, value in counts.items()}
    self_s = [tracer.self_times(run.clock.seconds) for tracer in run.tracers]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(p.get(layer, 0.0) for p in self_s)
    splits = counts.get("builder.splits", 0)
    out["builder.split.useful_ratio"] = 2 * splits / side_counts if side_counts else 0.0
    out["trace.overhead_s"] = run.build_s(True) - run.build_s(False)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    instances = Path(args.instances)
    items = json.loads(instances.read_text(encoding="utf-8"))["instances"]
    clock = Clock()
    loads = 0
    with clock:
        start = time.perf_counter()
        while True:
            graphs = [loads_instance(item["text"]) for item in items]
            loads += 1
            end = time.perf_counter()
            if end - start >= MIN_SETUP_S:
                break

    run = Run(items, graphs, clock)
    run.measure(args.seconds, bool(args.trace))

    trial_ms = [1000 * t for t in run.typical(run.trial_iv)]
    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "load_s": clock.seconds(start, end) / loads,
        "loads_calls": len(items),
        "passes": run.passes[False],
        "traced_passes": run.passes[True],
        "build_s": run.build_s(False),
        "trials": len(trial_ms),
        "trials_per_s": 1000 * len(trial_ms) / sum(trial_ms),
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_p95": percentile(trial_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        result["layers"] = layer_metrics(run)
        instances.with_suffix(".spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"],
                        "spans": run.tracers[0].spans}),
            encoding="utf-8",
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
