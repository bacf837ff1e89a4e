"""Run one workload of the planetree benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Set-up runs SETUP_REPS generator processes (perfbench/workloads.py) one
after the other, checks that every process wrote the same instances, and then
starts the measuring process (perfbench/measure.py), which loads the
instances before it times anything.  Each process repeats its step for at
least MIN_SETUP_S and reports the mean time of one repetition.  setup_s is
the median over generator processes of generation time, plus load time.
All times are calibrated seconds (see perfbench/calibrate.py).

Metric names and units come from BENCHMARK.json: with --trace 0 every
end_to_end metric is printed, with --trace 1 every per_layer metric.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --workload all every workload runs untraced and
traced, and the last line maps "<workload>/trace<0|1>" to those objects.
The spans of the first traced pass are written to
perfbench/out/<workload>-seed<N>-trace1.spans.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_REPS = 2
# Timeouts keep a whole run within 180 s.
GENERATE_TIMEOUT_S = 50


def _python(script: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    # subprocess.run kills and waits for the child when the timeout expires.
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )


def setup(workload: str, seed: int, out: Path) -> list[float]:
    """Generate SETUP_REPS times, one process after the other; keep one copy in out.

    Returns each process's generation time.  The processes do not run side
    by side: a process that waits for a core between two samples of the
    calibrated clock would count the wait as work.
    """
    outs = [out.with_suffix(f".rep{rep}") for rep in range(SETUP_REPS)]
    for path in outs:
        _python("workloads.py", "--workload", workload, "--seed", str(seed),
                "--out", str(path), timeout=GENERATE_TIMEOUT_S)
    payloads = [json.loads(path.read_text(encoding="utf-8")) for path in outs]
    if any(p["instances"] != payloads[0]["instances"] for p in payloads):
        raise RuntimeError("the same seed generated different instances")
    outs[0].replace(out)
    for path in outs[1:]:
        path.unlink()
    return [p["generate_s"] for p in payloads]


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up and measure one workload; print its metrics; return the result object."""
    OUT.mkdir(exist_ok=True)
    # A traced measure.py writes its spans beside this file, with the
    # suffix .spans.json.
    instances = OUT / f"{workload}-seed{seed}-trace{trace}.json"

    reps = setup(workload, seed, instances)
    measured = _python(
        "measure.py", "--instances", str(instances), "--seconds", str(seconds),
        "--trace", str(trace), timeout=seconds + 60,
    )
    instances.unlink()
    m = json.loads(measured.stdout.strip().splitlines()[-1])

    values = {
        "build_s": m["build_s"],
        "trials_per_s": m["trials_per_s"],
        "trial_ms_p50": m["trial_ms_p50"],
        "trial_ms_p95": m["trial_ms_p95"],
        "setup_s": statistics.median(reps) + m["load_s"],
        "peak_rss_mb": m["peak_rss_mb"],
    }
    if trace:
        values.update(m["layers"])
        values["generators.self_s"] = statistics.median(reps)
        values["instance_io.loads.calls"] = m["loads_calls"]
        values["instance_io.loads.self_s"] = m["load_s"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # A per-layer counter that never fired is absent and reads 0.
    metrics = {w["name"]: {"value": values.get(w["name"], 0), "unit": w["unit"]} for w in wanted}

    print(f"workload={workload} seed={seed} trace={trace} "
          f"passes={m['passes']} traced_passes={m['traced_passes']} "
          f"trial_samples={m['trials']} setup_reps={SETUP_REPS}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    print(f"  {'fail_rate':34s} {m['failed'] / m['attempted']:14.6f} "
          f"({m['failed']} of {m['attempted']} outcomes)")
    for failure in m["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        results = {
            f"{name}/trace{trace}": run_one(spec, name, args.seed, args.seconds, trace)
            for name in names
            for trace in (0, 1)
        }
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    result = run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
