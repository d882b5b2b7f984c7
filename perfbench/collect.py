#!/usr/bin/env python3
"""Run the benchmark over several seeds and append one trajectory entry.

    python3 perfbench/collect.py --label baseline --seeds 1-10 --trace-seeds 3

For each seed it runs every workload once with tracing off (workloads
interleaved, so slow drift of the machine hits them alike), then the first
``--trace-seeds`` seeds once more with tracing on. Each run is a fresh
``perfbench/run.py`` process with ``run_seconds`` from ``BENCHMARK.json``.
Per workload and metric the entry keeps every value, the median, the
quartiles and the spread (interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), and it is appended to
``perfbench/trajectory.json``. The first entry there is the baseline later
changes are compared against. Each run's unscaled means and speed-kernel
time (the ``raw:`` line of ``run.py``) are kept with its values.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).with_name("trajectory.json")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int,
         trace: int) -> tuple[dict, dict, str]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("environment: "))
    raw = next(line for line in lines if line.startswith("raw: "))
    return (json.loads(lines[-1]), json.loads(raw.removeprefix("raw: ")),
            env.removeprefix("environment: "))


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace-seeds", type=int, default=3)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    values = {w: {0: {}, 1: {}} for w in workloads}
    raws = {w: {0: [], 1: []} for w in workloads}
    runs = {w: {0: [0, 0, 0], 1: [0, 0, 0]} for w in workloads}
    environment = None
    plan = [(s, 0) for s in seeds] + [(s, 1) for s in seeds[:args.trace_seeds]]
    for seed, trace in plan:
        for workload in workloads:
            result, raw, environment = _run(workload, seed,
                                            spec["run_seconds"], trace)
            raws[workload][trace].append(raw)
            counts = runs[workload][trace]
            counts[0] += 1
            counts[1] += result["attempted"]
            counts[2] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][trace].setdefault(name, []).append(
                    metric["value"])
            print(f"{workload} seed {seed} trace {trace} correct "
                  f"{result['correct']} " + json.dumps(
                      {k: round(v["value"], 4)
                       for k, v in result["metrics"].items()}), flush=True)

    entry = {
        "label": args.label,
        "seeds": seeds,
        "trace_seeds": seeds[:args.trace_seeds],
        "run_seconds": spec["run_seconds"],
        "environment": json.loads(environment),
        "workloads": {},
    }
    for w in workloads:
        entry["workloads"][w] = {
            key: {
                "runs": runs[w][trace][0],
                "passes_attempted": runs[w][trace][1],
                "passes_failed": runs[w][trace][2],
                "metrics": {name: _summary(v) if len(v) > 1 else {"values": v}
                            for name, v in values[w][trace].items()},
                "raw": raws[w][trace],
            }
            for key, trace in (("end_to_end", 0), ("per_layer", 1))
            if runs[w][trace][0]
        }
        for name, s in entry["workloads"][w]["end_to_end"]["metrics"].items():
            print(f"{w:12s} {name:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}")
    trajectory = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                  if TRAJECTORY.exists() else [])
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
