#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload shape, shrunk to a toy size and to two scenarios, for
one cycle with tracing off and one scenario with tracing on, and checks that each result is correct and
names every metric of ``BENCHMARK.json`` with its unit. Exits 1 on the first
mismatch.
"""
from __future__ import annotations

import dataclasses
import json
import sys

from run import ROOT, import_source

TOY = {
    "solver_mid": {"n_beams": 24, "n_clusters": 6, "n_p": 2, "n_slot": 16},
    "wide_field": {"n_beams": 48, "n_clusters": 4, "n_p": 2, "n_slot": 16},
    "long_window": {"n_beams": 24, "n_clusters": 6, "n_p": 2, "n_slot": 256},
}
TOY_SCENARIOS = 2


def main() -> int:
    import_source()
    from bench import measure
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name, shape in TOY.items():
        workload = dataclasses.replace(WORKLOADS[name], name=f"{name}-toy",
                                       scenarios=TOY_SCENARIOS, **shape)
        for trace in (False, True):
            result = measure(workload, seed=1, seconds=0.001, trace=trace,
                             root=ROOT)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload.name} trace={int(trace)}"
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                raise SystemExit(f"{label}: not correct: {result}")
            if got != wanted[trace]:
                raise SystemExit(f"{label}: metrics {got} != {wanted[trace]}")
            print(f"ok {label}")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
