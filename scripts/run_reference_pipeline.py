#!/usr/bin/env python3
"""End-to-end experiment on the reference scenario.

Plans the hopping window, evaluates the benchmark schemes, runs the leakage
diagnostic, and prints a digest of the demand-matching outcome. All artifacts
land in the chosen output directory (plan.json, report CSVs, summary.json,
leakage.json, run_config.json).
"""
import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clusterhop.cli import SOLVERS, RunManifest, run  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # The checkout's reference scenario from any working directory, named
    # relative to it, since run_config.json records the path as given
    parser.add_argument("--scenario", default=os.path.relpath(
        ROOT / "scenarios" / "ref_71beam.json"))
    parser.add_argument("--out", default="out/reference")
    parser.add_argument("--solver", default="ilp", choices=SOLVERS)
    args = parser.parse_args()

    t0 = time.perf_counter()
    for command in ("plan", "compare", "leakage"):
        files = run(RunManifest(
            scenario_path=args.scenario,
            out_dir=args.out,
            command=command,
            solver=args.solver,
        ))
        print(f"{command}: wrote {len(files)} files")
    elapsed = time.perf_counter() - t0

    out = Path(args.out)
    plan = json.loads((out / "plan.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    leakage = json.loads((out / "leakage.json").read_text())
    print(f"\npipeline finished in {elapsed:.1f}s")
    print(f"plan: {len(plan['psi'])} active snapshots over "
          f"{len(plan['schedule'])} slots, worst ratio t = {plan['t']:.4f}")
    for scheme, row in sorted(summary.items()):
        print(f"{scheme:>10}: unmet {row['unmet_bps'] / 1e9:7.2f} Gbps, "
              f"unused {row['unused_bps'] / 1e9:7.2f} Gbps")
    print(f"worst cross-cluster leakage: {leakage['max_ratio']:.2e}")


if __name__ == "__main__":
    main()
