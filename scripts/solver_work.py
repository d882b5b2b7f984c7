#!/usr/bin/env python3
"""Simplex work of the exact solver on each benchmark workload.

For every scenario in a workload's fixed seed-1 list (see
``perfbench/workloads.py``), builds the instance as the benchmark's answer
check does (``perfbench/checks.py``) and counts the ``solve_bounded_lp``
calls, and their pivots, made inside ``solve_illumination``. The counts
depend only on the code and the arithmetic, not on how fast the machine is.
Prints one line per workload:

    python3 scripts/solver_work.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import reference  # noqa: E402
from clusterhop import planner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def solver_work(workload) -> tuple[int, int]:
    """(LPs, pivots) of ``solve_illumination`` summed over the workload's
    seed-1 scenarios."""
    lps = pivots = 0
    solve = planner.solve_bounded_lp

    def counted(*args, **kwargs):
        nonlocal lps, pivots
        result = solve(*args, **kwargs)
        lps += 1
        pivots += result.pivots
        return result

    for k in range(workload.scenarios):
        doc = workload.scenario(workload.scenario_seed(1, k))
        inst = reference(doc).instance
        planner.solve_bounded_lp = counted
        try:
            planner.solve_illumination(inst)
        finally:
            planner.solve_bounded_lp = solve
    return lps, pivots


def main() -> None:
    for name, workload in WORKLOADS.items():
        lps, pivots = solver_work(workload)
        print(f"{name} seed 1: {workload.scenarios} scenarios, {lps} LPs, "
              f"{pivots} pivots")


if __name__ == "__main__":
    main()
