#!/usr/bin/env python3
"""Simplex work of the exact solver on each benchmark workload.

For every scenario in a workload's fixed seed-1 list (see
``perfbench/workloads.py``), builds the instance as the benchmark's answer
check does (``perfbench/checks.py``) and counts the ``solve_bounded_lp``
calls, and their pivots, made inside ``solve_illumination``, in total and
per phase: the root LP, the threshold walk and the lexicographic
refinement. The counts depend only on the code and the arithmetic, not on
how fast the machine is. Prints one line per workload:

    python3 scripts/solver_work.py
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import reference  # noqa: E402
from clusterhop import planner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = ("root LP", "threshold walk", "refinement")


def solver_work(workload) -> dict[str, list[int]]:
    """[LPs, pivots] of ``solve_illumination`` per phase, summed over the
    workload's seed-1 scenarios. The phase changes when ``_root_lp``
    returns and when ``_lex_smallest_optimal`` is called."""
    work = {phase: [0, 0] for phase in PHASES}
    phase = PHASES[0]
    solve = planner.solve_bounded_lp
    root_lp = planner._root_lp
    refine = planner._lex_smallest_optimal

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        work[phase][0] += 1
        work[phase][1] += result.pivots
        return result

    def walk_after_root(*args, **kwargs):
        nonlocal phase
        result = root_lp(*args, **kwargs)
        phase = PHASES[1]
        return result

    def refinement(*args, **kwargs):
        nonlocal phase
        phase = PHASES[2]
        return refine(*args, **kwargs)

    for k in range(workload.scenarios):
        doc = workload.scenario(workload.scenario_seed(1, k))
        inst = reference(doc).instance
        phase = PHASES[0]
        planner.solve_bounded_lp = counted
        planner._root_lp = walk_after_root
        planner._lex_smallest_optimal = refinement
        try:
            planner.solve_illumination(inst)
        finally:
            planner.solve_bounded_lp = solve
            planner._root_lp = root_lp
            planner._lex_smallest_optimal = refine
    return work


def main() -> None:
    for name, workload in WORKLOADS.items():
        work = solver_work(workload)
        lps = sum(n for n, _ in work.values())
        pivots = sum(p for _, p in work.values())
        phases = ", ".join(f"{phase} {n} / {p}"
                           for phase, (n, p) in work.items())
        print(f"{name} seed 1: {workload.scenarios} scenarios, {lps} LPs, "
              f"{pivots} pivots (LPs / pivots: {phases})")


if __name__ == "__main__":
    main()
