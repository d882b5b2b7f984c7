#!/usr/bin/env python3
"""Simplex work of the exact solver on each benchmark workload.

For every scenario in a workload's fixed seed-1 list (see
``perfbench/workloads.py``), builds the instance through ``cli.Pipeline``,
as ``clusterhop plan`` does, solves it with ``solve_illumination`` and sums
the work that the solve counts itself, ``HoppingPlan.stats``: LPs and
pivots, in total and per phase (the root LP, the threshold walk and the
lexicographic refinement); the chain's LPs (every LP after the root LP)
that end without a pivot, decided by their restart basis alone, and how
many of those are infeasible; the pivots of the dual and of the primal
simplex loop; the dual loop's stall perturbations and drift shifts; the
refinement's feasibility probes by outcome; and the exchange's work (calls,
the positions a split lowered and how many of those reached 0, and
``_split`` calls). It prints the psi digest: sha256 over each scenario's
``psi.astype(int64).tobytes()``, in list order, first 12 hex digits, and
the same digest over ``greedy_plan``'s psi. The counts depend only on the
code and the arithmetic, not on how fast the machine is; the digest depends
only on the answers. ``tests/test_solver_work.py`` pins them through
``solver_work``. Prints one line per workload:

    python3 scripts/solver_work.py
"""
import collections
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from clusterhop import cli, planner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = {"root": "root LP", "walk": "threshold walk",
          "refinement": "refinement"}


def solver_work(workload) -> dict:
    """``plan.stats`` of ``solve_illumination``, summed over the
    workload's seed-1 scenarios: a Counter keyed by the field names of
    ``SolveStats``, a phase's ``LpStats`` fields as 'phase.field' (say
    'walk.pivots'), with the psi digests of the exact and the greedy
    plans under 'digest' and 'greedy digest'."""
    work = collections.Counter()
    digest, greedy_digest = hashlib.sha256(), hashlib.sha256()
    for k in range(workload.scenarios):
        doc = workload.scenario(workload.scenario_seed(1, k))
        inst = cli.Pipeline(json.dumps(doc).encode(), None, None, "ilp",
                            "").instance
        plan = planner.solve_illumination(inst)
        for name, value in dataclasses.asdict(plan.stats).items():
            if name in PHASES:
                work.update({f"{name}.{key}": n for key, n in value.items()})
            else:
                work[name] += value
        digest.update(plan.psi.astype(np.int64).tobytes())
        greedy = planner.greedy_plan(inst)
        greedy_digest.update(greedy.psi.astype(np.int64).tobytes())
    work["digest"] = digest.hexdigest()[:12]
    work["greedy digest"] = greedy_digest.hexdigest()[:12]
    return work


def main() -> None:
    for name, workload in WORKLOADS.items():
        w = solver_work(workload)
        lps = sum(w[f"{phase}.lps"] for phase in PHASES)
        pivots = sum(w[f"{phase}.pivots"] for phase in PHASES)
        phases = ", ".join(f"{label} {w[f'{phase}.lps']} / "
                           f"{w[f'{phase}.pivots']}"
                           for phase, label in PHASES.items())
        chain = {key: w[f"walk.{key}"] + w[f"refinement.{key}"]
                 for key in ("pivots", "unpivoted", "unpivoted_infeasible",
                             "perturbations", "drift_shifts")}
        # The root LP is the only LP with a cost, and the primal loop runs
        # only under one; every other LP runs the dual loop alone.
        print(f"{name} seed 1: {workload.scenarios} scenarios, {lps} LPs, "
              f"{pivots} pivots (LPs / pivots: {phases}); chain LPs without "
              f"a pivot: {chain['unpivoted']} "
              f"({chain['unpivoted_infeasible']} infeasible); pivots: dual "
              f"{chain['pivots']}, primal {w['root.pivots']}; dual loop: "
              f"{chain['perturbations']} stall perturbations, "
              f"{chain['drift_shifts']} drift shifts; refinement "
              f"probes: {w['feasible_probes']} feasible, "
              f"{w['infeasible_probes']} infeasible; exchange: "
              f"{w['exchanges']} calls, lowered {w['exchanges_lowered']} by "
              f"split ({w['exchanges_lowered_to_0']} to 0), {w['splits']} "
              f"_split calls; greedy psi digest {w['greedy digest']}; "
              f"psi digest {w['digest']}")


if __name__ == "__main__":
    main()
