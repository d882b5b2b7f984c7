#!/usr/bin/env python3
"""Simplex work of the exact solver on each benchmark workload.

For every scenario in a workload's fixed seed-1 list (see
``perfbench/workloads.py``), builds the instance through ``cli.Pipeline``,
as ``clusterhop plan`` does, and counts the ``solve_bounded_lp`` calls,
and their pivots, made inside ``solve_illumination``, in total and per
phase: the root LP, the threshold walk and the lexicographic refinement.
It also counts the chain's LPs (every LP after the root LP) that end
without a pivot, decided by their restart basis alone, and how
many of those are infeasible, splits the pivots between the dual and the
primal simplex loop, counts the dual loop's stall perturbations (``_perturbed``
calls) and drift shifts (``_absorb_drift`` calls that shift the cost),
counts the refinement's feasibility probes (one ``_branch_and_bound``
search each) by outcome, counts the exchange's work (``_exchange_down``
calls, the positions a split lowered and how many of those reached 0, and
``_split`` calls), and prints the psi digest: sha256
over each scenario's ``psi.astype(int64).tobytes()``, in list order,
first 12 hex digits. It also prints the same digest over ``greedy_plan``'s
psi, run outside the counts. The counts depend only on the code and the
arithmetic, not on how fast the machine is; the digest depends only on the
answers. ``tests/test_solver_work.py`` pins them through ``solver_work``.
Prints one line per workload:

    python3 scripts/solver_work.py
"""
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from clusterhop import cli, planner, simplex  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PHASES = ("root LP", "threshold walk", "refinement")


def solver_work(workload) -> dict:
    """Work of ``solve_illumination`` over the workload's seed-1
    scenarios: [LPs, pivots] per phase, the chain LPs without a pivot
    (all, and infeasible ones), pivots per simplex loop, the dual
    loop's stall perturbations and drift shifts, refinement probes by
    outcome, the exchange's work, and the psi digests of the exact and
    the greedy plans. The phase changes
    when ``_root_lp`` returns and when ``_lex_smallest_optimal`` is
    called."""
    work = {phase: [0, 0] for phase in PHASES}
    unpivoted = {"all": 0, "infeasible": 0}  # chain LPs without a pivot
    loops = {"dual": 0, "primal": 0}
    shifts = {"perturbations": 0, "drift shifts": 0}
    probes = {"feasible": 0, "infeasible": 0}
    exchange = dict.fromkeys(("calls", "split", "split to 0", "_split calls"),
                             0)
    digest, greedy_digest = hashlib.sha256(), hashlib.sha256()
    phase = PHASES[0]
    originals = {(planner, name): getattr(planner, name) for name in (
        "solve_bounded_lp", "_root_lp", "_lex_smallest_optimal",
        "_branch_and_bound", "_exchange_down", "_split")}
    originals.update({(simplex._Lp, name): getattr(simplex._Lp, name)
                      for name in ("_dual_iterate", "_iterate",
                                   "_perturbed", "_absorb_drift")})

    def counted(*args, **kwargs):
        result = originals[planner, "solve_bounded_lp"](*args, **kwargs)
        work[phase][0] += 1
        work[phase][1] += result.pivots
        if phase != PHASES[0] and result.pivots == 0:
            unpivoted["all"] += 1
            unpivoted["infeasible"] += result.status == simplex.INFEASIBLE
        return result

    def walk_after_root(*args, **kwargs):
        nonlocal phase
        result = originals[planner, "_root_lp"](*args, **kwargs)
        phase = PHASES[1]
        return result

    def refinement(*args, **kwargs):
        nonlocal phase
        phase = PHASES[2]
        return originals[planner, "_lex_smallest_optimal"](*args, **kwargs)

    def search(*args, **kwargs):
        result = originals[planner, "_branch_and_bound"](*args, **kwargs)
        if phase == PHASES[2]:
            probes["infeasible" if result[0] is None else "feasible"] += 1
        return result

    def exchanged(w, i, *args):
        before = int(w[i])
        originals[planner, "_exchange_down"](w, i, *args)
        exchange["calls"] += 1
        if w[i] < before:
            exchange["split"] += 1
            exchange["split to 0"] += int(w[i] == 0)

    def split(*args):
        exchange["_split calls"] += 1
        return originals[planner, "_split"](*args)

    def loop(name, method):
        def run(lp, *args, **kwargs):
            before = lp.pivots
            try:
                return method(lp, *args, **kwargs)
            finally:
                loops[name] += lp.pivots - before
        return run

    def perturbed(lp, *args):
        shifts["perturbations"] += 1
        return originals[simplex._Lp, "_perturbed"](lp, *args)

    def absorbed(lp, cost, *args):
        shifted = originals[simplex._Lp, "_absorb_drift"](lp, cost, *args)
        shifts["drift shifts"] += shifted is not cost
        return shifted

    patches = {(planner, "solve_bounded_lp"): counted,
               (planner, "_root_lp"): walk_after_root,
               (planner, "_lex_smallest_optimal"): refinement,
               (planner, "_branch_and_bound"): search,
               (planner, "_exchange_down"): exchanged,
               (planner, "_split"): split,
               (simplex._Lp, "_dual_iterate"): loop(
                   "dual", originals[simplex._Lp, "_dual_iterate"]),
               (simplex._Lp, "_iterate"): loop(
                   "primal", originals[simplex._Lp, "_iterate"]),
               (simplex._Lp, "_perturbed"): perturbed,
               (simplex._Lp, "_absorb_drift"): absorbed}
    for k in range(workload.scenarios):
        doc = workload.scenario(workload.scenario_seed(1, k))
        inst = cli.Pipeline(json.dumps(doc).encode(), None, None, "ilp",
                            "").instance
        phase = PHASES[0]
        for (owner, name), patch in patches.items():
            setattr(owner, name, patch)
        try:
            plan = planner.solve_illumination(inst)
        finally:
            for (owner, name), original in originals.items():
                setattr(owner, name, original)
        digest.update(plan.psi.astype(np.int64).tobytes())
        greedy = planner.greedy_plan(inst)
        greedy_digest.update(greedy.psi.astype(np.int64).tobytes())
    return {"phases": work, "unpivoted": unpivoted, "loops": loops,
            "shifts": shifts,
            "probes": probes, "exchange": exchange,
            "digest": digest.hexdigest()[:12],
            "greedy digest": greedy_digest.hexdigest()[:12]}


def main() -> None:
    for name, workload in WORKLOADS.items():
        result = solver_work(workload)
        work = result["phases"]
        lps = sum(n for n, _ in work.values())
        pivots = sum(p for _, p in work.values())
        phases = ", ".join(f"{phase} {n} / {p}"
                           for phase, (n, p) in work.items())
        loops, probes = result["loops"], result["probes"]
        shifts, unpivoted = result["shifts"], result["unpivoted"]
        ex = result["exchange"]
        print(f"{name} seed 1: {workload.scenarios} scenarios, {lps} LPs, "
              f"{pivots} pivots (LPs / pivots: {phases}); chain LPs without "
              f"a pivot: {unpivoted['all']} ({unpivoted['infeasible']} "
              f"infeasible); pivots: dual "
              f"{loops['dual']}, primal {loops['primal']}; dual loop: "
              f"{shifts['perturbations']} stall perturbations, "
              f"{shifts['drift shifts']} drift shifts; refinement "
              f"probes: {probes['feasible']} feasible, "
              f"{probes['infeasible']} infeasible; exchange: {ex['calls']} "
              f"calls, lowered {ex['split']} by split "
              f"({ex['split to 0']} to 0), {ex['_split calls']} _split "
              f"calls; greedy psi digest {result['greedy digest']}; "
              f"psi digest {result['digest']}")


if __name__ == "__main__":
    main()
