"""Workload shapes of the clusterhop benchmark and the scenarios they generate.

Every scenario comes from ``scenariogen.hex_scenario_dict``. A run with seed
``s`` uses a fixed list of ``Workload.scenarios`` scenarios: scenario ``k``
uses the scenario seed ``s + k * SEED_STRIDE`` for both the demand draw
(``heterogeneous_demands(n, default_rng(seed))``) and ``system.seed`` (the
channel phases). Scenario 0 of seed ``s`` is therefore the plain seed-``s``
scenario. Solve work varies a lot from one scenario to the next (the LP count
on ``solver_mid`` ranges from about 40 to 130), so a run averages over many
scenarios instead of repeating one; the list is fixed so that the same seed
times the same work however fast the code is.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clusterhop.scenariogen import heterogeneous_demands, hex_scenario_dict

SEED_STRIDE = 100_003

SCALING_WALL = (
    "On the 71-beam/12-cluster/N_P=3 shape, every seed tried at N_slot 8192 "
    "or 16384 ran past 60 s per solve; seed 1 at N_slot 16384 ran over 18 "
    "minutes before it was killed. 100 beams/16 clusters/N_P=3 takes 8-17 s "
    "per solve and 120/20/3 takes 117 s. No workload sits above this wall "
    "until solves have a budget."
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_beams: int
    n_clusters: int
    n_p: int
    n_slot: int
    scenarios: int
    why: str

    def scenario_seed(self, seed: int, k: int) -> int:
        return seed + k * SEED_STRIDE

    def scenario(self, scenario_seed: int) -> dict:
        """The JSON-ready scenario document for one scenario seed."""
        demands = heterogeneous_demands(self.n_beams,
                                        np.random.default_rng(scenario_seed))
        return hex_scenario_dict(
            self.n_beams, self.n_clusters,
            system={"N_P": self.n_p, "N_slot": self.n_slot,
                    "seed": scenario_seed},
            demands=demands)


WORKLOADS = {w.name: w for w in (
    Workload(
        "solver_mid", 76, 13, 3, 256, 22,
        "54 valid snapshots: the simplex and the lexicographic refinement do "
        "almost all the work; channel work is a few % of a pass."),
    Workload(
        "wide_field", 300, 12, 3, 256, 22,
        "300 beams in 12 clusters of 25, 29 snapshots: channel construction "
        "and the benchmark schemes do most of the work, the solver little."),
    Workload(
        "long_window", 71, 12, 3, 4096, 18,
        "reference shape with N_slot 4096: the per-slot loops (greedy_plan, "
        "expand_schedule) and a 16x larger objective grid weigh far more "
        "than on solver_mid."),
)}
