"""The exact solver's work on the benchmark workloads, pinned.

The solve counts its own work, ``HoppingPlan.stats``, and
``scripts/solver_work.py`` sums it over each workload's seed-1 scenario
list. The counts depend only on the code and the arithmetic, not on the
machine's speed, so a change to the pivot path, the threshold walk, the
refinement's probes or the exchange moves a pin here; a change that means
to move one updates its value. ``tests/test_simplex.py`` checks the counts
against a wrapper of ``planner.solve_bounded_lp``.
"""
import pytest

from conftest import WORKLOADS, load_by_path

SCRIPT = load_by_path("scripts/solver_work.py", "solver_work")

# chain: LPs / pivots of the threshold walk plus the refinement, which the
# root LP's bound does not move unless a threshold moves; root LP pivots:
# from the trivial witness's basis; exchange: calls, positions lowered by a
# split, of those the ones lowered to 0 (the _split call count is reported,
# not pinned); unpivoted: the chain LPs that end without a pivot, decided
# by their restart basis alone, and of those the infeasible ones
PINS = {
    "solver_mid": {"psi digest": "531ed7eede8d",
                   "greedy psi digest": "9687c0432047",
                   "chain": (548, 1387), "root LP pivots": 508,
                   "exchange": (647, 246, 223), "unpivoted": (221, 170)},
    "wide_field": {"psi digest": "6d6e3bed8ea9",
                   "greedy psi digest": "56d72fc8887f",
                   "chain": (722, 740), "root LP pivots": 355,
                   "exchange": (573, 48, 36), "unpivoted": (398, 257)},
    "long_window": {"psi digest": "dc3710d543ab",
                    "greedy psi digest": "b71877e112b7",
                    "chain": (525, 1007), "root LP pivots": 417,
                    "exchange": (465, 123, 76), "unpivoted": (251, 182)},
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_1_solver_work_is_pinned(name):
    pins = PINS[name]  # a workload without pins fails here
    work = SCRIPT.solver_work(WORKLOADS[name])
    chain = {key: work[f"walk.{key}"] + work[f"refinement.{key}"]
             for key in ("lps", "pivots", "unpivoted", "unpivoted_infeasible")}
    assert {
        "psi digest": work["digest"],
        "greedy psi digest": work["greedy digest"],
        "chain": (chain["lps"], chain["pivots"]),
        "root LP pivots": work["root.pivots"],
        "exchange": (work["exchanges"], work["exchanges_lowered"],
                     work["exchanges_lowered_to_0"]),
        "unpivoted": (chain["unpivoted"], chain["unpivoted_infeasible"]),
    } == pins
