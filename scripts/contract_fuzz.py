#!/usr/bin/env python3
"""Contract fuzz of ``plan`` over perturbed copies of the reference scenario.

Makes 120 copies of ``scenarios/ref_71beam.json`` from ``random.Random(1)``,
each with one perturbation:

- one float field of ``system`` times 10**U(-40, 40);
- the demands of 1 to 20 random beams times one 10**U(-30, 30), or set to 0;
- ``N_slot`` from {1, 2, 3, 7, 255, 4097, 65537};
- ``N_P`` from {1, 2, 4, 5, 6, 12}.

Runs ``clusterhop plan`` on each in its own process, with RuntimeWarnings
as errors and a ``TIMEOUT`` of 20 s, writing only to a temporary
directory. Each written plan is then confirmed independently by
``tests/test_midsize_rungs.py``'s ``check_plan``: the instance is rebuilt
from the case's scenario file through ``cli.Pipeline``, and
``check_answer`` confirms with scipy's HiGHS that the plan's psi is the
lexicographically smallest max-min optimal window (outage and no-demand
plans included); scipy is required.
Prints one line per case (the perturbation, the exit code, and ``t`` and
the status of a written plan, or the last stderr line) and then a tally
by exit code. The contract is that every case plans (exit 0) with a
confirmed window, or is refused as invalid (exit 2) or infeasible (exit
3); any other exit code, a timeout (a search without a budget) or a plan
the check refutes breaks it, and the script then exits 1 after the tally.
CI runs it as a gate; it takes about two minutes:

    python3 scripts/contract_fuzz.py
"""
import collections
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import scipy.optimize  # noqa: F401  the check's HiGHS: required, not skipped

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_midsize_rungs import check_plan  # noqa: E402

N_SLOTS = (1, 2, 3, 7, 255, 4097, 65537)
N_PS = (1, 2, 4, 5, 6, 12)
CONTRACT = ("0", "2", "3")  # the exit codes a case may end with
REFUTED = "0 (refuted)"  # a plan that check_answer does not confirm
TIMEOUT = 20.0  # seconds per plan before it is killed


def perturbed(doc: dict, rng: random.Random) -> tuple[dict, str]:
    """A deep copy of ``doc`` with one random perturbation, and its label."""
    doc = json.loads(json.dumps(doc))
    system = doc["system"]
    kind = rng.choice(("system", "demands", "N_slot", "N_P"))
    if kind == "system":
        name = rng.choice(sorted(key for key, value in system.items()
                                 if isinstance(value, float)))
        factor = 10 ** rng.uniform(-40, 40)
        system[name] *= factor
        return doc, f"{name} x {factor:.3g}"
    if kind == "demands":
        beams = rng.sample(doc["beams"], rng.randint(1, 20))
        factor = 0.0 if rng.random() < 0.2 else 10 ** rng.uniform(-30, 30)
        for beam in beams:
            beam["demand_bps"] *= factor
        return doc, f"{len(beams)} demands x {factor:.3g}"
    system[kind] = rng.choice(N_SLOTS if kind == "N_slot" else N_PS)
    return doc, f"{kind} = {system[kind]}"


def refutation(scenario: Path, plan: dict) -> str:
    """Why ``check_answer`` refutes the plan's psi on the instance of the
    planned ``scenario`` file (``check_plan``), or '' when it confirms
    it."""
    try:
        check_plan(scenario.read_bytes(), plan["psi"])
    except AssertionError as exc:
        return (str(exc) or "check failed").splitlines()[0]
    return ""


def run_plan(scenario: Path, out: Path) -> tuple[str, str]:
    """``plan`` on ``scenario``: (exit code or 'timeout', detail); a
    written plan that ``check_answer`` refutes is ``REFUTED``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m",
           "clusterhop.cli", "plan", "--scenario", str(scenario),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", f"killed after {TIMEOUT:g} s"
    if proc.returncode == 0:
        plan = json.loads((out / "plan.json").read_text())
        detail = f"t = {plan['t']:.6g}, {plan['status']}"
        problem = refutation(scenario, plan)
        if problem:
            return REFUTED, f"{detail}; check_answer: {problem}"
        return "0", f"{detail}, confirmed"
    lines = proc.stderr.strip().splitlines()
    return str(proc.returncode), lines[-1] if lines else ""


def main() -> int:
    base = json.loads((ROOT / "scenarios" / "ref_71beam.json").read_text())
    rng = random.Random(1)
    tally = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(120):
            doc, label = perturbed(base, rng)
            scenario = Path(tmp) / f"case_{case}.json"
            scenario.write_text(json.dumps(doc))
            code, detail = run_plan(scenario, Path(tmp) / f"out_{case}")
            tally[code] += 1
            print(f"case {case:3d}: {label}: exit {code}: {detail}",
                  flush=True)
    print("tally: " + ", ".join(f"exit {code} {n}"
                                for code, n in sorted(tally.items())))
    broken = sum(n for code, n in tally.items() if code not in CONTRACT)
    if broken:
        print(f"error: {broken} cases ended outside exit codes "
              f"{', '.join(CONTRACT)} or wrote a refuted plan",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
