#!/usr/bin/env python3
"""Record the answers that benchmark passes on known scenarios are held to.

    python3 perfbench/record_expected.py

For each workload it takes every scenario of the default seed 1 and
scenario 0 of each seed in ``SEEDS``, runs the plain CLI
(``python -m clusterhop.cli plan``, then ``compare``, then ``leakage``) in
fresh interpreters, and stores ``t``, the sha256 of ``psi`` and the sha256
of every artifact but ``run_config.json`` in ``perfbench/expected.json``.
Re-record only when a change of the answer is intended and stated.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import PACKAGE, import_source

SEEDS = range(21)


def main() -> int:
    import_source()
    import checks
    from clusterhop.scenariogen import write_scenario
    from workloads import WORKLOADS

    answers = {}
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    with tempfile.TemporaryDirectory(dir=PACKAGE.parents[1]) as tmp:
        for name, workload in sorted(WORKLOADS.items()):
            answers[name] = {}
            scenario_seeds = sorted(
                {workload.scenario_seed(1, k) for k in range(workload.scenarios)}
                | {workload.scenario_seed(seed, 0) for seed in SEEDS})
            for scenario_seed in scenario_seeds:
                scenario = Path(tmp) / f"{name}-{scenario_seed}.json"
                write_scenario(workload.scenario(scenario_seed), scenario)
                out = Path(tmp) / f"{name}-{scenario_seed}"
                for command in ("plan", "compare", "leakage"):
                    subprocess.run(
                        [sys.executable, "-m", "clusterhop.cli", command,
                         "--scenario", str(scenario), "--out", str(out)],
                        env=env, check=True, timeout=600,
                        stdout=subprocess.DEVNULL)
                plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
                answers[name][str(scenario_seed)] = {
                    "t": plan["t"], "psi_sha256": checks.psi_digest(plan["psi"]),
                    "artifacts": checks.answer_digests(out)}
            print(f"{name}: {len(scenario_seeds)} scenarios", flush=True)
    doc = {
        "note": "per workload and scenario seed: t, the sha256 of plan.json "
                "psi (canonical JSON) and the sha256 of every artifact but "
                "run_config.json, written by the plain CLI plan, compare and "
                "leakage; see record_expected.py",
        "answers": answers,
    }
    checks.EXPECTED_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True)
                                    + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
