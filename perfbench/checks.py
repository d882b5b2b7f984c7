"""Answer checks for one benchmark pass (plan, compare, leakage).

The reference instance is rebuilt from the scenario document with the
library's own stages, outside any timed or traced region, and the artifacts
the CLI wrote are checked against it. On scenarios recorded in
``expected.json`` (see ``record_expected.py``), ``t``, ``psi`` and the bytes
of every artifact but ``run_config.json`` must also match what the plain CLI
wrote. A speed-up must never buy a different answer, so any problem found
here fails the pass.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clusterhop import channel, precoding
from clusterhop.planner import IlpInstance, lp_relaxation_bound
from clusterhop.scenario import aggregate_and_scale_demands, scenario_from_dict
from clusterhop.snapshots import build_snapshot_set

REL_TOL = 1e-9
EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Reference:
    instance: IlpInstance
    lp_bound: float


def reference(doc: dict) -> Reference:
    scenario = scenario_from_dict(doc)
    table = precoding.load_dvbs2_table()
    caps = precoding.cluster_capacities(
        scenario, channel.build_all_cluster_channels(scenario), table)
    snaps = build_snapshot_set(scenario.adjacency, scenario.system.n_p,
                               caps.p_cluster_bits)
    _, m = aggregate_and_scale_demands(scenario)
    instance = IlpInstance(l=snaps.l, m=m, n_slot=scenario.system.n_slot)
    return Reference(instance, lp_relaxation_bound(instance))


def psi_digest(psi: dict) -> str:
    """sha256 of plan.json's ``psi`` object in canonical JSON."""
    text = json.dumps(psi, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file a pass wrote, by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def answer_digests(out_dir: Path) -> dict[str, str]:
    """``artifact_digests`` without ``run_config.json``, which names the
    scenario file's path and so differs between checkouts."""
    digests = artifact_digests(out_dir)
    del digests["run_config.json"]
    return digests


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["answers"]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_pass(out_dir: Path, ref: Reference,
               expected: dict | None = None) -> list[str]:
    """Problems with the artifacts of one pass; empty when all is right.

    ``expected`` holds the recorded ``t``, ``psi_sha256`` and artifact
    digests of this scenario, when it has them.
    """
    inst = ref.instance
    plan = json.loads((out_dir / "plan.json").read_text(encoding="utf-8"))
    psi = np.zeros(inst.n_snapshots, dtype=int)
    for index, count in plan["psi"].items():
        psi[int(index)] = count
    problems = []
    if psi.sum() != inst.n_slot:
        problems.append(f"sum(psi) = {psi.sum()} != N_slot = {inst.n_slot}")
    schedule = np.asarray(plan["schedule"], dtype=int)
    if (len(schedule) != inst.n_slot
            or (np.bincount(schedule, minlength=inst.n_snapshots) != psi).any()):
        problems.append("schedule does not hold snapshot i exactly psi_i times")
    demanded = inst.m > 0
    t_ref = float(((inst.l @ psi)[demanded] / inst.m[demanded]).min())
    t = plan["t"]
    if not _close(t, t_ref):
        problems.append(f"t = {t!r} but min(s/m) = {t_ref!r}")
    if t > ref.lp_bound * (1 + REL_TOL):
        problems.append(f"t = {t!r} exceeds the LP bound {ref.lp_bound!r}")
    if expected is not None:
        if not _close(t, expected["t"]):
            problems.append(f"t = {t!r}, recorded {expected['t']!r}")
        if psi_digest(plan["psi"]) != expected["psi_sha256"]:
            problems.append("psi differs from the recorded plan")
        digests = answer_digests(out_dir)
        for name, digest in sorted(expected["artifacts"].items()):
            if digests.get(name) != digest:
                problems.append(f"{name} differs from the recorded one")
        for name in sorted(digests.keys() - expected["artifacts"].keys()):
            problems.append(f"{name} was not recorded")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if not _close(summary["ch"]["min_ratio"], t):
        problems.append(f"compare: ch min_ratio {summary['ch']['min_ratio']!r}"
                        f" != plan t {t!r}")
    leakage = json.loads((out_dir / "leakage.json").read_text(encoding="utf-8"))
    if len(leakage["per_slot_worst_ratio"]) != inst.n_slot:
        problems.append("leakage: one ratio per slot expected")
    return problems
