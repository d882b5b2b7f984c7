"""Demand-matching reports: per-beam redistribution, unmet/unused capacity,
fairness ratios, and the cross-cluster leakage diagnostic."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .planner import HoppingPlan
from .scenario import Scenario, aggregate_and_scale_demands, cluster_sums
from .snapshots import SnapshotSet


@dataclass(frozen=True)
class CapacityReport:
    scheme: str
    beam_demand_bps: np.ndarray
    beam_offered_bps: np.ndarray
    cluster_demand_bps: np.ndarray
    cluster_offered_bps: np.ndarray
    cluster_ratios: np.ndarray   # offered/demand per cluster, inf when demand 0
    min_ratio: float
    unmet_total_bps: float
    unused_total_bps: float
    beams_by_demand: np.ndarray  # beam indices sorted by rising demand


def redistribute(cluster_offered_bps: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Split each cluster's offered capacity over its beams proportionally to
    their demands (equal split when the whole cluster demands nothing).

    The last beam of a cluster takes the remainder, so the per-cluster sums
    reproduce the input exactly.
    """
    cluster_offered_bps = np.asarray(cluster_offered_bps, dtype=float)
    if (cluster_offered_bps < 0).any():
        raise ValidationError("cluster offered capacity must be >= 0")
    offered = np.zeros(scenario.n_beams)
    for j, members in enumerate(scenario.clusters):
        total = cluster_offered_bps[j]
        demands = scenario.demands[list(members)]
        d_sum = demands.sum()
        if d_sum > 0:
            shares = demands / d_sum
        else:
            shares = np.full(len(members), 1.0 / len(members))
        running = 0.0
        for local, beam in enumerate(members):
            if local == len(members) - 1:
                offered[beam] = max(total - running, 0.0)
            else:
                offered[beam] = total * shares[local]
                running += offered[beam]
    return offered


def score(per_beam_offered_bps: np.ndarray, scenario: Scenario,
          scheme: str) -> CapacityReport:
    """Demand-matching report for one scheme's per-beam offered capacity."""
    offered = np.asarray(per_beam_offered_bps, dtype=float)
    if offered.shape != (scenario.n_beams,):
        raise ValidationError("offered vector length does not match the beam count")
    demand = scenario.demands
    gap = offered - demand
    unmet = float(math.fsum(float(-g) for g in gap if g < 0))
    unused = float(math.fsum(float(g) for g in gap if g > 0))

    cluster_offered = cluster_sums(offered, scenario.clusters)
    cluster_demand, _ = aggregate_and_scale_demands(scenario)
    with np.errstate(divide="ignore"):
        ratios = np.where(cluster_demand > 0,
                          cluster_offered / np.where(cluster_demand > 0,
                                                     cluster_demand, 1.0),
                          np.inf)
    finite = ratios[np.isfinite(ratios)]
    min_ratio = float(finite.min()) if finite.size else math.inf
    order = np.lexsort((np.arange(scenario.n_beams), demand))
    return CapacityReport(
        scheme=scheme,
        beam_demand_bps=demand.copy(),
        beam_offered_bps=offered.copy(),
        cluster_demand_bps=cluster_demand,
        cluster_offered_bps=cluster_offered,
        cluster_ratios=ratios,
        min_ratio=min_ratio,
        unmet_total_bps=unmet,
        unused_total_bps=unused,
        beams_by_demand=order,
    )


def plan_beam_offered(plan: HoppingPlan, scenario: Scenario) -> np.ndarray:
    """Per-beam average offered rate (bps) implied by a hopping plan."""
    window = scenario.system.hopping_window_s
    cluster_rate = plan.s / window
    return redistribute(cluster_rate, scenario)


def cross_cluster_leakage(scenario: Scenario, gains: np.ndarray,
                          snapshot_set: SnapshotSet,
                          plan: HoppingPlan) -> np.ndarray:
    """Worst-case co-slot interference from other active clusters.

    For each snapshot the plan schedules: the largest (over active
    beam-center users) ratio of power received from the other active
    clusters' feeds to the user's own-beam signal power, with every active
    feed at the per-beam power. Zero when a single cluster is active.
    Validates the assumption that non-adjacent clusters do not meaningfully
    interfere.

    Returns the read-only ratios per snapshot, shape ``(N_ss,)``, 0.0 for a
    snapshot the plan never schedules; a slot's ratio is its snapshot's,
    ``ratios[plan.schedule]``. Each scheduled snapshot is evaluated once,
    one block of its clusters' members against the other active beams per
    active cluster; a row sum of that block equals the user's own sum over
    the other beams bit for bit. A NaN ratio never wins the maximum.
    """
    power = gains ** 2  # per-beam transmit power cancels in the ratio
    members = scenario.clusters
    worst = np.zeros(snapshot_set.n_snapshots)
    for snap in np.unique(plan.schedule).tolist():
        active = snapshot_set.members(snap)
        for j in active:
            own = list(members[j])
            others = [b for l in active if l != j for b in members[l]]
            leak = power[np.ix_(own, others)].sum(axis=1)
            worst[snap] = np.fmax.reduce(leak / power[own, own],
                                         initial=worst[snap])
    worst.flags.writeable = False
    return worst


def beam_csv_lines(report: CapacityReport) -> list[str]:
    """Beam-level CSV rows sorted by rising demand."""
    lines = ["beam_id,demand_bps,offered_bps,scheme"]
    for idx in report.beams_by_demand:
        lines.append(
            f"{idx + 1},{float(report.beam_demand_bps[idx])!r},"
            f"{float(report.beam_offered_bps[idx])!r},{report.scheme}"
        )
    return lines


def cluster_csv_lines(report: CapacityReport) -> list[str]:
    lines = ["cluster_id,demand_bps,offered_bps,ratio,scheme"]
    for j in range(len(report.cluster_demand_bps)):
        ratio = report.cluster_ratios[j]
        ratio_txt = repr(float(ratio)) if np.isfinite(ratio) else "inf"
        lines.append(
            f"{j},{float(report.cluster_demand_bps[j])!r},"
            f"{float(report.cluster_offered_bps[j])!r},{ratio_txt},{report.scheme}"
        )
    return lines


def summary_dict(reports: list[CapacityReport]) -> dict:
    return {
        r.scheme: {
            "unmet_bps": r.unmet_total_bps,
            "unused_bps": r.unused_total_bps,
            "min_ratio": r.min_ratio if math.isfinite(r.min_ratio) else None,
        }
        for r in reports
    }
