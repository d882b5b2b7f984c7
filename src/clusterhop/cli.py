"""Command-line pipeline: scenario -> capacities -> snapshots -> planner
instance -> plan -> benchmark comparison -> reports.

Every subcommand is a pure function of (scenario file, flags, seed); output
files are written with sorted keys and repr'd floats so identical invocations
produce byte-identical artifacts. Exit codes: 0 ok, 2 parse/validate,
3 infeasible, 4 resource cap (including the simplex iteration limit), 5 I/O,
6 solver failure (singular simplex basis, an unbounded LP, a start basis
that is not primal feasible, or an LP point outside its node's box by
more than the simplex's feasibility tolerance).

Subcommands read their inputs from a ``Pipeline`` of lazily built stages.
``run`` keeps one, the most recent, keyed by the scenario file's bytes, the
seed override, the DVB-S2 table's bytes, the solver and the output
directory. So the subcommands of one run in one process share a load, a
channel build and a solve; separate processes share nothing.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import benchmarks, channel, metrics, precoding
from .errors import ClusterHopError, ValidationError
from .planner import HoppingPlan, IlpInstance, greedy_plan, solve_illumination
from .scenario import (Scenario, aggregate_and_scale_demands, load_scenario,
                       scenario_summary)
from .snapshots import SnapshotSet, build_snapshot_set, v_csv_lines

SOLVERS = ("ilp", "greedy")
SCHEME_CH = "ch"
ALL_SCHEMES = (SCHEME_CH, benchmarks.FOUR_COLOR, benchmarks.ONE_COLOR_BH)


@dataclass(frozen=True)
class RunManifest:
    scenario_path: str
    out_dir: str
    command: str
    solver: str = "ilp"
    seed: int | None = None
    dvbs2_table: str | None = None


@dataclass(frozen=True)
class Pipeline:
    """The stages of one run, each built from the run's inputs on first use
    and then kept; a stage that raises keeps nothing. Pipelines with equal
    inputs are equal, which is how ``run`` finds its memoized one."""

    scenario_bytes: bytes      # the scenario file's content
    seed: int | None           # --seed
    dvbs2_table: bytes | None  # the MODCOD CSV's content; None: built-in
    solver: str
    out_dir: str               # read by no stage: runs elsewhere recompute

    @cached_property
    def scenario(self) -> Scenario:
        scenario = load_scenario(self.scenario_bytes)
        if self.seed is not None:
            if self.seed < 0:
                raise ValidationError("--seed must be >= 0")
            system = dataclasses.replace(scenario.system, seed=self.seed)
            scenario = dataclasses.replace(scenario, system=system)
        return scenario

    @cached_property
    def table(self) -> precoding.Dvbs2Table:
        return precoding.load_dvbs2_table(self.dvbs2_table)

    @cached_property
    def channels(self) -> list[np.ndarray]:
        return channel.build_all_cluster_channels(self.scenario)

    @cached_property
    def capacities(self) -> precoding.CapacityVector:
        return precoding.cluster_capacities(self.scenario, self.channels,
                                            self.table)

    @cached_property
    def snapshots(self) -> SnapshotSet:
        system = self.scenario.system
        return build_snapshot_set(self.scenario.adjacency, system.n_p,
                                  self.capacities.p_cluster_bits)

    @cached_property
    def instance(self) -> IlpInstance:
        _, m = aggregate_and_scale_demands(self.scenario)
        return IlpInstance(l=self.snapshots.l, m=m,
                           n_slot=self.scenario.system.n_slot)

    @cached_property
    def plan(self) -> HoppingPlan:
        solve = greedy_plan if self.solver == "greedy" else solve_illumination
        return solve(self.instance)

    @cached_property
    def field(self) -> np.ndarray:
        return channel.build_beam_field(self.scenario)


_memo: Pipeline | None = None


def _pipeline(manifest: RunManifest) -> Pipeline:
    """The memoized pipeline if it has the manifest's inputs, else a new one
    in its place."""
    global _memo
    table = manifest.dvbs2_table
    inputs = Pipeline(Path(manifest.scenario_path).read_bytes(), manifest.seed,
                      None if table is None else Path(table).read_bytes(),
                      manifest.solver, manifest.out_dir)
    if inputs != _memo:
        _memo = inputs  # drops the old stages before any new one is built
    return _memo


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``: the one writer of every artifact.

    An existing file is rewritten in place, opened without ``O_TRUNC`` and
    cut at the end of the new text, never truncated to zero: on ext4
    (``auto_da_alloc``, its default) closing a file truncated to zero starts
    its writeback, and the next truncate of it waits for that writeback.
    With ``Path.write_text`` the third ``run_config.json`` of a
    plan/compare/leakage pass waited ~50 ms (ext4 on a virtio disk), 85% of
    the pass. Unlinking first or ``os.replace`` waits as long, and neither
    writes through a symlinked artifact.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def _write_lines(path: Path, lines: list[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for dicts with str keys.

    With ``indent`` set, ``json`` encodes in pure Python. Here every scalar,
    and every list that holds no container, goes through its C encoder: the
    item separator carries the newline and the indent.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        inner = indent + "  "
        items = [f"{json.dumps(key)}: {_json_text(obj[key], inner)}"
                 for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if any(issubclass(t, (dict, list, tuple))
               for t in set(map(type, obj))):
            body = (",\n" + inner).join(_json_text(x, inner) for x in obj)
        else:
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj)


def _write_json(path: Path, obj) -> None:
    _write_text(path, _json_text(obj) + "\n")


def _leakage_text(ratios: np.ndarray, schedule: np.ndarray) -> str:
    """What ``_write_json`` writes for ``{"per_slot_worst_ratio":
    ratios[schedule], "max_ratio": its maximum}``, a non-empty schedule.

    A window lights only a few snapshots, so each scheduled snapshot's
    ratio is encoded once (``json.dumps`` of a float is the C encoder's
    text for it, ``Infinity`` included) and its text repeated in its slots.
    """
    used = np.unique(schedule)
    texts = np.empty(len(ratios), dtype=object)
    texts[used] = [json.dumps(x) for x in ratios[used].tolist()]
    slots = ",\n    ".join(texts[schedule].tolist())
    return (f'{{\n  "max_ratio": {json.dumps(float(ratios[used].max()))},\n'
            f'  "per_slot_worst_ratio": [\n    {slots}\n  ]\n}}\n')


def _knobs(manifest: RunManifest, scenario: Scenario) -> dict:
    return {
        "command": manifest.command,
        "scenario": str(manifest.scenario_path),
        "solver": manifest.solver,
        "schemes": list(ALL_SCHEMES),
        "seed": scenario.system.seed,
        "dvbs2_table": manifest.dvbs2_table or "builtin",
        "adjacency_rule": "center distance <= 1.1 x nominal pitch",
        "rx_gain_dbi": channel.RX_GAIN_DBI,
        "slant_range_m": channel.SLANT_RANGE_M,
        "polarization_factor": 2 if scenario.system.dual_polarization else 1,
    }


def run(manifest: RunManifest) -> list[str]:
    """Execute one subcommand; returns the list of files written."""
    pipe = _pipeline(manifest)
    # Every command loads both, so a bad input fails alike under any command.
    scenario, table = pipe.scenario, pipe.table
    out = Path(manifest.out_dir)
    written: list[str] = []

    def emit(name: str, writer) -> None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / name
        writer(path)
        written.append(str(path))

    if manifest.command == "validate":
        print(_json_text(scenario_summary(scenario)))
        return written

    if manifest.command == "capacity":
        caps = pipe.capacities
        snir_lin, se, r = caps.snir_beam, caps.se_beam, caps.r_beam_bps
        assignment = {b: j for j, ms in enumerate(scenario.clusters)
                      for b in ms}

        def beams_csv(path):
            lines = ["beam_id,cluster_id,snir_db,se_bits_per_symbol,capacity_bps"]
            for i in range(scenario.n_beams):
                snir_db = (10 * math.log10(snir_lin[i])
                           if snir_lin[i] > 0 else -math.inf)
                lines.append(
                    f"{i + 1},{assignment[i]},{float(snir_db)!r},"
                    f"{float(se[i])!r},{float(r[i])!r}"
                )
            _write_lines(path, lines)

        def clusters_csv(path):
            lines = ["cluster_id,n_beams,capacity_bps,supply_bits_per_slot"]
            for j in range(scenario.n_clusters):
                lines.append(
                    f"{j},{len(scenario.clusters[j])},"
                    f"{float(caps.c_cluster_bps[j])!r},"
                    f"{float(caps.p_cluster_bits[j])!r}"
                )
            _write_lines(path, lines)

        emit("capacity_beams.csv", beams_csv)
        emit("capacity_clusters.csv", clusters_csv)

    elif manifest.command == "snapshots":
        snaps = pipe.snapshots
        emit("snapshots.csv", lambda p: _write_lines(p, v_csv_lines(snaps.v)))

    elif manifest.command == "plan":
        plan, snaps = pipe.plan, pipe.snapshots
        doc = {
            "psi": {str(i): int(plan.psi[i]) for i in np.flatnonzero(plan.psi)},
            "t": None if math.isinf(plan.t) else plan.t,
            "s_bits": plan.s.tolist(),
            "schedule": plan.schedule.tolist(),
            "status": plan.solver_status,
            "selected_snapshots": {
                str(i): list(snaps.members(int(i)))
                for i in np.flatnonzero(plan.psi)
            },
        }
        emit("plan.json", lambda p: _write_json(p, doc))

    elif manifest.command == "compare":
        offered = {
            SCHEME_CH: metrics.plan_beam_offered(pipe.plan, scenario),
            benchmarks.FOUR_COLOR: benchmarks.four_color_evaluate(
                scenario, pipe.field, table),
            benchmarks.ONE_COLOR_BH: benchmarks.bh_evaluate(
                scenario, pipe.field, table),
        }
        reports = [metrics.score(offered[scheme], scenario, scheme)
                   for scheme in ALL_SCHEMES]
        for report in reports:
            emit(f"report_beams_{report.scheme}.csv",
                 lambda p, r=report: _write_lines(
                     p, metrics.beam_csv_lines(r)))
            emit(f"report_clusters_{report.scheme}.csv",
                 lambda p, r=report: _write_lines(
                     p, metrics.cluster_csv_lines(r)))
        emit("summary.json",
             lambda p: _write_json(p, metrics.summary_dict(reports)))

    elif manifest.command == "leakage":
        ratios = metrics.cross_cluster_leakage(scenario, pipe.field,
                                               pipe.snapshots, pipe.plan)
        text = _leakage_text(ratios, pipe.plan.schedule)
        emit("leakage.json", lambda p: _write_text(p, text))

    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown command {manifest.command}")

    if written:
        config = _knobs(manifest, scenario)
        config["files"] = sorted(Path(p).name for p in written)
        path = out / "run_config.json"
        _write_json(path, config)
        written.append(str(path))
    return written


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterhop",
        description="Cluster-hopping planner for multi-beam HTS systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "load and validate a scenario file"),
        ("capacity", "per-beam and per-cluster MMSE capacities"),
        ("snapshots", "enumerate valid snapshots and dump the 0/1 matrix"),
        ("plan", "solve the illumination plan and write plan.json"),
        ("compare", "evaluate CH against the benchmark schemes"),
        ("leakage", "cross-cluster interference diagnostic for the plan"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, help="scenario JSON file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--solver", choices=SOLVERS, default="ilp",
                         help="ilp: the exact plan; greedy: the same t, "
                              "without the lexicographic refinement")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the scenario RNG seed")
        cmd.add_argument("--dvbs2-table", default=None,
                         help="alternative MODCOD CSV")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    manifest = RunManifest(
        scenario_path=args.scenario,
        out_dir=args.out,
        command=args.command,
        solver=args.solver,
        seed=args.seed,
        dvbs2_table=args.dvbs2_table,
    )
    try:
        written = run(manifest)
    except ClusterHopError as exc:
        print(f"error: {exc.error_class}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 5
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
