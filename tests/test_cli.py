import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from clusterhop import channel, cli, precoding, simplex
from clusterhop.cli import main
from clusterhop.planner import IlpInstance, lp_relaxation_bound
from clusterhop.scenario import aggregate_and_scale_demands

from conftest import toy_doc


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _run(args):
    return main([str(a) for a in args])


def test_validate_ok(tmp_path, toy_file, capsys):
    assert _run(["validate", "--scenario", toy_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n_beams"] == 8
    assert out["n_clusters"] == 4


def test_missing_file_is_io_error(tmp_path, capsys):
    rc = _run(["validate", "--scenario", tmp_path / "absent.json"])
    assert rc == 5
    assert "error: io:" in capsys.readouterr().err


def test_malformed_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    rc = _run(["validate", "--scenario", path])
    assert rc == 2
    assert "error: parse:" in capsys.readouterr().err


def test_invalid_scenario_is_validate_error(tmp_path, capsys):
    doc = toy_doc()
    doc["clusters"][1] = [2, 3]
    rc = _run(["validate", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert "error: validate:" in capsys.readouterr().err


def test_infeasible_exit_code(tmp_path, capsys):
    doc = toy_doc(adjacency="complete")
    rc = _run(["plan", "--scenario", _write(tmp_path, doc),
               "--out", tmp_path / "out"])
    assert rc == 3
    assert "error: infeasible:" in capsys.readouterr().err


def test_cap_exceeded_exit_code(tmp_path, capsys):
    beams = [{"id": i + 1, "u": float(3 * i), "v": 0.0, "demand_bps": 1e8}
             for i in range(40)]
    doc = toy_doc()
    doc["beams"] = beams
    doc["clusters"] = [[i + 1] for i in range(40)]
    del doc["adjacency"]
    doc["system"]["N_P"] = 20
    rc = _run(["snapshots", "--scenario", _write(tmp_path, doc),
               "--out", tmp_path / "out"])
    assert rc == 4
    assert "error: cap-exceeded:" in capsys.readouterr().err


def test_objective_grid_cap_exit_code(tmp_path, capsys):
    doc = toy_doc(n_slot=2_000_000)
    rc = _run(["plan", "--scenario", _write(tmp_path, doc),
               "--out", tmp_path / "out"])
    assert rc == 4
    assert "error: cap-exceeded:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simplex_iteration_limit_exit_code(tmp_path, toy_file, capsys,
                                          monkeypatch):
    monkeypatch.setattr(simplex, "_ITERATION_LIMIT", 1)
    rc = _run(["plan", "--scenario", toy_file, "--out", tmp_path / "out"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cap-exceeded: simplex iteration limit")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_nan_demand_is_validate_error(tmp_path, capsys):
    doc = toy_doc()
    doc["beams"][0]["demand_bps"] = float("nan")
    rc = _run(["plan", "--scenario", _write(tmp_path, doc),
               "--out", tmp_path / "out"])
    assert rc == 2
    assert "error: validate:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "file"])
def test_negative_seed_is_validate_error(tmp_path, capsys, where):
    doc = toy_doc()
    args = ["plan", "--out", tmp_path / "out"]
    if where == "flag":
        args += ["--seed", "-1"]
    else:
        doc["system"]["seed"] = -1
    rc = _run(args + ["--scenario", _write(tmp_path, doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: validate:") and "seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_plan_outputs(tmp_path, toy_file, capsys):
    out = tmp_path / "out"
    assert _run(["plan", "--scenario", toy_file, "--out", out]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert sum(plan["psi"].values()) == 8
    assert len(plan["schedule"]) == 8
    assert plan["status"] == "optimal"
    for key, members in plan["selected_snapshots"].items():
        assert key in plan["psi"]
        assert len(members) == 2
    config = json.loads((out / "run_config.json").read_text())
    assert config["solver"] == "ilp"
    assert "plan.json" in config["files"]


def test_plan_solver_choices(tmp_path, toy_file):
    for solver, status in [("greedy", "heuristic"), ("oracle", "optimal")]:
        out = tmp_path / f"out_{solver}"
        assert _run(["plan", "--scenario", toy_file, "--out", out,
                     "--solver", solver]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["status"] == status


def test_compare_outputs(tmp_path, toy_file):
    out = tmp_path / "cmp"
    assert _run(["compare", "--scenario", toy_file, "--out", out]) == 0
    for scheme in ("ch", "4c_fr", "1c_ffr_bh"):
        beams = (out / f"report_beams_{scheme}.csv").read_text().splitlines()
        assert beams[0] == "beam_id,demand_bps,offered_bps,scheme"
        assert len(beams) == 9
        clusters = (out / f"report_clusters_{scheme}.csv").read_text().splitlines()
        assert len(clusters) == 5
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"ch", "4c_fr", "1c_ffr_bh"}


def test_capacity_outputs(tmp_path, toy_file):
    out = tmp_path / "cap"
    assert _run(["capacity", "--scenario", toy_file, "--out", out]) == 0
    beams = (out / "capacity_beams.csv").read_text().splitlines()
    assert len(beams) == 9
    clusters = (out / "capacity_clusters.csv").read_text().splitlines()
    assert len(clusters) == 5


def test_snapshots_output(tmp_path, toy_file):
    out = tmp_path / "snaps"
    assert _run(["snapshots", "--scenario", toy_file, "--out", out]) == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    # path adjacency on 4 clusters with N_P=2 gives 3 snapshots
    assert lines[0] == "s0,s1,s2"
    assert len(lines) == 5


def test_leakage_output(tmp_path, toy_file):
    out = tmp_path / "leak"
    assert _run(["leakage", "--scenario", toy_file, "--out", out]) == 0
    doc = json.loads((out / "leakage.json").read_text())
    assert len(doc["per_slot_worst_ratio"]) == 8
    assert doc["max_ratio"] >= 0


def test_byte_identical_reruns(tmp_path, toy_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert _run(["compare", "--scenario", toy_file, "--out", out]) == 0
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_nothing_but_seed(tmp_path, toy_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert _run(["capacity", "--scenario", toy_file, "--out", out_a]) == 0
    assert _run(["capacity", "--scenario", toy_file, "--out", out_b,
                 "--seed", "12345"]) == 0
    cfg_a = json.loads((out_a / "run_config.json").read_text())
    cfg_b = json.loads((out_b / "run_config.json").read_text())
    assert cfg_a["seed"] == 7
    assert cfg_b["seed"] == 12345


def test_plan_reference_window_budget(tmp_path, ref_doc):
    out = tmp_path / "ref_out"
    path = _write(tmp_path, ref_doc, "ref.json")
    assert _run(["plan", "--scenario", path, "--out", out]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert sum(plan["psi"].values()) == 256
    assert len(plan["schedule"]) == 256


def test_custom_dvbs2_table(tmp_path, toy_file):
    table = tmp_path / "table.csv"
    table.write_text("threshold_db,se_bits_per_symbol\n-100.0,1.5\n")
    out = tmp_path / "cap"
    assert _run(["capacity", "--scenario", toy_file, "--out", out,
                 "--dvbs2-table", table]) == 0
    lines = (out / "capacity_beams.csv").read_text().splitlines()[1:]
    ses = {float(line.split(",")[3]) for line in lines}
    assert ses == {1.5}


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("scenario, digest", [
    ("ref_71beam", "ea8ec3df7af1762bd298db375efddf92989ad1f60edc55a040ace7e1f1594006"),
    ("toy", "f2bd4aa8ad1cc71703711d8c59d7bd42cc8e491218491f67c9d495e086fa3c29"),
])
def test_plan_json_is_pinned(tmp_path, scenario, digest):
    """plan.json of the reference and toy scenarios, byte for byte: a change
    to the solver's arithmetic or search order must not change the plan."""
    if scenario == "toy":
        path = _write(tmp_path, toy_doc())
    else:
        path = REPO / "scenarios" / f"{scenario}.json"
    assert _run(["plan", "--scenario", path, "--out", tmp_path / "out"]) == 0
    plan = (tmp_path / "out" / "plan.json").read_bytes()
    assert hashlib.sha256(plan).hexdigest() == digest


def _reference_with(tmp_path, **system):
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    doc["system"].update(system)
    return _write(tmp_path, doc, "ref.json")


def test_link_budget_underflow_is_refused(tmp_path, capsys):
    """Feed powers that underflow to 0 made every SNIR NaN, which scored as
    the best MODCOD; a link budget that is merely weak stays in outage."""
    for system in ({"P_T_W": 1e-300}, {"T_sys_K": 1e300}):
        path = _reference_with(tmp_path, **system)
        for command in ("capacity", "plan"):
            out = tmp_path / f"out_{command}"
            rc = _run([command, "--scenario", path, "--out", out])
            err = capsys.readouterr().err
            assert rc == 2, system
            assert err.startswith("error: validate: cluster ")
            assert not out.exists()
    out = tmp_path / "outage"
    path = _reference_with(tmp_path, P_T_W=1e-30)
    for command in ("capacity", "plan"):
        assert _run([command, "--scenario", path, "--out", out]) == 0
    lines = (out / "capacity_beams.csv").read_text().splitlines()[1:]
    assert {line.split(",", 3)[3] for line in lines} == {"0.0,0.0"}
    assert json.loads((out / "plan.json").read_text())["t"] == 0.0


@pytest.mark.parametrize("field, value", [("gain_peak_dBi", 4000.0),
                                          ("carrier_Hz", 1e300)])
def test_link_budget_overflow_is_validate_error(tmp_path, capsys, field,
                                                value):
    path = _reference_with(tmp_path, **{field: value})
    rc = _run(["capacity", "--scenario", path, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: validate: system: {field} = ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_greedy_plan_is_near_the_lp_bound(tmp_path):
    path = REPO / "scenarios" / "ref_71beam.json"
    out = tmp_path / "out"
    assert _run(["plan", "--scenario", path, "--out", out,
                 "--solver", "greedy"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    pipe = cli._memo
    _, m = aggregate_and_scale_demands(pipe.scenario)
    bound = lp_relaxation_bound(IlpInstance(
        l=pipe.snapshots.l, m=m, n_slot=pipe.scenario.system.n_slot))
    assert plan["status"] == "heuristic"
    assert 0.98 * bound <= plan["t"] <= bound


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that every call is counted."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_run_shares_one_load_channel_build_and_solve(tmp_path, toy_file,
                                                         monkeypatch):
    loads = _count_calls(monkeypatch, cli, "load_scenario")
    solves = _count_calls(monkeypatch, cli, "solve_illumination")
    builds = _count_calls(monkeypatch, channel, "build_all_cluster_channels")
    out = tmp_path / "out"
    plans = []
    for command in ("plan", "compare", "leakage"):
        assert _run([command, "--scenario", toy_file, "--out", out]) == 0
        plans.append(cli._memo.plan)
    assert (len(loads), len(solves), len(builds)) == (1, 1, 1)
    assert plans[0] is plans[1] is plans[2]


def test_capacity_builds_one_precoder_per_cluster(tmp_path, monkeypatch):
    precoders = _count_calls(monkeypatch, precoding, "mmse_precoder")
    scenario = REPO / "scenarios" / "ref_71beam.json"
    assert _run(["capacity", "--scenario", scenario, "--out", tmp_path]) == 0
    assert cli._memo.scenario.n_clusters == 12
    assert len(precoders) == 12


def test_run_recomputes_when_an_input_changes(tmp_path, monkeypatch):
    builds = _count_calls(monkeypatch, channel, "build_all_cluster_channels")
    scenario = _write(tmp_path, toy_doc())
    table = tmp_path / "table.csv"
    table.write_text("threshold_db,se_bits_per_symbol\n-100.0,1.5\n")
    out = tmp_path / "out"
    base = ["plan", "--scenario", scenario, "--out", out]

    def run(*extra):
        assert _run(base + list(extra)) == 0
        return len(builds)

    assert run() == 1
    assert run() == 1
    _write(tmp_path, toy_doc(demands=[1e8] * 8))  # new bytes, same path
    assert run() == 2
    assert run("--seed", "8") == 3
    assert run("--dvbs2-table", table) == 4
    assert run("--dvbs2-table", table) == 4
    table.write_text("threshold_db,se_bits_per_symbol\n-100.0,2.5\n")
    assert run("--dvbs2-table", table) == 5
    assert run("--solver", "greedy") == 6
    base[-1] = tmp_path / "other"
    assert run() == 7


def test_memo_keeps_only_the_latest_run(tmp_path, toy_file):
    assert _run(["plan", "--scenario", toy_file, "--out", tmp_path / "a"]) == 0
    first = weakref.ref(cli._memo)
    assert _run(["plan", "--scenario", toy_file, "--out", tmp_path / "b"]) == 0
    assert first() is None
    assert cli._memo.out_dir == str(tmp_path / "b")


@pytest.mark.parametrize("case", ["infeasible", "negative_seed"])
def test_failed_stage_is_not_cached(tmp_path, capsys, monkeypatch, case):
    solves = _count_calls(monkeypatch, cli, "solve_illumination")
    args = ["plan", "--out", tmp_path / "out"]
    if case == "infeasible":
        args += ["--scenario", _write(tmp_path, toy_doc(adjacency="complete"))]
        expected = (3, "error: infeasible:", 2)
    else:
        args += ["--scenario", _write(tmp_path, toy_doc()), "--seed", "-1"]
        expected = (2, "error: validate:", 0)
    results = []
    for _ in range(2):
        results.append((_run(args), capsys.readouterr().err))
    assert results[0] == results[1]
    rc, err = results[0]
    assert rc == expected[0] and err.startswith(expected[1])
    assert len(solves) == expected[2]


def test_shared_stages_write_the_same_bytes_as_fresh_runs(tmp_path,
                                                          monkeypatch):
    solves = _count_calls(monkeypatch, cli, "solve_illumination")
    path = REPO / "scenarios" / "ref_71beam.json"
    commands = ("plan", "compare", "leakage")
    for command in commands:
        assert _run([command, "--scenario", path, "--out", tmp_path / "a"]) == 0
    assert len(solves) == 1
    for command in commands:
        monkeypatch.setattr(cli, "_memo", None)
        assert _run([command, "--scenario", path, "--out", tmp_path / "b"]) == 0
    assert len(solves) == 4
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_memoized_stage_outputs_are_read_only(tmp_path, toy_file):
    out = tmp_path / "out"
    for command in ("capacity", "compare", "leakage"):
        assert _run([command, "--scenario", toy_file, "--out", out]) == 0
    pipe = cli._memo
    arrays = {
        "plan.psi": pipe.plan.psi, "plan.s": pipe.plan.s,
        "plan.schedule": pipe.plan.schedule,
        "field.gains": pipe.field.gains, "field.tau": pipe.field.tau,
        "capacities.snir": pipe.capacities.snir_beam,
        "capacities.se": pipe.capacities.se_beam,
        "capacities.r": pipe.capacities.r_beam_bps,
        "capacities.c": pipe.capacities.c_cluster_bps,
        "capacities.p": pipe.capacities.p_cluster_bits,
        "snapshots.l": pipe.snapshots.l,
        "beam_adjacency": pipe.scenario.beam_adjacency,
    }
    for j, chan in enumerate(pipe.channels):
        arrays[f"channel{j}.h"] = chan.h
        arrays[f"channel{j}.tau"] = chan.tau
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] += 1
        assert not array.flags.writeable, name


@pytest.mark.parametrize("where", ["scenario", "dvbs2_table"])
def test_undecodable_input_is_parse_error(tmp_path, toy_file, capsys, where):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe{")
    args = ["plan", "--out", tmp_path / "out"]
    if where == "scenario":
        args += ["--scenario", bad]
    else:
        args += ["--scenario", toy_file, "--dvbs2-table", bad]
    assert _run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse:") and "Traceback" not in err
