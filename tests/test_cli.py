import hashlib
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop import channel, cli, planner, precoding, scenario, simplex
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


_DROP = object()


def _toy_with(path, value):
    """The toy document with the entry at ``path`` set to ``value``, or
    deleted for ``_DROP``; the empty path replaces the whole document."""
    if not path:
        return value
    doc = toy_doc()
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    pytest.param((), [], "scenario document must be a JSON object",
                 id="document-not-object"),
    pytest.param(("system",), _DROP, "missing top-level key 'system'",
                 id="top-level-key-missing"),
    pytest.param(("beams",), [], "'beams' must be a non-empty array",
                 id="beams-empty"),
    pytest.param(("beams",), {"id": 1}, "'beams' must be a non-empty array",
                 id="beams-not-list"),
    pytest.param(("beams", 0, "u"), _DROP, "malformed beam entry",
                 id="beam-key-missing"),
    pytest.param(("beams", 0), 5, "malformed beam entry 5",
                 id="beam-not-object"),
    pytest.param(("beams", 1, "id"), 1, "beam ids are not unique",
                 id="beam-ids-repeat"),
    pytest.param(("beams", 0, "u"), 10 ** 400, "beam 1: u is out of range",
                 id="u-out-of-float-range"),
    pytest.param(("clusters",), [], "'clusters' must be a non-empty array",
                 id="clusters-empty"),
    pytest.param(("clusters", 0), [],
                 "cluster 0 must be a non-empty array of beam ids",
                 id="cluster-empty"),
    pytest.param(("clusters", 0), 5,
                 "cluster 0 must be a non-empty array of beam ids",
                 id="cluster-not-list"),
    pytest.param(("adjacency",), [[0, 1], [1, 0]], "adjacency must be 4x4",
                 id="adjacency-shape"),
    pytest.param(("adjacency", 0, 2), 2, "adjacency entries must be 0 or 1",
                 id="adjacency-not-binary"),
    pytest.param(("adjacency", 0, 0), 1, "adjacency diagonal must be zero",
                 id="adjacency-diagonal"),
    pytest.param(("system",), [], "'system' must be an object",
                 id="system-not-object"),
    pytest.param(("system", "N_slot"), _DROP, "system: missing key 'N_slot'",
                 id="system-key-missing"),
    pytest.param(("system", "P_T_W"), 0.0, "system: P_T_W must be > 0",
                 id="power-zero"),
    pytest.param(("system", "B_W_Hz"), -1, "system: B_W_Hz must be > 0",
                 id="bandwidth-negative"),
    pytest.param(("system", "T_slot_s"), -1e-3, "system: T_slot_s must be > 0",
                 id="slot-negative"),
    pytest.param(("system", "rolloff"), 1.0, "system: rolloff must be in [0, 1)",
                 id="rolloff-one"),
    pytest.param(("system", "rolloff"), -0.1,
                 "system: rolloff must be in [0, 1)", id="rolloff-negative"),
    pytest.param(("system", "N_slot"), 0, "system: N_slot must be >= 1",
                 id="n-slot-zero"),
    pytest.param(("system", "N_P"), 0, "system: N_P must be >= 1",
                 id="n-p-zero"),
])
def test_loader_rejection_names_the_field(tmp_path, capsys, path, value,
                                          message):
    scenario_path = _write(tmp_path, _toy_with(path, value))
    rc = _run(["plan", "--scenario", scenario_path, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: validate: ") and message in err, err
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
    out = tmp_path / "out_greedy"
    assert _run(["plan", "--scenario", toy_file, "--out", out,
                 "--solver", "greedy"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "heuristic"
    with pytest.raises(SystemExit) as exc:  # the oracle is test-only
        _run(["plan", "--scenario", toy_file, "--out", tmp_path / "out_oracle",
              "--solver", "oracle"])
    assert exc.value.code == 2


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


_PINNED = {  # sha256 of every artifact but run_config.json
    ("ref_71beam", "capacity"): {
        "capacity_beams.csv":
            "f275f06c33f6153078c33a561af8b56f0f0e399e1cd4ef3471cb53eaa1e77331",
        "capacity_clusters.csv":
            "a6f2ccb8f125e230c3f8adad0d726744f2ba9954ad1163af0ac70d1eccdb9f70",
    },
    ("ref_71beam", "snapshots"): {
        "snapshots.csv":
            "1a9441cbd2331e1e9c07def7ed8159ddf7ddc67a24390f53c00348bf0d740e0b",
    },
    ("ref_71beam", "plan"): {
        "plan.json":
            "ea8ec3df7af1762bd298db375efddf92989ad1f60edc55a040ace7e1f1594006",
    },
    ("ref_71beam", "compare"): {
        "report_beams_1c_ffr_bh.csv":
            "69bb3f38bc6b0387ab8a89b8b757d26c6f8f35c30948a103934bd82ad1a794f1",
        "report_beams_4c_fr.csv":
            "64f7883cb5c53f68367ffce07eeb0975245651cff9412622f57ecdb1d3c18b79",
        "report_beams_ch.csv":
            "4b8fffc3ae91e63253f6e9ad5dad600c15a9b632c03f960a0d84915c28c5556a",
        "report_clusters_1c_ffr_bh.csv":
            "0e8b6f9445da9b4573fb0634002d4ed6aff1fc2947c324d7d34fa20850f5dc1e",
        "report_clusters_4c_fr.csv":
            "e231b4d342e0cb082109322adfa5086fc3833cdfaf1082b55042dd06528ff2f3",
        "report_clusters_ch.csv":
            "90e77a5217b8cb07c565161a6768db52ef1a6ea1314018f60c7fb5fe15b11c91",
        "summary.json":
            "ba17688b86bcbac3ad13f500075d5102a2e76be996c141a3fd7575f65684cbd2",
    },
    ("ref_71beam", "leakage"): {
        "leakage.json":
            "1f5e257e160167e79c81560669b17b62953e24417c7992196e9d7b0d52198ad9",
    },
    ("toy", "capacity"): {
        "capacity_beams.csv":
            "0e1a0766b5d95f368dddccfcb867155ee79b09b44369450b2a2233307a31e87e",
        "capacity_clusters.csv":
            "805f1ee8402f5748730f0c9d08bbf7a123d10e440e19e1f7c70167bf59a778dc",
    },
    ("toy", "snapshots"): {
        "snapshots.csv":
            "c200e72313e2ba8458733af35a60a7ea38f167dcb62f112412a53336f7f84779",
    },
    ("toy", "plan"): {
        "plan.json":
            "f2bd4aa8ad1cc71703711d8c59d7bd42cc8e491218491f67c9d495e086fa3c29",
    },
    ("toy", "compare"): {
        "report_beams_1c_ffr_bh.csv":
            "77e4dece143d3fdbb6140ba3d7f97b908890c52fb5d42afcf9add4d0cfbd0270",
        "report_beams_4c_fr.csv":
            "c0733616f4bcdaad7c62cd9942c63e7dd89eae93f0f942e371162d42e28b9fe1",
        "report_beams_ch.csv":
            "3d47d88c948ec82568ff4daaa96d9a4cf5ef2aaa092bdc4d8f210a2dc056c6aa",
        "report_clusters_1c_ffr_bh.csv":
            "14c60c83cb5bdf836e343b43d1bc9343a38e9bf9efb2cc404856c7f6ace71e04",
        "report_clusters_4c_fr.csv":
            "b43f8d14ac440c55a49462530c5604f76bc8c65ac79701994a67199d59b0692c",
        "report_clusters_ch.csv":
            "50ead50811e29f231cffef122da75d310c96fb24f108755b9e7e25c39ad71771",
        "summary.json":
            "adc8885a158424697967bd598188bce8e4c4b06ce40364be2006c6cc01a7a51d",
    },
    ("toy", "leakage"): {
        "leakage.json":
            "754ef309237f2e70e7b7958996a9b741be4c4ea89b0303ddd0aa25d4cb4853fb",
    },
}


@pytest.mark.parametrize("scenario, command", list(_PINNED))
def test_plan_json_is_pinned(tmp_path, scenario, command):
    """Every artifact of every writing subcommand on the reference and toy
    scenarios, byte for byte: a change to the arithmetic, the search order
    or the data layout must not change an output."""
    if scenario == "toy":
        path = _write(tmp_path, toy_doc())
    else:
        path = REPO / "scenarios" / f"{scenario}.json"
    out = tmp_path / "out"
    assert _run([command, "--scenario", path, "--out", out]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "run_config.json"}
    assert digests == _PINNED[scenario, command]


def test_beam_ids_follow_the_file_not_its_order(tmp_path):
    """Beam i of the scenario is the beam with id i + 1 wherever the file
    lists it: reversing the beams array changes no artifact."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    reversed_doc = {**doc, "beams": doc["beams"][::-1]}
    for name, content in (("a", doc), ("b", reversed_doc)):
        path = _write(tmp_path, content, f"{name}.json")
        for command in ("capacity", "compare"):
            assert _run([command, "--scenario", path,
                         "--out", tmp_path / name]) == 0
    for name in ("capacity_beams.csv", "report_beams_ch.csv",
                 "report_beams_1c_ffr_bh.csv", "summary.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


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


@pytest.mark.parametrize("scale", [3e-9, 1e-10, 1e-11, 1e-12])
def test_tiny_demand_scale_plans_or_is_solver_error(tmp_path, capsys, scale):
    """Demands far below the supplies make the LPs ill-conditioned. A run
    then plans a window of nonnegative counts or ends in a solver error;
    an LP point outside its node's box is never accepted or branched on."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    for beam in doc["beams"]:
        beam["demand_bps"] *= scale
    out = tmp_path / "out"
    rc = _run(["plan", "--scenario", _write(tmp_path, doc), "--out", out])
    err = capsys.readouterr().err
    assert rc in (0, 6), err
    if rc == 6:
        assert err.startswith("error: solver: ")
    else:
        psi = json.loads((out / "plan.json").read_text())["psi"]
        assert min(psi.values()) >= 0
        assert sum(psi.values()) == doc["system"]["N_slot"]


@pytest.mark.parametrize("field, value", [
    ("gain_peak_dBi", 4000.0),   # 10**(dB/10) overflows
    ("gain_peak_dBi", 3070.0),   # G_tx * G_rx overflows
    ("carrier_Hz", 1e300),       # the free-space loss overflows
    ("carrier_Hz", 1e-300),      # the free-space loss is 0
    ("carrier_Hz", 1e-152),      # G_tx * G_rx / L_fs overflows
    ("B_W_Hz", 1e-300),          # k_B T B is subnormal; the SNIR overflows
])
def test_link_budget_overflow_is_validate_error(tmp_path, capsys, field,
                                                value):
    path = _reference_with(tmp_path, **{field: value})
    rc = _run(["capacity", "--scenario", path, "--out", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: validate: system: {field} = ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("solver", ["ilp", "greedy"])
def test_root_lp_failure_is_solver_error(tmp_path, toy_file, capsys,
                                         monkeypatch, solver):
    def cold_fails(c, a, b, lower, upper, warm=None):
        if warm is None:
            return simplex.LpResult(simplex.INFEASIBLE, None, None, 0, None)
        return simplex.solve_bounded_lp(c, a, b, lower, upper, warm=warm)

    monkeypatch.setattr(planner, "solve_bounded_lp", cold_fails)
    out = tmp_path / "out"
    rc = _run(["plan", "--scenario", toy_file, "--out", out,
               "--solver", solver])
    err = capsys.readouterr().err
    assert rc == 6
    assert err.startswith("error: solver: root LP") and "Traceback" not in err
    assert not out.exists()


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


def test_one_distance_matrix_per_scenario(tmp_path, toy_file, monkeypatch):
    """One ``center_distances`` call per scenario over plan, compare and
    leakage, counted under every name the package binds the function to."""
    builds = []
    original = scenario.center_distances

    def counted(centers):
        builds.append(len(centers))
        return original(centers)

    for name, module in list(sys.modules.items()):
        if (name.startswith("clusterhop")
                and getattr(module, "center_distances", None) is original):
            monkeypatch.setattr(module, "center_distances", counted)
    for path in (toy_file, REPO / "scenarios" / "ref_71beam.json"):
        for command in ("plan", "compare", "leakage"):
            assert _run([command, "--scenario", path,
                         "--out", tmp_path / "out"]) == 0
    assert builds == [8, 71]


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
        "field": pipe.field,
        "capacities.snir": pipe.capacities.snir_beam,
        "capacities.se": pipe.capacities.se_beam,
        "capacities.r": pipe.capacities.r_beam_bps,
        "capacities.c": pipe.capacities.c_cluster_bps,
        "capacities.p": pipe.capacities.p_cluster_bits,
        "snapshots.l": pipe.snapshots.l,
        "centers": pipe.scenario.centers, "demands": pipe.scenario.demands,
        "distances": pipe.scenario.distances,
        "beam_adjacency": pipe.scenario.beam_adjacency,
    }
    for j, h in enumerate(pipe.channels):
        arrays[f"channel{j}"] = h
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


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"),
                     10 ** 40, -(10 ** 40)]),
    st.text(), st.sampled_from(['", "', "[", '"', "a, b", "]\n[", "\u00e9"]),
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=40)


@given(_JSON_DOCS)
@settings(max_examples=300, deadline=None)
def test_json_text_matches_indented_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
