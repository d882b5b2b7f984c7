import builtins
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop import channel, cli, planner, precoding, scenario, simplex
from clusterhop.cli import main
from clusterhop.planner import lp_relaxation_bound

from conftest import WORKLOADS, load_by_path, pipeline, seed_1_docs, toy_doc


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


@pytest.mark.parametrize("row, column", [("nan,1.0", "threshold_db"),
                                         ("-100,inf", "se_bits_per_symbol"),
                                         ("-100,-0.5", "se_bits_per_symbol")])
def test_non_finite_or_negative_modcod_entry_is_refused(tmp_path, toy_file,
                                                        capsys, row, column):
    """A one-row table passes both monotonicity checks, so a NaN threshold
    gave a t = 0 'optimal' plan, and an infinite or negative efficiency gave
    infinite or negative capacities."""
    table = tmp_path / "table.csv"
    table.write_text(f"threshold_db,se_bits_per_symbol\n{row}\n")
    out = tmp_path / "out"
    rc = _run(["capacity", "--scenario", toy_file, "--out", out,
               "--dvbs2-table", table])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: validate: MODCOD {column} must be finite")
    assert not out.exists()


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


_PINNED_GREEDY = {  # sha256 of plan.json from plan --solver greedy
    "ref_71beam":
        "bf2b4876bdd262bd5f788f84afc5d815dcd4c6a9041782aa14e1eca224ecb5b5",
    "toy": "51d5ed144e9d2d3b31e2c7044d24ac8370803cb2996068b6f6e05dd84cecc787",
}


@pytest.mark.parametrize("scenario", list(_PINNED_GREEDY))
def test_greedy_plan_json_is_pinned(tmp_path, scenario):
    """The heuristic's plan.json, byte for byte, on the reference and toy
    scenarios."""
    if scenario == "toy":
        path = _write(tmp_path, toy_doc())
    else:
        path = REPO / "scenarios" / f"{scenario}.json"
    out = tmp_path / "out"
    assert _run(["plan", "--scenario", path, "--out", out,
                 "--solver", "greedy"]) == 0
    digest = hashlib.sha256((out / "plan.json").read_bytes()).hexdigest()
    assert digest == _PINNED_GREEDY[scenario]


_PINNED_ODD_WINDOW = {  # sha256 with N_slot = 4095 on ref_71beam
    "leakage.json":
        "fe13e85a535eb1f89835eca93e6d5d2987ff8c3f76b8a5b43f9403a5aa7c0179",
    "plan.json":
        "ce960faa2615f5edb4227da4d48326dd9fa7ac26a9fdc6844b5e5c56ed95bfa4",
}


def test_odd_window_is_pinned(tmp_path):
    """A long window of odd length: the schedule's ties and the leakage
    list written per snapshot, byte for byte."""
    path = _reference_with(tmp_path, N_slot=4095)
    out = tmp_path / "out"
    for command in ("plan", "leakage"):
        assert _run([command, "--scenario", path, "--out", out]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in _PINNED_ODD_WINDOW}
    assert digests == _PINNED_ODD_WINDOW


@pytest.mark.parametrize("schedule", [[3], [2, 1], np.arange(4095) % 6,
                                      np.arange(4095) % 5 + 1])
def test_leakage_text_matches_the_per_slot_document(schedule):
    """Each snapshot's ratio encoded once gives the text of the per-slot
    document; the unscheduled snapshot 0 holds the largest ratio, which
    only the schedules that light it report as max_ratio."""
    ratios = np.array([math.inf, 0.0, 5e-324, 1e22, 0.1 + 0.2, 1 / 3])
    schedule = np.asarray(schedule)
    slots = ratios[schedule].tolist()
    doc = {"per_slot_worst_ratio": slots, "max_ratio": max(slots)}
    assert cli._leakage_text(ratios, schedule) == cli._json_text(doc) + "\n"


def test_reference_pipeline_runs_from_a_checkout(tmp_path):
    """The experiment script imports the checkout's own package, with no
    install and no PYTHONPATH. Without --scenario it plans the checkout's
    reference scenario from any working directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    given = ["--scenario", REPO / "scenarios" / "ref_71beam.json"]
    for name, scenario_args in (("given", given), ("default", [])):
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, REPO / "scripts" / "run_reference_pipeline.py",
             *scenario_args, "--out", out],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digest = hashlib.sha256((out / "leakage.json").read_bytes()).hexdigest()
        assert {"leakage.json": digest} == _PINNED["ref_71beam", "leakage"]


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


def test_link_budget_underflow_names_the_bandwidth(tmp_path, capsys):
    """A bandwidth this large makes the noise power k_B T B so large that
    the MMSE feed powers underflow; the message names B_W_Hz too."""
    path = _reference_with(tmp_path, B_W_Hz=1e308)
    for command in ("capacity", "plan"):
        out = tmp_path / f"out_{command}"
        rc = _run([command, "--scenario", path, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: validate: cluster 0: MMSE feed powers "
                              "underflow to 0.0; P_T_W, B_W_Hz and T_sys_K")
        assert not out.exists()


@pytest.mark.parametrize("bandwidth", [1e308, 5e306])
def test_capacity_overflow_names_the_bandwidth(tmp_path, capsys, bandwidth):
    """With a noise temperature this small the feed powers do not
    underflow; the bandwidth then puts a beam rate (1e308) or a cluster's
    sum of rates (5e306) beyond float range. The run is refused without a
    RuntimeWarning, and the message names B_W_Hz, not T_slot_s."""
    path = _reference_with(tmp_path, B_W_Hz=bandwidth, T_sys_K=1e-300)
    for command in ("capacity", "plan"):
        out = tmp_path / f"out_{command}"
        rc = _run([command, "--scenario", path, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: validate: system: B_W_Hz = "
                              f"{bandwidth!r} puts the capacity of cluster 0 "
                              "beyond floating-point range"), err
        assert not out.exists()


@pytest.mark.parametrize("beam_u, system", [
    pytest.param(1e300, {}, id="distance-beyond-float"),
    pytest.param(1e154, {}, id="squared-gain-ratio-beyond-float"),
    pytest.param(None, {"beamwidth_3dB_deg": 1e-300},
                 id="beamwidth-below-float"),
])
def test_far_beam_plans_without_a_warning(tmp_path, beam_u, system):
    """A beam center distance beyond float range is inf, and a gain whose
    squared off-axis ratio leaves float range is 0: these are the right
    values, so the run plans, without a RuntimeWarning (which the test
    configuration turns into an error)."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    doc["system"].update(system)
    if beam_u is not None:
        doc["beams"][0]["u"] = beam_u
    out = tmp_path / "out"
    assert _run(["plan", "--scenario", _write(tmp_path, doc),
                 "--out", out]) == 0
    assert (out / "plan.json").exists()


@pytest.mark.parametrize("system, demand_bps, message", [
    pytest.param({"T_slot_s": 1e300}, None,
                 "system: T_slot_s and N_slot put the window demand",
                 id="window-demand"),
    pytest.param({"N_slot": 10 ** 400}, None,
                 "system: T_slot_s and N_slot put the window demand",
                 id="n-slot-beyond-float"),
    pytest.param({"T_slot_s": 1e300}, 1e-9,
                 "system: T_slot_s = 1e+300 puts the per-slot supply",
                 id="per-slot-supply"),
    pytest.param({}, 1e308, "cluster 0: its beam demands sum beyond",
                 id="cluster-demand"),
])
def test_window_overflow_is_validate_error(tmp_path, capsys, system,
                                           demand_bps, message):
    """A slot length, slot count or demand whose window demand
    N_slot * T_slot_s * d or per-slot supply T_slot_s * c is not a float is
    refused at load or capacity time, without a RuntimeWarning (which the
    test configuration turns into an error)."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    doc["system"].update(system)
    for beam in doc["beams"] if demand_bps is not None else ():
        beam["demand_bps"] = demand_bps
    path = _write(tmp_path, doc)
    for command in ("capacity", "plan"):
        out = tmp_path / f"out_{command}"
        rc = _run([command, "--scenario", path, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: validate: {message}"), err
        assert not out.exists()


@pytest.mark.parametrize("solver, n_slot", [
    ("ilp", 10 ** 6 + 1), ("greedy", 10 ** 6 + 1),
    ("ilp", 10 ** 8), ("greedy", 10 ** 8),
], ids=["ilp", "greedy", "ilp-1e8", "greedy-1e8"])
def test_n_slot_above_the_cap_is_refused_by_every_solver(tmp_path, capsys,
                                                         solver, n_slot):
    path = _reference_with(tmp_path, N_slot=n_slot)
    out = tmp_path / "out"
    rc = _run(["plan", "--scenario", path, "--out", out, "--solver", solver])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"error: cap-exceeded: N_slot={n_slot} is above")
    assert not out.exists()


@pytest.mark.parametrize("demand_bps", [1e-300, 1e-310, 1e-318])
@pytest.mark.parametrize("solver", ["ilp", "greedy"])
def test_ratio_beyond_float_range_is_validate_error(tmp_path, capsys, solver,
                                                    demand_bps):
    """Demands this small put N_slot * p_j / m_j, the largest ratio a
    window can offer, beyond float range: exit 2 naming the cluster, from
    both solvers, without a RuntimeWarning (which the test configuration
    turns into an error). These ended in a traceback or a t = 0.0 plan."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    for beam in doc["beams"]:
        beam["demand_bps"] = demand_bps
    out = tmp_path / "out"
    rc = _run(["plan", "--scenario", _write(tmp_path, doc), "--out", out,
               "--solver", solver])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err == ("error: validate: cluster 0: N_slot times its supply per "
                   "slot over its demand is beyond float range\n")
    assert not out.exists()


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


def _reference_demands_times(factor, but_cluster_0=False):
    """ref_71beam with every demand, or every demand outside cluster 0,
    times ``factor``."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    kept = set(doc["clusters"][0]) if but_cluster_0 else set()
    for beam in doc["beams"]:
        if beam["id"] not in kept:
            beam["demand_bps"] *= factor
    return doc


def _plan_json(tmp_path, doc):
    out = tmp_path / "out"
    assert _run(["plan", "--scenario", _write(tmp_path, doc),
                 "--out", out]) == 0
    return json.loads((out / "plan.json").read_text())


def _confirmed_t(doc, psi):
    """The exact objective of plan.json's ``psi``, after HiGHS LPs confirm
    it as the lexicographically smallest optimal window
    (``test_midsize_rungs.check_plan``)."""
    from test_midsize_rungs import check_plan

    t, _ = check_plan(json.dumps(doc).encode(), psi)
    return float(t)


@pytest.fixture(scope="module")
def reference_plan_json(tmp_path_factory):
    return _plan_json(tmp_path_factory.mktemp("ref"),
                      _reference_demands_times(1.0))


@pytest.mark.parametrize("factor, but_cluster_0", [
    *(pytest.param(f, False, id=f"{f:g}")
      for f in (1e-12, 1e-11, 1e-10, 1e5, 1e6, 1e7, 1e8, 1e9, 1e12)),
    pytest.param(1e8, True, id="1e+08-but-cluster-0"),
])
def test_demand_scale_plans_the_same_window(tmp_path, reference_plan_json,
                                            factor, but_cluster_0):
    """Every demand times ``factor`` plans the factor-1 psi, with t divided
    by ``factor``: no LP reads the demands' scale. (These scales ended in
    exit 6, or at 1e7 and 1e8 in a t = 0 plan labelled optimal; 1e9 took
    seconds and 1e12 did not end.) With every demand but cluster 0's times
    1e8, the plan reaches the optimum that HiGHS confirms, not t = 0. Each
    plans within seconds."""
    began = time.perf_counter()
    plan = _plan_json(tmp_path, _reference_demands_times(factor,
                                                         but_cluster_0))
    assert time.perf_counter() - began < 10
    assert plan["status"] == "optimal"
    if but_cluster_0:
        doc = _reference_demands_times(factor, but_cluster_0)
        assert _confirmed_t(doc, plan["psi"]) == pytest.approx(plan["t"],
                                                               rel=1e-12)
        assert plan["t"] == pytest.approx(1.030257298147466e-08, rel=1e-12)
    else:
        assert plan["psi"] == reference_plan_json["psi"]
        assert plan["t"] * factor == pytest.approx(reference_plan_json["t"],
                                                   rel=1e-12)


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
    """Both solvers start with the root LP. With its right-hand side
    negated, its start (every slot on the last snapshot) has -N_slot
    there, which the simplex refuses: exit 6 with one solver line."""
    def root_fails(c, a, b, lower, upper, warm=None):
        if c is not None:  # the root LP, the one LP with an objective
            b = -np.asarray(b)
        return simplex.solve_bounded_lp(c, a, b, lower, upper, warm=warm)

    monkeypatch.setattr(planner, "solve_bounded_lp", root_fails)
    out = tmp_path / "out"
    rc = _run(["plan", "--scenario", toy_file, "--out", out,
               "--solver", solver])
    err = capsys.readouterr().err
    assert rc == 6
    assert err == "error: solver: the start basis is not primal feasible\n"
    assert not out.exists()


def _extreme_reference(case):
    """ref_71beam with one extreme change: nine beams' demands times
    10**18.1, every demand times 1e9, B_W_Hz = 1e-30 or 1e-200, or
    N_slot = 7."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    if case == "nine_beams":
        for beam in doc["beams"]:
            if beam["id"] in (2, 9, 17, 31, 48, 61, 67, 69, 70):
                beam["demand_bps"] *= 10 ** 18.1
    elif case == "demands_1e9":
        return _reference_demands_times(1e9)
    elif case.startswith("bandwidth_"):
        doc["system"]["B_W_Hz"] = float(case.removeprefix("bandwidth_"))
    else:
        doc["system"]["N_slot"] = 7
    return doc


@pytest.mark.parametrize("case", ["nine_beams", "bandwidth_1e-30",
                                  "bandwidth_1e-200"])
def test_extreme_inputs_plan_the_confirmed_optimum(tmp_path, case):
    """The exact solver plans each extreme input within seconds, and HiGHS
    LPs confirm the plan (every demand outside cluster 0 times 1e8 is a
    case of ``test_demand_scale_plans_the_same_window``). Its walk did not
    end on the nine beams, and its requirement counts passed int64 at both
    bandwidths while it widened the LP's bound by 1e-7 absolutely."""
    doc = _extreme_reference(case)
    began = time.perf_counter()
    plan = _plan_json(tmp_path, doc)
    assert time.perf_counter() - began < 10
    assert plan["status"] == "optimal"
    assert _confirmed_t(doc, plan["psi"]) == pytest.approx(plan["t"],
                                                           rel=1e-12)


def test_outage_plan_is_confirmed(tmp_path):
    """P_T_W times 1e-6 puts every cluster in outage: t = 0, and the
    smallest window puts every slot on the last snapshot. HiGHS LPs confirm
    it and refuse the same slots on the first snapshot."""
    doc = json.loads((REPO / "scenarios" / "ref_71beam.json").read_text())
    doc["system"]["P_T_W"] *= 1e-6
    plan = _plan_json(tmp_path, doc)
    assert (plan["t"], plan["psi"], plan["status"]) == (0.0, {"54": 256},
                                                        "optimal")
    assert _confirmed_t(doc, plan["psi"]) == 0.0
    with pytest.raises(AssertionError, match="lexicographically smaller"):
        _confirmed_t(doc, {"0": 256})


def test_plan_without_demand_is_confirmed(tmp_path):
    """With no demanded cluster the plan is the uniform spread (t = inf,
    written as null), which the check confirms; one slot moved is refused."""
    doc = _reference_demands_times(0.0)
    plan = _plan_json(tmp_path, doc)
    assert plan["t"] is None and plan["status"] == "heuristic"
    assert _confirmed_t(doc, plan["psi"]) == math.inf
    moved = {**plan["psi"], "0": plan["psi"]["0"] - 1,
             "54": plan["psi"]["54"] + 1}
    with pytest.raises(AssertionError, match="uniform spread"):
        _confirmed_t(doc, moved)


@pytest.mark.parametrize("case", ["nine_beams", "demands_1e9",
                                  "bandwidth_1e-30", "n_slot_7"])
def test_greedy_plans_extreme_inputs(tmp_path, reference_plan_json, case):
    """The heuristic plans each extreme input within seconds. At N_slot = 7
    the exact solver's t bounds the heuristic's, and with every demand
    times 1e9, where the root LP's bound was 0.0 while it read l / m, the
    heuristic reaches the exact t, the factor-1 t / 1e9."""
    path = _write(tmp_path, _extreme_reference(case))
    out = tmp_path / "out"
    began = time.perf_counter()
    assert _run(["plan", "--scenario", path, "--out", out,
                 "--solver", "greedy"]) == 0
    assert time.perf_counter() - began < 20
    plan = json.loads((out / "plan.json").read_text())
    assert plan["status"] == "heuristic"
    if case in ("n_slot_7", "demands_1e9"):
        assert _run(["plan", "--scenario", path, "--out", out]) == 0
        exact = json.loads((out / "plan.json").read_text())
        assert plan["t"] <= exact["t"]
    if case == "demands_1e9":
        assert plan["t"] == pytest.approx(exact["t"], rel=1e-12)
        assert plan["t"] * 1e9 == pytest.approx(reference_plan_json["t"],
                                                rel=1e-12)


def test_greedy_plan_is_near_the_lp_bound(tmp_path):
    path = REPO / "scenarios" / "ref_71beam.json"
    out = tmp_path / "out"
    assert _run(["plan", "--scenario", path, "--out", out,
                 "--solver", "greedy"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    bound = lp_relaxation_bound(cli._memo.instance)
    assert plan["status"] == "heuristic"
    assert 0.98 * bound <= plan["t"] <= bound


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_reference_is_the_pipeline_instance(name):
    """The benchmark's answer check (``perfbench/checks.py``) rebuilds the
    scenario -> instance chain by hand; on every seed-1 scenario its
    instance and LP bound are the ones the CLI plans on."""
    checks = load_by_path("perfbench/checks.py", "checks")
    for doc in seed_1_docs(name):
        ref, inst = checks.reference(doc), pipeline(doc).instance
        assert ref.instance.l.tobytes() == inst.l.tobytes()
        assert ref.instance.m.tobytes() == inst.m.tobytes()
        assert ((ref.instance.n_slot, ref.instance.spacing, ref.instance.unit)
                == (inst.n_slot, inst.spacing, inst.unit))
        assert ref.lp_bound == lp_relaxation_bound(inst)


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
    """One run precodes each of the 12 clusters exactly once, in stacks of
    equal-size clusters: the stacked matrices are counted, not the calls."""
    precoded = []
    original = precoding.mmse_precoder

    def counted(h, tau, config, n_beams, cluster_id):
        ids = np.ravel(cluster_id).tolist()
        assert len(ids) == h.reshape(-1, *h.shape[-2:]).shape[0]
        precoded.extend(ids)
        return original(h, tau, config, n_beams, cluster_id)

    monkeypatch.setattr(precoding, "mmse_precoder", counted)
    scenario = REPO / "scenarios" / "ref_71beam.json"
    assert _run(["capacity", "--scenario", scenario, "--out", tmp_path]) == 0
    assert cli._memo.scenario.n_clusters == 12
    assert sorted(precoded) == list(range(12))


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


def _record_opens(monkeypatch, out):
    """Wrap ``os.open`` and ``open`` (``io.open`` too, which ``pathlib``
    calls) to record the flags or mode of every open of a path in ``out``
    for writing."""
    opens = []
    os_open, open_ = os.open, builtins.open

    def inside(file):
        return (isinstance(file, (str, os.PathLike))
                and Path(file).parent == out)

    def recording_os_open(path, flags, *args, **kwargs):
        if inside(path) and flags & (os.O_WRONLY | os.O_RDWR):
            opens.append((Path(path).name, "os.open", flags))
        return os_open(path, flags, *args, **kwargs)

    def recording_open(file, mode="r", *args, **kwargs):
        if inside(file) and set(mode) & set("wax+"):
            opens.append((Path(file).name, "open", mode))
        return open_(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    return opens


def test_artifacts_are_rewritten_in_place(tmp_path, toy_file, monkeypatch):
    """Every artifact is opened by the one writer, without O_TRUNC, and a
    text written over a longer one leaves exactly the new bytes."""
    out = tmp_path / "out"
    opens = _record_opens(monkeypatch, out)
    config = out / "run_config.json"
    sizes = {}
    for command in ("snapshots", "capacity", "plan", "compare", "leakage",
                    "plan", "snapshots", "capacity"):
        assert _run([command, "--scenario", toy_file, "--out", out]) == 0
        sizes.setdefault(command, config.stat().st_size)
        text = config.read_text(encoding="utf-8")
        assert text == cli._json_text(json.loads(text)) + "\n"
        assert json.loads(text)["command"] == command
    assert sizes["leakage"] < sizes["compare"]
    assert opens
    assert {name for name, _, _ in opens} == {p.name for p in out.iterdir()}
    for name, how, flags in opens:
        assert how == "os.open", (name, how, flags)
        assert not flags & os.O_TRUNC, name


def test_write_text_cuts_a_longer_file_to_the_new_text(tmp_path):
    path = tmp_path / "artifact.json"
    cli._write_text(path, "x" * 1000 + "\u00e9\n")
    inode = path.stat().st_ino
    cli._write_text(path, "\u00e9\n")
    assert path.read_bytes() == "\u00e9\n".encode("utf-8")
    assert path.stat().st_ino == inode


def test_read_only_artifact_is_io_error_or_written_through(tmp_path, toy_file,
                                                           capsys):
    """A read-only artifact fails with exit 5 and stays as it was. A process
    that may write read-only files (root) writes through it: same inode,
    same mode, the fresh bytes."""
    assert _run(["plan", "--scenario", toy_file, "--out", tmp_path / "a"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    out.mkdir()
    old = b"x" * 100000
    path = out / "plan.json"
    path.write_bytes(old)
    path.chmod(0o444)
    inode = path.stat().st_ino
    rc = _run(["plan", "--scenario", toy_file, "--out", out])
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o444
    if os.access(path, os.W_OK):
        assert rc == 0
        assert path.read_bytes() == (tmp_path / "a" / "plan.json").read_bytes()
    else:
        assert rc == 5
        assert capsys.readouterr().err.startswith("error: io:")
        assert path.read_bytes() == old


def test_directory_in_place_of_an_artifact_is_io_error(tmp_path, toy_file,
                                                       capsys):
    (tmp_path / "out" / "plan.json").mkdir(parents=True)
    rc = _run(["plan", "--scenario", toy_file, "--out", tmp_path / "out"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: io:")


def test_symlinked_artifact_is_written_through(tmp_path, toy_file):
    assert _run(["plan", "--scenario", toy_file, "--out", tmp_path / "a"]) == 0
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 100000)
    out = tmp_path / "out"
    out.mkdir()
    (out / "plan.json").symlink_to(target)
    assert _run(["plan", "--scenario", toy_file, "--out", out]) == 0
    assert (out / "plan.json").is_symlink()
    assert target.read_bytes() == (tmp_path / "a" / "plan.json").read_bytes()


@pytest.mark.parametrize("solver", cli.SOLVERS)
def test_rerun_into_one_out_writes_a_fresh_runs_bytes(tmp_path, toy_file,
                                                      solver):
    """The pipeline twice into one directory leaves every file, the
    shrinking run_config.json included, as one run into a fresh one; its
    run_config.json is the one leakage alone writes."""
    runs = {"a": ("plan", "compare", "leakage") * 2,
            "b": ("plan", "compare", "leakage"), "c": ("leakage",)}
    for out, commands in runs.items():
        for command in commands:
            assert _run([command, "--scenario", toy_file, "--solver", solver,
                         "--out", tmp_path / out]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    assert ((tmp_path / "a" / "run_config.json").read_bytes()
            == (tmp_path / "c" / "run_config.json").read_bytes())


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
        "table.thresholds": pipe.table.thresholds_db,
        "table.se": pipe.table.se_bits_per_symbol,
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
