import ast
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gridshed
from gridshed.checker import SERIES, Schedule, schedule_to_dict
from gridshed.cli import _parse_values, main
from gridshed.instances import (
    load_case,
    small_network,
    thirteen_bus_network,
    thirteen_bus_scenario,
)

from conftest import unschedulable_network


@pytest.fixture(scope="module")
def case_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("case")
    net = root / "net.json"
    scen = root / "scen.json"
    net.write_text(json.dumps(small_network(seed=4, n_blocks=3)))
    scen.write_text(json.dumps({
        "horizon": 3,
        "risk": [[3.0] * 3, [1.0] * 3, [1.0] * 3],
        "limits": {"epsilon": 0.7, "k_bl_max": 3, "alpha": 2, "m": 2},
    }))
    return str(net), str(scen), root


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(case_files, capsys):
    net, scen, _ = case_files
    code, out, _ = run_cli(capsys, "validate", "--net", net, "--scen", scen)
    assert code == 0
    assert "network ok" in out


def test_missing_file_is_input_error(case_files, capsys):
    net, _, root = case_files
    code, _, err = run_cli(capsys, "solve", "--net", net,
                           "--scen", str(root / "absent.json"))
    assert code == 1
    assert "absent.json" in err


def test_solve_writes_report_and_schedule(case_files, capsys, tmp_path):
    net, scen, _ = case_files
    sched_path = tmp_path / "sched.json"
    code, out, _ = run_cli(
        capsys, "solve", "--net", net, "--scen", scen,
        "--mode", "equitable", "--schedule-out", str(sched_path),
    )
    assert code == 0
    assert out.startswith("block")
    assert "objective:" in out
    doc = json.loads(sched_path.read_text())
    assert doc["horizon"] == 3


def test_check_roundtrip_and_tamper(case_files, capsys, tmp_path):
    net, scen, _ = case_files
    sched_path = tmp_path / "sched.json"
    code, _, _ = run_cli(capsys, "solve", "--net", net, "--scen", scen,
                         "--schedule-out", str(sched_path))
    assert code == 0

    code, out, _ = run_cli(capsys, "check", "--net", net, "--scen", scen,
                           "--schedule", str(sched_path))
    assert code == 0
    assert json.loads(out)["pass"] is True

    doc = json.loads(sched_path.read_text())
    doc["block_status"][0] = [1 - v for v in doc["block_status"][0]]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", "--net", net, "--scen", scen,
                           "--schedule", str(tampered))
    assert code == 2
    assert json.loads(out)["pass"] is False

    doc["block_status"] = [row[:2] for row in doc["block_status"]]
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", "--net", net, "--scen", scen,
                           "--schedule", str(truncated))
    assert code == 1


def nan_flows_and_output(doc):
    for key in ("flow_p", "pg"):
        for series in doc["dispatch"][key].values():
            series[:] = [math.nan] * len(series)


@pytest.mark.parametrize("edit", [
    nan_flows_and_output,
    lambda doc: doc["dispatch"].update(pg=[1, 2]),
    lambda doc: doc["switch_status"].update(
        {k: [[0, 1]] * 3 for k in doc["switch_status"]}),
    lambda doc: doc["dispatch"]["pg"].update(ghost=[1e9] * doc["horizon"]),
    lambda doc: doc["dispatch"]["flow_p"].update(ghost2=[0.0]),
    lambda doc: doc["grid_forming"].update(ghost=[1] * doc["horizon"]),
    lambda doc: doc["switch_status"].update(
        {k: [str(x) for x in v] for k, v in doc["switch_status"].items()}),
    lambda doc: doc["dispatch"]["pg"].update(
        {k: [str(x) for x in v] for k, v in doc["dispatch"]["pg"].items()}),
    lambda doc: doc["block_status"].__setitem__(
        0, [False] * len(doc["block_status"][0])),
    lambda doc: doc["block_status"][0].__setitem__(0, True),
], ids=["nan-dispatch", "pg-list", "nested-status", "ghost-pg", "ghost-flow",
        "ghost-forming", "string-status", "string-dispatch", "false-block-row",
        "one-true-in-block-row"])
def test_check_rejects_malformed_schedule(case_files, capsys, tmp_path, edit):
    net, scen, _ = case_files
    sched_path = tmp_path / "sched.json"
    code, _, _ = run_cli(capsys, "solve", "--net", net, "--scen", scen,
                         "--schedule-out", str(sched_path))
    assert code == 0
    doc = json.loads(sched_path.read_text())
    edit(doc)
    # json.dumps writes NaN, which json.load reads back
    sched_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", "--net", net, "--scen", scen,
                             "--schedule", str(sched_path))
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err


def test_check_flags_an_opened_fixed_line(capsys, tmp_path):
    net_doc, scen_doc = thirteen_bus_network(), thirteen_bus_scenario()
    net, _, scen = load_case(net_doc, scen_doc)
    doc = schedule_to_dict(gridshed.run_horizon(net, scen)[0])
    # l05 is not switchable and carries no flow at t=0
    assert doc["dispatch"]["flow_p"]["l05"][0] == 0.0
    assert doc["dispatch"]["flow_q"]["l05"][0] == 0.0
    doc["switch_status"]["l05"][0] = 0
    paths = {}
    for name, content in (("net", net_doc), ("scen", scen_doc),
                          ("schedule", doc)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    code, out, _ = run_cli(capsys, "check", "--net", str(paths["net"]),
                           "--scen", str(paths["scen"]),
                           "--schedule", str(paths["schedule"]))
    assert code == 2
    assert [(v["family"], v["entity"], v["period"])
            for v in json.loads(out)["violations"]] == [("fixed_line", "l05", 0)]


@pytest.mark.parametrize("case", ["loop", "island"])
def test_validate_rejects_unschedulable_network(capsys, tmp_path, case):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(unschedulable_network(case)))
    code, out, err = run_cli(capsys, "validate", "--net", str(path))
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_oversized_count_is_input_error(case_files, capsys, tmp_path):
    net, _, _ = case_files
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"horizon": 3, "risk": [[1.0] * 3] * 3,
                                "limits": {"k_bl_max": 10**400}}))
    code, out, err = run_cli(capsys, "solve", "--net", net, "--scen", str(path))
    assert code == 1
    assert out == "" and err.startswith("error: k_bl_max must be")


def test_validate_rejects_malformed_record(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"buses": [5]}))
    code, _, err = run_cli(capsys, "validate", "--net", str(path))
    assert code == 1
    assert err.startswith("error: bus: expected an object")


@pytest.mark.parametrize("collection, index, key, value, where", [
    ("loads", 2, "id", None, "load.id"),
    ("lines", 1, "from", ["b01"], "line.from"),
    ("ders", 2, "bus", 9, "der.bus"),
    ("storage", 0, "bus", False, "storage.bus"),
])
def test_validate_rejects_an_id_that_is_no_string(capsys, tmp_path,
                                                  collection, index, key,
                                                  value, where):
    doc = thirteen_bus_network()
    doc[collection][index][key] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", "--net", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {where}: expected a string, got {value!r}\n"


def test_solve_modes_match_with_default_limits(case_files, capsys):
    net, scen_path, root = case_files
    neutral = root / "neutral.json"
    neutral.write_text(json.dumps({
        "horizon": 3,
        "risk": [[3.0] * 3, [1.0] * 3, [1.0] * 3],
        "limits": {"epsilon": 0.7, "k_bl_max": 3},
    }))

    def objective(mode):
        code, out, _ = run_cli(capsys, "solve", "--net", net,
                               "--scen", str(neutral), "--mode", mode)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("objective:"))
        return float(line.split(":")[1])

    assert objective("original") == pytest.approx(objective("equitable"),
                                                  abs=1e-6)


def test_sweep_csv(case_files, capsys):
    net, scen, _ = case_files
    code, out, _ = run_cli(
        capsys, "sweep", "--net", net, "--scen", scen,
        "--param", "epsilon", "--values", "0.6:0.2:1.0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "param"
    assert [r[1] for r in rows[1:]] == ["0.6", "0.8", "1"]


def test_sweep_beta_values_list(case_files, capsys):
    net, scen, _ = case_files
    code, out, _ = run_cli(
        capsys, "sweep", "--net", net, "--scen", scen,
        "--param", "beta", "--values", "inf,2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3


def test_sweep_beta_rejects_negative_infinity(case_files, capsys):
    net, scen, _ = case_files
    code, out, err = run_cli(
        capsys, "sweep", "--net", net, "--scen", scen,
        "--param", "beta", "--values=-inf,inf",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: beta -inf must be >= 1 or inf")
    assert "Traceback" not in err


def test_sweep_unknown_param(case_files, capsys):
    net, scen, _ = case_files
    code, _, err = run_cli(capsys, "sweep", "--net", net, "--scen", scen,
                           "--param", "gamma", "--values", "1,2")
    assert code == 1
    assert "unknown sweep parameter" in err


def test_infeasible_exit_code(case_files, capsys, tmp_path):
    net, _, _ = case_files
    scen = tmp_path / "hopeless.json"
    scen.write_text(json.dumps({
        "horizon": 1,
        "risk": [[1.0], [1.0], [1.0]],
        "limits": {"epsilon": 0.0},
        "emergency_blocks": [0, 1, 2],
    }))
    code, _, err = run_cli(capsys, "solve", "--net", net, "--scen", str(scen))
    assert code == 2
    assert "infeasible" in err


def test_gen_emits_loadable_case(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--case", "13bus",
                           "--out-dir", str(tmp_path))
    assert code == 0
    net_path, scen_path = out.splitlines()
    code, out, _ = run_cli(capsys, "validate", "--net", net_path,
                           "--scen", scen_path)
    assert code == 0
    assert "23 buses, 6 blocks" in out


def test_gen_emits_loadable_desk_case(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--case", "desk", "--seed", "2",
                           "--out-dir", str(tmp_path))
    assert code == 0
    net_path, scen_path = out.splitlines()
    code, out, _ = run_cli(capsys, "validate", "--net", net_path,
                           "--scen", scen_path)
    assert code == 0
    assert "network ok" in out and "scenario ok" in out


@pytest.mark.parametrize("argv, code", [(["solve"], 1), (["--help"], 0)])
def test_usage_errors_exit_without_traceback(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert "usage:" in (err if code else out)
    assert "Traceback" not in err


def test_bad_gap_rejected(case_files, capsys):
    net, scen, _ = case_files
    code, _, err = run_cli(capsys, "solve", "--net", net, "--scen", scen,
                           "--gap", "2.0")
    assert code == 1
    assert "gap" in err


@pytest.mark.parametrize("flag, value", [
    ("--time-limit", "-1"), ("--time-limit", "nan"), ("--node-limit", "-1"),
])
def test_bad_solver_limit_rejected(case_files, capsys, flag, value):
    net, scen, _ = case_files
    code, out, err = run_cli(capsys, "solve", "--net", net, "--scen", scen,
                             flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "limit must be" in err


def test_node_limit_beyond_highs_int_rejected(case_files):
    # HiGHS counts nodes in a 32-bit int, and scipy's binding raises a
    # TypeError for a larger one
    net, scen, _ = case_files
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridshed.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gridshed.cli", "solve", "--net", net,
         "--scen", scen, "--node-limit", str(2**31)],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: node limit must be in [0, 2147483647]")


@pytest.mark.parametrize("values, token", [
    ("abc", "'abc'"), ("0.5:x:1", "'x'"), (",", "''"),
    ("0.5:0.1:inf", "must be finite"), ("nan:0.1:1", "must be finite"),
    ("0:inf:1", "must be finite"), ("1:1e-20:2", "does not advance"),
    ("0:1e-9:1", "at most 10000"), ("-1e308:1e308:1e308", "not finite"),
    ("0:1e-320:1", "not finite"), ("1:2", "expected start:step:stop"),
])
def test_sweep_rejects_bad_values(case_files, capsys, values, token):
    net, scen, _ = case_files
    # one argument, so argparse takes a leading "-" for part of the value
    code, out, err = run_cli(capsys, "sweep", "--net", net, "--scen", scen,
                             "--param", "epsilon", f"--values={values}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad ") and token in err


def _stepped_values(start, step, stop):
    """The range as built by stepping from start until past stop, the
    reference for specs whose step advances."""
    values, v = [], start
    while v <= stop + 1e-12:
        values.append(round(v, 12))
        v += step
    return values


@pytest.mark.parametrize("spec", [
    "0.7:0.05:0.95", "0:0.1:1", "0.5:0.01:0.79", "0.6:0.2:1.0", "1:0.3:2",
    "0.25:0.025:0.5", "-1:0.07:1", "2:1:1", "0.1:0.1:0.1",
])
def test_range_spec_matches_stepping(spec):
    assert _parse_values(spec) == _stepped_values(*map(float, spec.split(":")))


def test_sweep_preserves_point_order(case_files, capsys):
    net, scen, _ = case_files
    code, out, _ = run_cli(
        capsys, "sweep", "--net", net, "--scen", scen,
        "--param", "epsilon", "--values", "0.7,0.9,1.0",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[1] for r in rows[1:]] == ["0.7", "0.9", "1"]


def test_package_reads_no_environment():
    package = os.path.dirname(os.path.abspath(gridshed.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("environ", "getenv"), name
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
                assert not names & {"environ", "getenv"}, name


HUGE = "1" * 5000  # json.load raises a plain ValueError past 4300 digits


@pytest.mark.parametrize("target", ["net", "scen", "schedule"])
def test_oversized_integer_is_input_error(case_files, capsys, tmp_path, target):
    net, scen, _ = case_files
    sched_path = tmp_path / "sched.json"
    code, _, _ = run_cli(capsys, "solve", "--net", net, "--scen", scen,
                         "--schedule-out", str(sched_path))
    assert code == 0
    files = {"net": net, "scen": scen, "schedule": str(sched_path)}
    with open(files[target], encoding="utf-8") as fh:
        doc = json.load(fh)
    record = doc["buses"][0] if target == "net" else doc
    record["v_max" if target == "net" else "horizon"] = "HUGE"
    bad = tmp_path / f"huge-{target}.json"
    bad.write_text(json.dumps(doc).replace('"HUGE"', HUGE))
    files[target] = str(bad)
    code, out, err = run_cli(capsys, "check", "--net", files["net"],
                             "--scen", files["scen"],
                             "--schedule", files["schedule"])
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert "is not valid JSON" in err and f"huge-{target}.json" in err


def test_deeply_nested_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"buses": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "validate", "--net", str(path))
    assert code == 1
    assert out == "" and err.startswith("error: network file")


def test_check_report_order_ignores_hash_seed(tmp_path):
    """Every block off and every DER forming at t=0 on the ``13bus`` case:
    the grid_forming records come out in network order, so the report is
    the same under any string hash seed."""
    net_doc, scen_doc = thirteen_bus_network(), thirteen_bus_scenario()
    net, part, scen = load_case(net_doc, scen_doc)
    T = scen.horizon
    sched = Schedule(
        horizon=T,
        block_status=np.zeros((part.n_blocks, T), dtype=int),
        **{name: {e.id: np.zeros(T, dtype=int if status else float)
                  for e in getattr(net, entities)}
           for name, _, entities, status in SERIES},
    )
    for series in sched.grid_forming.values():
        series[0] = 1
    paths = {}
    for name, doc in (("net", net_doc), ("scen", scen_doc),
                      ("schedule", schedule_to_dict(sched))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridshed.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gridshed.cli", "check",
             "--net", str(paths["net"]), "--scen", str(paths["scen"]),
             "--schedule", str(paths["schedule"])],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    forming = [v["entity"] for v in json.loads(outs[0])["violations"]
               if v["family"] == "grid_forming" and v["period"] == 0]
    assert forming == (
        [d.id for d in net.ders if not d.can_grid_form]
        + [f"{d.id}:dead-block" for d in net.ders if d.can_grid_form]
    )
