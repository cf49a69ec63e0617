import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ionpd.artifact import render_json
from ionpd.cli import main
from ionpd.gates import Netlist
from ionpd.solver import Schedule

ROOT = Path(__file__).resolve().parent.parent
CODE932 = str(ROOT / "circuits" / "code_9_3_2.qasm")
TOFFOLI_PAIR = str(ROOT / "circuits" / "toffoli_pair.qasm")
TABLE3 = str(Path(__file__).resolve().parent / "fixtures" / "table3_schedule.json")
LAYERED16 = str(ROOT / "tests" / "fixtures" / "layered16.qasm")
LAYERED5 = str(ROOT / "tests" / "fixtures" / "layered5.qasm")
MANIFEST = ROOT / "tests" / "fixtures" / "artifacts.sha256"
FIXTURES = ROOT / "tests" / "fixtures"


def read(out_dir, name):
    return (Path(out_dir) / name).read_text()


def test_full_pipeline_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["latency", CODE932, "--out", str(out), "--emit", "dot,svg,lp,json"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "6 stages" in printed and "total latency" in printed
    for name in (
        "netlist.json", "dataflow.json", "dataflow.dot", "schedule.json",
        "model.lp", "qfg.json", "qfg.dot", "drawing.json", "drawing.svg",
        "layout.json", "layout.svg", "layout.txt", "latency.json",
    ):
        assert (out / name).exists(), name
    schedule = json.loads(read(out, "schedule.json"))
    assert len(schedule["stages"]) == 6
    latency = json.loads(read(out, "latency.json"))
    assert latency["total_us"] > 0


def test_layout_text_is_the_tiled_layouts_text(tmp_path, monkeypatch):
    import ionpd.latency as latency

    layouts = []
    real_tile = latency.tile
    monkeypatch.setattr(
        latency, "tile", lambda drawing, sides: layouts.append(real_tile(drawing, sides)) or layouts[-1]
    )
    out = tmp_path / "cat7"
    assert main(["cat-gen", "7", "--out", str(out)]) == 0
    assert read(out, "layout.txt") == layouts[0].to_text()


def test_emit_filters_extras(tmp_path):
    out = tmp_path / "plain"
    assert main(["latency", CODE932, "--out", str(out)]) == 0
    assert (out / "schedule.json").exists()
    assert not (out / "model.lp").exists()
    assert not (out / "drawing.svg").exists()


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["latency", CODE932, "--out", str(out), "--emit", "dot,svg,lp,json"]) == 0
    for path in sorted(out1.iterdir()):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_artifacts_match_committed_manifest(tmp_path, capsys):
    # the runs CI checks with `sha256sum -c`; layered16 and two_registers
    # hold gate pairs that share two qubits, so `model.lp` lists each such
    # pair once, layered16, layered5, deep24 and dense28 keep stage
    # columns, dense28's with leading, middle and trailing runs, and
    # Cat-8's rectangle is drawn with its corners balanced; chains holds
    # long runs of one-qubit gates, so the planar greedy re-hangs pendant
    # paths in it and orthogonalize moves corners
    calls = {
        "code_9_3_2": ["latency", CODE932],
        "chains": ["latency", str(ROOT / "tests" / "fixtures" / "chains.qasm")],
        "layered16": ["latency", LAYERED16],
        "layered5": ["latency", LAYERED5],
        "deep24": ["latency", str(FIXTURES / "deep24.qasm")],
        "dense28": ["latency", str(FIXTURES / "dense28.qasm")],
        "two_registers": ["latency", str(ROOT / "tests" / "fixtures" / "two_registers.qasm")],
        "cat32": ["cat-gen", "32"],
        "cat8": ["cat-gen", "8"],
    }
    for name, argv in calls.items():
        assert main([*argv, "--emit", "dot,svg,lp,json", "--out", str(tmp_path / name)]) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*/*")
    }
    manifest = dict(line.split()[::-1] for line in MANIFEST.read_text().splitlines())
    assert len(manifest) == 117
    assert written == manifest


# runs each argv of the JSON list in sys.argv[1] through `main` with every
# networkx import refused; prints the exit codes and whether networkx loaded
WITHOUT_NETWORKX = """
import contextlib, json, sys
from importlib.abc import MetaPathFinder

class RefuseNetworkx(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseNetworkx())
try:
    import networkx
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("networkx imported despite the finder")
from ionpd.cli import main
with contextlib.redirect_stdout(sys.stderr):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "networkx": "networkx" in sys.modules}))
"""


def test_pipeline_runs_without_networkx(tmp_path):
    calls = {
        "code_9_3_2": ["latency", CODE932],
        "layered16": ["latency", LAYERED16],
        "cat32": ["cat-gen", "32"],
    }

    def argvs(side):
        return [
            argv + ["--emit", "dot,svg,lp,json", "--out", str(tmp_path / side / name)]
            for name, argv in calls.items()
        ]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX, json.dumps(argvs("child"))],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"codes": [0, 0, 0], "networkx": False}
    assert [main(argv) for argv in argvs("parent")] == [0, 0, 0]
    for name in calls:
        parent = sorted(p.name for p in (tmp_path / "parent" / name).iterdir())
        assert sorted(p.name for p in (tmp_path / "child" / name).iterdir()) == parent
        for artifact in parent:
            assert (tmp_path / "child" / name / artifact).read_bytes() == (
                tmp_path / "parent" / name / artifact
            ).read_bytes(), (name, artifact)


def test_library_has_no_assert():
    # `python -O` strips `assert`, so every invariant is an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "ionpd").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_json_artifacts_are_compact_sorted_lines(tmp_path):
    out = tmp_path / "fmt"
    assert main(["latency", CODE932, "--out", str(out), "--emit", "dot,svg,lp,json"]) == 0
    paths = sorted(out.glob("*.json"))
    assert [p.name for p in paths] == [
        "dataflow.json", "drawing.json", "latency.json", "layout.json",
        "netlist.json", "qfg.json", "schedule.json",
    ]
    for path in paths:
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1, path.name
        payload = json.loads(text)
        compact = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert text == render_json(payload) == compact, path.name
    for name, reader in (("netlist.json", Netlist), ("schedule.json", Schedule)):
        text = read(out, name)
        assert reader.from_json(text).to_json() == text


def test_parse_subcommand(tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["parse", CODE932, "--out", str(out)]) == 0
    assert "parsed 20 instructions on 9 qubits" in capsys.readouterr().out
    payload = json.loads(read(out, "netlist.json"))
    assert payload["qubit_count"] == 9


def test_cat_gen_rejects_one_qubit(tmp_path, capsys):
    assert main(["cat-gen", "1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: cat circuit needs n >= 2, got 1\n"


def test_cat_gen_runs_full_pipeline(tmp_path, capsys):
    out = tmp_path / "cat"
    assert main(["cat-gen", "7", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "6 stages" in printed
    netlist = json.loads(read(out, "netlist.json"))
    assert len(netlist["instructions"]) == 9


def test_verify_table3(capsys):
    assert main(["verify", CODE932, TABLE3]) == 0
    assert "OK, 0 violations" in capsys.readouterr().out


def test_verify_reports_violations(tmp_path, capsys):
    broken = json.loads(Path(TABLE3).read_text())
    broken["stages"][0]["instruction_ids"].remove(9)
    broken["stages"][1]["instruction_ids"].append(9)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert main(["verify", CODE932, str(path)]) == 3
    assert "series-2" in capsys.readouterr().out


def test_verify_rejects_an_instruction_scheduled_twice(tmp_path, capsys):
    netlist, schedule = tmp_path / "h.qasm", tmp_path / "twice.json"
    netlist.write_text("H q0\n")
    schedule.write_text(
        '{"horizon":2,"stages":[{"stage":1,"instruction_ids":[1]},'
        '{"stage":2,"instruction_ids":[1]}]}'
    )
    assert main(["verify", str(netlist), str(schedule)]) == 2
    assert "error: instruction 1 is scheduled twice" in capsys.readouterr().err


H_ENTRY = '{"id":1,"kind":"H","controls":[],"target":0}'


@pytest.mark.parametrize(
    "netlist, schedule, field",
    [
        ('{"qubit_count":1,"instructions":[' + H_ENTRY.replace('"H"', '"FOO"') + "]}", None, "kind"),
        ('{"qubit_count":1,"instructions":[{"id":1,"kind":"H","target":0}]}', None, "controls"),
        ("[" + H_ENTRY + "]", None, "instructions"),
        (
            '{"qubit_count":1,"instructions":[' + H_ENTRY + "]}",
            '{"horizon":1,"stages":[{"stage":1}]}',
            "instruction_ids",
        ),
        (  # bool subclasses int, yet no field is a boolean
            '{"qubit_count":1,"instructions":[{"id":true,"kind":"H","controls":[],"target":false}]}',
            None,
            "id",
        ),
        (
            '{"qubit_count":1,"instructions":[' + H_ENTRY + "]}",
            '{"horizon":1,"stages":[{"stage":true,"instruction_ids":[1]}]}',
            "stage",
        ),
    ],
    ids=[
        "unknown-kind",
        "no-controls",
        "top-level-array",
        "schedule-without-ids",
        "boolean-id",
        "boolean-stage",
    ],
)
def test_malformed_json_input_exit_code(tmp_path, capsys, netlist, schedule, field):
    (tmp_path / "netlist.json").write_text(netlist)
    if schedule is None:
        argv = ["latency", str(tmp_path / "netlist.json"), "--out", str(tmp_path / "o")]
    else:
        (tmp_path / "schedule.json").write_text(schedule)
        argv = ["verify", str(tmp_path / "netlist.json"), str(tmp_path / "schedule.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}'" in err


def test_json_input_ignores_extra_members(tmp_path, capsys):
    # only the members the reader names are read; any others pass unread
    netlist = tmp_path / "netlist.json"
    netlist.write_text('{"qubit_count":1,"foo":3,"instructions":[' + H_ENTRY[:-1] + ',"bar":1}]}')
    schedule = tmp_path / "schedule.json"
    schedule.write_text('{"horizon":1,"baz":[],"stages":[{"stage":1,"instruction_ids":[1],"qux":0}]}')
    assert main(["latency", str(netlist), "--out", str(tmp_path / "o")]) == 0
    assert main(["verify", str(netlist), str(schedule)]) == 0
    assert "OK, 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", [0, -1])
def test_schedule_horizon_below_one_exit_code(tmp_path, capsys, horizon):
    # a horizon below 1 would turn the horizon check off and let stage 7 pass
    netlist = tmp_path / "two.qasm"
    netlist.write_text("H q0\nH q1\n")
    schedule = tmp_path / "schedule.json"
    schedule.write_text(
        json.dumps({"horizon": horizon, "stages": [{"stage": 7, "instruction_ids": [1, 2]}]})
    )
    assert main(["verify", str(netlist), str(schedule)]) == 2
    assert "'horizon'" in capsys.readouterr().err
    schedule.write_text(json.dumps({"horizon": 2, "stages": [{"stage": 7, "instruction_ids": [1, 2]}]}))
    assert main(["verify", str(netlist), str(schedule)]) == 3
    assert capsys.readouterr().out.count("has no valid stage") == 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--node-budget", "-5"),
        ("--node-budget", "1.5"),
        ("--time-budget", "-0.5"),
        ("--time-budget", "nan"),
        ("--time-budget", "inf"),
    ],
)
def test_invalid_solver_budget_exit_code(tmp_path, capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["schedule", CODE932, option, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_oracle_cat4(tmp_path, capsys):
    from ionpd import generate_cat_circuit, render_qasm

    path = tmp_path / "cat4.qasm"
    path.write_text(render_qasm(generate_cat_circuit(4)))
    assert main(["oracle", str(path)]) == 0
    assert "5 stages" in capsys.readouterr().out


def test_node_budget_exit_code(tmp_path, capsys):
    # toffoli_pair under cv needs 9 stages, one below its list schedule's
    # 10, so the search runs and one node is not enough
    argv = ["schedule", TOFFOLI_PAIR, "--library", "cv", "--node-budget", "1"]
    assert main([*argv, "--out", str(tmp_path / "x")]) == 3
    assert "budget" in capsys.readouterr().err


def test_no_search_at_the_list_schedule_length(tmp_path, capsys):
    # code_9_3_2's list schedule has its lower bound of 6 stages, so the
    # run explores no node and any budget suffices, 0 included
    for budget in (["--node-budget", "1"], ["--node-budget", "0"], ["--time-budget", "0"]):
        assert main(["schedule", CODE932, *budget, "--out", str(tmp_path / "x")]) == 0
        assert "scheduled in 6 stages" in capsys.readouterr().out


def test_schedule_1200_instructions(tmp_path, capsys):
    source = tmp_path / "deep.qasm"
    source.write_text("".join(f"{g} q{q}\n" for g in ("H", "T", "H", "T") for q in range(300)))
    out = tmp_path / "o"
    assert main(["schedule", str(source), "--out", str(out)]) == 0
    assert "scheduled in 4 stages" in capsys.readouterr().out
    assert main(["verify", str(source), str(out / "schedule.json")]) == 0
    assert "OK, 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize(
    "gates",
    [["H"], ["H", "T"]],
    ids=["exchangeable", "chain"],
)
def test_schedule_1200_gates_on_one_qubit(tmp_path, capsys, gates):
    # pairwise exchangeable gates all conflict; H and T alternating form a
    # chain with an edge between every H and every T
    source = tmp_path / "wire.qasm"
    source.write_text("".join(f"{gates[k % len(gates)]} q0\n" for k in range(1200)))
    out = tmp_path / "o"
    assert main(["schedule", str(source), "--out", str(out)]) == 0
    assert "scheduled in 1200 stages" in capsys.readouterr().out
    assert main(["verify", str(source), str(out / "schedule.json")]) == 0
    assert "OK, 0 violations" in capsys.readouterr().out


def test_empty_file_exit_code(tmp_path, capsys):
    empty = tmp_path / "empty.qasm"
    empty.write_text("")
    assert main(["parse", str(empty), "--out", str(tmp_path / "o")]) == 2
    assert "empty netlist" in capsys.readouterr().err
    empty_json = tmp_path / "empty.json"
    empty_json.write_text('{"qubit_count": 3, "instructions": []}')
    assert main(["latency", str(empty_json), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: empty netlist\n"


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("FROBNICATE q0\n")
    assert main(["parse", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "unknown gate" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["parse", str(tmp_path / "nope.qasm"), "--out", str(tmp_path / "o")]) == 5


def test_out_naming_a_file_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["latency", CODE932, "--out", str(taken)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_options_do_not_carry_over_between_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = tmp_path / "A"
    assert main(["latency", CODE932, "--emit", "svg", "--out", str(first)]) == 0
    assert main(["latency", CODE932]) == 0
    assert sorted(p.name for p in first.glob("*.svg")) == ["drawing.svg", "layout.svg"]
    second = tmp_path / "out"  # the default --out
    assert (second / "latency.json").exists() and not list(second.glob("*.svg"))


def test_library_flag_decomposes(tmp_path):
    out = tmp_path / "tof"
    source = str(ROOT / "circuits" / "toffoli_pair.qasm")
    assert main(["latency", source, "--library", "ft", "--out", str(out)]) == 0
    payload = json.loads(read(out, "netlist.json"))
    kinds = {entry["kind"] for entry in payload["instructions"]}
    assert "Toffoli" not in kinds and "Tdg" in kinds


def test_latency_config_flag(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("turn = 20\nstraight_move = 2\n")
    out = tmp_path / "cfg_out"
    assert main(["latency", CODE932, "--latency-config", str(cfg), "--out", str(out)]) == 0
    slower = json.loads(read(out, "latency.json"))["total_us"]
    out2 = tmp_path / "default_out"
    assert main(["latency", CODE932, "--out", str(out2)]) == 0
    assert slower >= json.loads(read(out2, "latency.json"))["total_us"]


def test_layout_error_exit_code(tmp_path, capsys):
    # an undecomposed Toffoli leaves a degree-6 flow-graph node
    source = tmp_path / "toffoli.qasm"
    source.write_text("H q0\nH q1\nH q2\nToffoli q0,q1,q2\nH q0\nH q1\nH q2\n")
    assert main(["layout", str(source), "--out", str(tmp_path / "o")]) == 4
    assert "node 4 has degree 6" in capsys.readouterr().err


def test_undecomposed_toffoli_rejected_before_work(tmp_path, capsys):
    out = tmp_path / "tof"
    source = str(ROOT / "circuits" / "toffoli_pair.qasm")
    assert main(["latency", source, "--out", str(out)]) == 2
    assert "--library" in capsys.readouterr().err
    assert not (out / "schedule.json").exists()
    assert not (out / "layout.json").exists()


def test_planarize_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a planarity test that always fails breaks the final embedding
    monkeypatch.setattr("ionpd.planar.planar_rings", lambda adjacency: None)
    assert main(["layout", CODE932, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_infeasible_flow_network_exit_code(tmp_path, capsys, monkeypatch):
    import ionpd.orthogonal as orthogonal

    kernel = orthogonal.NetworkSimplex

    def closed(node_count, arcs, demand):
        # the flow kernel itself meets a network with every arc closed: no
        # vertex can send its angles to a face
        return kernel(node_count, [(u, v, 0, cost) for u, v, _, cost in arcs], demand)

    monkeypatch.setattr(orthogonal, "NetworkSimplex", closed)
    assert main(["layout", CODE932, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["latency", CODE932], ["cat-gen", "32"]],
                         ids=["code_9_3_2", "cat32"])
def test_missing_drawn_route_exit_code(tmp_path, capsys, monkeypatch, argv):
    from dataclasses import replace

    import ionpd.latency as latency

    real_compact = latency.compact

    def drop_first_route(pg, rep):
        drawing = real_compact(pg, rep)
        routes = dict(drawing.routes)
        del routes[min(routes)]
        return replace(drawing, routes=routes)

    monkeypatch.setattr(latency, "compact", drop_first_route)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: edge (") and err.endswith("has no drawn route\n")


def test_one_drawing_compacts_through_cli(tmp_path, capsys, monkeypatch):
    # every drawing a run compacts goes through `lay_out`: once for a planar
    # flow graph (Cat-32's cycle is a rectangle whose corners move, and
    # toffoli_pair under ft has no such face), and a second time for
    # code_9_3_2's crossing, whose outer-face alternate bends less
    import ionpd.latency as latency

    real_compact = latency.compact
    calls = []

    def counted(pg, rep):
        calls.append(rep)
        return real_compact(pg, rep)

    monkeypatch.setattr(latency, "compact", counted)
    runs = {
        "cat": (["cat-gen", "32"], 1),
        "toffoli": (["latency", TOFFOLI_PAIR, "--library", "ft"], 1),
        "code": (["latency", CODE932], 2),
    }
    for name, (argv, drawn) in runs.items():
        calls.clear()
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert len(calls) == drawn, name


@pytest.mark.parametrize("stage", ["place_qubits", "route"])
def test_broken_route_plan_exit_code(tmp_path, capsys, monkeypatch, stage):
    # a placement without a qubit, or a route plan without a leg, is a
    # layout error, not an input error
    from dataclasses import replace

    import ionpd.cli as cli

    real = getattr(cli, stage)

    def drop_first(qfg, *args):
        made = real(qfg, *args)
        if stage == "place_qubits":
            return {q: cell for q, cell in made.items() if q != min(made)}
        first = min(made.steps)
        return replace(made, steps={k: v for k, v in made.steps.items() if k != first})

    monkeypatch.setattr(cli, stage, drop_first)
    assert main(["latency", CODE932, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    expected = "has no initial placement" if stage == "place_qubits" else "error: missing route for qubit"
    assert err.startswith("error: ") and expected in err


# `total_us` of `ionpd cat-gen n`: the closed form up to n = 160
CAT_LATENCY = {8: 105.0, 32: 261.0, 80: 573.0, 160: 1093.0, 320: 2143.0}


@pytest.mark.parametrize("n", sorted(CAT_LATENCY))
def test_cat_latency_is_pinned(tmp_path, capsys, n):
    assert main(["cat-gen", str(n), "--out", str(tmp_path)]) == 0
    total = json.loads((tmp_path / "latency.json").read_text())["total_us"]
    assert total == CAT_LATENCY[n]


# `total_us` of `ionpd latency` on each input
PINNED_LATENCY = {
    "code_9_3_2": ([CODE932], 210.0),
    "toffoli_pair-cv": ([TOFFOLI_PAIR, "--library", "cv"], 245.0),
    "toffoli_pair-ft": ([TOFFOLI_PAIR, "--library", "ft"], 438.0),
    "layered16": ([LAYERED16], 532.0),
    "layered5": ([LAYERED5], 542.0),
    "deep24": ([str(FIXTURES / "deep24.qasm")], 2417.0),
    "dense28": ([str(FIXTURES / "dense28.qasm")], 488.0),
    "two_registers": ([str(FIXTURES / "two_registers.qasm")], 203.0),
    "extra4": ([str(FIXTURES / "extra4.qasm")], 704.0),
    "extra8": ([str(FIXTURES / "extra8.qasm")], 760.0),
}


@pytest.mark.parametrize("name", sorted(PINNED_LATENCY))
def test_latency_is_pinned(tmp_path, capsys, name):
    argv, total_us = PINNED_LATENCY[name]
    assert main(["latency", *argv, "--out", str(tmp_path)]) == 0
    total = json.loads((tmp_path / "latency.json").read_text())["total_us"]
    assert total == total_us


@pytest.mark.parametrize(
    "argv",
    [["cat-gen", "8"], ["cat-gen", "32"], ["latency", CODE932], ["latency", LAYERED16]],
    ids=["cat8", "cat32", "code_9_3_2", "layered16"],
)
def test_cli_draws_as_the_library_sequence(tmp_path, capsys, argv):
    # the README's library example: one `lay_out` call draws what the CLI writes
    from ionpd.circuits import generate_cat_circuit
    from ionpd.latency import lay_out
    from ionpd.qasm import parse_qasm
    from ionpd.qfg import build_qfg
    from ionpd.solver import schedule_netlist

    command, source = argv
    if command == "cat-gen":
        netlist = generate_cat_circuit(int(source))
    else:
        netlist = parse_qasm(Path(source).read_text(encoding="utf-8"))
    drawing, _ = lay_out(netlist, build_qfg(netlist, schedule_netlist(netlist)))
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "drawing.json").read_text(encoding="utf-8") == drawing.to_json()


def test_readme_library_example(tmp_path, capsys):
    # the README's python block, run from the repo root, prints the total
    # latency that `ionpd latency` writes for the same circuit
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    assert main(["latency", CODE932, "--out", str(tmp_path)]) == 0
    total = json.loads((tmp_path / "latency.json").read_text())["total_us"]
    assert child.stdout == f"{total}\n" == "210.0\n"


def test_drawing_ignores_the_latency_config(tmp_path, capsys):
    # the drawing prices no latency and the traps' host sides are ranked
    # under the default costs, so `layout` and `latency` with any costs draw
    # and tile alike. With turns at 1, toffoli_pair's hosts would move;
    # Cat-8, priced at 40 per cell, draws its rectangle balanced either way
    from ionpd.circuits import generate_cat_circuit
    from ionpd.qasm import render_qasm

    cat8 = tmp_path / "cat8.qasm"
    cat8.write_text(render_qasm(generate_cat_circuit(8)), encoding="utf-8")
    cases = {
        "cat8": ([str(cat8)], "straight_move = 40"),
        "toffoli_pair": ([TOFFOLI_PAIR, "--library", "cv"], "turn = 1"),
    }
    for name, (argv, config) in cases.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        assert main(["layout", *argv, "--out", str(a)]) == 0
        assert main(["latency", *argv, "--latency-config", str(cfg), "--out", str(b)]) == 0
        for artifact in ("drawing.json", "layout.json"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes(), (name, artifact)


def test_gate_off_its_route_exit_code(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    import ionpd.latency as latency

    real_tile = latency.tile

    def move_gate_one(drawing, sides):
        layout = real_tile(drawing, sides)
        x, y = layout.gate_location_of[1]
        return replace(layout, gate_location_of={**layout.gate_location_of, 1: (x - 10, y - 10)})

    monkeypatch.setattr(latency, "tile", move_gate_one)
    assert main(["latency", CODE932, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: gate of 1 disconnected from route (1, ")



def test_missing_gate_location_exit_code(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    import ionpd.latency as latency

    real_tile = latency.tile

    def drop_gate_one(drawing, sides):
        layout = real_tile(drawing, sides)
        locations = {i: cell for i, cell in layout.gate_location_of.items() if i != 1}
        return replace(layout, gate_location_of=locations)

    monkeypatch.setattr(latency, "tile", drop_gate_one)
    assert main(["latency", CODE932, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("error: instruction 1 has no gate location")

def test_invalid_schedule_exit_code(tmp_path, capsys, monkeypatch):
    from ionpd.solver import Violation

    clash = Violation(2, (1, 2), "instructions [1, 2] share q0 in stage 1")
    monkeypatch.setattr("ionpd.cli.validate", lambda *args: [clash])
    assert main(["schedule", CODE932, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "share q0" in err


@pytest.mark.parametrize("emit", ["svgg,dott", "json,png", "SVG"])
def test_unknown_emit_format_exit_code(tmp_path, capsys, emit):
    out = tmp_path / "o"
    assert main(["schedule", CODE932, "--emit", emit, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown --emit format")
    assert err.rstrip().endswith("choose from dot, svg, lp, json")
    assert not out.exists()


def test_qubit_table_built_once_per_run(tmp_path, monkeypatch):
    import ionpd.depgraph as depgraph

    calls = []
    real = depgraph.common_qubit_table
    monkeypatch.setattr(depgraph, "common_qubit_table", lambda n: calls.append(n) or real(n))
    assert main(["latency", CODE932, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_default_emit_renders_no_extras(tmp_path, monkeypatch):
    from ionpd.depgraph import DataflowGraph
    from ionpd.drawing import OrthogonalDrawing
    from ionpd.macrolayout import MacroLayout
    from ionpd.qfg import QubitFlowGraph

    def refuse(*args, **kwargs):
        raise AssertionError("rendered an artifact that --emit did not ask for")

    for owner in (MacroLayout, OrthogonalDrawing):
        monkeypatch.setattr(owner, "to_svg", refuse)
    for owner in (DataflowGraph, QubitFlowGraph):
        monkeypatch.setattr(owner, "to_dot", refuse)
    monkeypatch.setattr("ionpd.cli.to_lp_text", refuse)
    assert main(["latency", CODE932, "--out", str(tmp_path / "lazy")]) == 0
