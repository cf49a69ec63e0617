"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Criterion 9 is a property suite by design: absolute benchmark latencies of
third-party physical-design flows are not reproducible here (their netlists,
tools and layout conventions are unavailable), so the pipeline is instead
held to validator-clean schedules, geometrically valid layouts, report
invariants and cost-model monotonicity on the bundled circuits.
"""

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import (
    bend_minimal,
    bend_minimum_milp,
    chained_netlist,
    dense_netlist,
    equal_up_to_phase,
    full_pipeline,
    lay_out_steps,
    netlist_unitary,
    one_sided_bends,
    random_degree4_graph,
    random_mixed_netlist,
    random_netlist,
    spied_rehangs,
    synth_qfg,
    toffoli_unitary,
)
from ionpd.circuits import generate_cat_circuit
from ionpd.columns import idle_share
from ionpd.compact import compact, tighten
from ionpd.decompose import Library, decompose
from ionpd.depgraph import asap_alap, build_dataflow, stage_lower_bound
from ionpd.drawing import validate_drawing
from ionpd.gates import GateKind
from ionpd.ilp import emit_ilp, to_lp_text
from ionpd.latency import LatencyModel, _critical_path, cat_latency_formula, lay_out, simulate
from ionpd.macrolayout import place_qubits, route, tile
from ionpd.orthogonal import orthogonalize
from ionpd.planar import planarize
from ionpd.qasm import parse_qasm, render_qasm
from ionpd.qfg import build_qfg
from ionpd.refplan import build_reference_cat_plan
from ionpd.solver import Schedule, oracle_min_stages, schedule_netlist, validate

ROOT = Path(__file__).resolve().parent.parent


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_code932_optimal_stage_count(code932):
    started = time.monotonic()
    graph = build_dataflow(code932)
    assert stage_lower_bound(code932, graph) == 6
    schedule = schedule_netlist(code932, graph=graph)
    assert schedule.stage_count == 6
    assert validate(code932, graph, schedule) == []
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _ok("1", f"6 stages, clean validation, {elapsed:.2f}s")


def test_criterion_2_table3_witness(code932, table3_schedule_path):
    schedule = Schedule.from_json(table3_schedule_path.read_text())
    violations = validate(code932, build_dataflow(code932), schedule)
    assert violations == []
    _ok("2", "published 6-stage schedule passes all three series")


def test_criterion_3_windows_and_lp_line(code932):
    graph = build_dataflow(code932)
    windows = asap_alap(graph, 6)
    assert (windows.asap[6], windows.alap[6]) == (1, 5)
    text = to_lp_text(emit_ilp(code932, graph, windows))
    assert "x_6_1 + x_6_2 + x_6_3 + x_6_4 + x_6_5 = 1" in text
    _ok("3", "window [1,5] and its series-1 row in the LP file")


def test_criterion_4_cat_schedules():
    started = time.monotonic()
    assert schedule_netlist(generate_cat_circuit(4)).stages() == {
        1: [1], 2: [2], 3: [3, 4], 4: [5], 5: [6],
    }
    assert schedule_netlist(generate_cat_circuit(7)).stages() == {
        1: [1], 2: [2], 3: [3, 4], 4: [5, 6], 5: [7, 8], 6: [9],
    }
    for n in range(2, 16):
        expected = (n + 5) // 2 if n % 2 else (n + 6) // 2
        assert schedule_netlist(generate_cat_circuit(n)).stage_count == expected
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _ok("4", f"published cat schedules and counts for n=2..15, {elapsed:.2f}s")


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20260808)
    for _ in range(200):
        netlist = random_netlist(rng, max_instr=10, max_qubits=6)
        graph = build_dataflow(netlist)
        assert (
            schedule_netlist(netlist, graph=graph).stage_count
            == oracle_min_stages(netlist, graph)
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _ok("5", f"200 seeded instances agree with the exhaustive oracle, {elapsed:.1f}s")


def test_criterion_6_latency_formula_and_reference_simulation():
    assert cat_latency_formula(7) == 92.0
    assert cat_latency_formula(4) == 79.0
    for n in range(3, 10):
        plan = build_reference_cat_plan(n)
        report = simulate(plan.netlist, plan.qfg, plan.layout, plan.routes, plan.placement)
        assert report.total == cat_latency_formula(n)  # zero tolerance
    _ok("6", "92/79 us and exact simulate==formula for n=3..9")


def _is_forest(qfg) -> bool:
    parent = {n: n for n in qfg.nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in qfg.edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def test_criterion_7_drawing_validity_and_bend_quality():
    rng = random.Random(424242)
    checked_optimal = 0
    forests = 0
    widened = 0
    for _ in range(500):
        qfg = random_degree4_graph(rng)
        pg = planarize(qfg)
        rep = orthogonalize(pg)
        drawing = compact(pg, rep)
        assert validate_drawing(drawing) == []
        assert one_sided_bends(rep)
        # every drawing, tightened as the CLI does, tiles and routes; a gap
        # wider than one block is a widened one
        drawing = tighten(drawing, {})
        assert validate_drawing(drawing) == []
        layout = tile(drawing, {})
        route(qfg, drawing, layout)
        widened += any(
            b - a > 1
            for axis in (layout.grid.xs, layout.grid.ys)
            for a, b in itertools.pairwise(sorted(axis.values()))
        )
        if len(qfg.nodes) <= 8:
            assert rep.total_bends == bend_minimum_milp(pg, rep)
            checked_optimal += 1
        if _is_forest(qfg):
            assert pg.crossings == frozenset()
            forests += 1
    assert forests > 20
    # trees draw with zero crossings, by explicit construction too
    for leaves in (2, 3, 4):
        star = [(1, k) for k in range(2, 2 + leaves)]
        tree = planarize(synth_qfg(list(range(1, 2 + leaves)), star))
        assert tree.crossings == frozenset()
    assert checked_optimal > 100
    assert widened >= 1
    _ok(
        "7",
        f"500 drawings valid, tiled and routed ({widened} with a widened gap), "
        f"{checked_optimal} bend-optimal vs MILP, trees crossing-free",
    )


def test_criterion_8_toffoli_decompositions():
    toffoli = parse_qasm("Toffoli q0,q1,q2")
    want = toffoli_unitary(0, 1, 2, 3)
    cv = decompose(toffoli, Library.CV_LIBRARY)
    assert equal_up_to_phase(netlist_unitary(cv, 3), want, tol=1e-9)
    ft = decompose(toffoli, Library.FT_LIBRARY)
    assert equal_up_to_phase(netlist_unitary(ft, 3), want, tol=1e-9)
    counts = Counter(i.kind for i in ft.instructions)
    assert counts == Counter(
        {GateKind.H: 2, GateKind.T: 3, GateKind.Tdg: 4, GateKind.S: 1, GateKind.CX: 6}
    )
    _ok("8", "both libraries unitarily equal Toffoli; FT counts H2/T3/Tdg4/S1/CX6")


def test_criterion_9_property_suite_on_bundled_circuits(code932):
    bundled = [
        code932,
        decompose(parse_qasm((ROOT / "circuits" / "toffoli_pair.qasm").read_text()),
                  Library.CV_LIBRARY),
        generate_cat_circuit(4),
        generate_cat_circuit(7),
    ]
    totals = []
    for netlist in bundled:
        schedule, qfg, drawing, layout, report = full_pipeline(netlist)
        graph = build_dataflow(netlist)
        assert validate(netlist, graph, schedule) == []
        assert validate_drawing(drawing) == []
        layout.check_ports()
        assert report.total == max(t.finish for t in report.timings)
        finish = {t.instruction: t.finish for t in report.timings}
        starts = {t.instruction: t.start for t in report.timings}
        for j, i in graph.edges:
            assert starts[i] >= finish[j]
        totals.append(report.total)
    for field in ("one_qubit_gate", "two_qubit_gate", "measurement",
                  "zero_prepare", "straight_move", "turn"):
        bumped = replace(LatencyModel(), **{field: getattr(LatencyModel(), field) * 3})
        for netlist, base in zip(bundled, totals):
            assert full_pipeline(netlist, bumped)[-1].total >= base
    _ok(
        "9",
        "bundled circuits: clean schedules, valid layouts, report invariants, "
        "monotone under each cost constant (absolute benchmark tables stay out of scope)",
    )


def free_movement_bound(netlist, graph, model) -> float:
    """Latency if every move were free: the longest chain of dependent gate
    costs, or the busiest qubit's total gate cost, whichever is larger."""
    finish: dict[int, float] = {}
    busy: Counter = Counter()
    for instr in netlist.instructions:
        cost = model.gate_cost(instr.kind)
        finish[instr.id] = cost + max((finish[p] for p in graph.predecessors(instr.id)), default=0.0)
        for q in instr.qubits:
            busy[q] += cost
    return max(max(finish.values()), max(busy.values()))


def through_every_validator(netlist, model) -> tuple[int, bool, str]:
    """Compile a netlist from its dataflow to the simulated latency, one
    `lay_out` step at a time, checking every stage on the way and that the
    steps draw and tile what `lay_out` does. Returns the number of legs that
    move, whether `orthogonalize` moved a corner of the flow's bend-minimal
    representation, and the name of the kept candidate drawing."""
    graph = build_dataflow(netlist)
    schedule = schedule_netlist(netlist, graph=graph)
    assert validate(netlist, graph, schedule) == []
    qfg = build_qfg(netlist, schedule, graph)
    pg, rep, candidates = lay_out_steps(netlist, qfg)
    name, drawing, sides = min(candidates, key=lambda c: _critical_path(netlist, qfg, c[1]))
    if rep.alternate is not None:
        assert rep.alternate.total_bends <= rep.total_bends
    layout = tile(drawing, sides)
    layout.check_ports()
    assert lay_out(netlist, qfg) == (drawing, layout)
    plan = route(qfg, drawing, layout)
    legs = 0
    for (i, j, _), steps in plan.steps.items():
        cells = [layout.gate_location_of[i], *(step.cell for step in steps)]
        assert cells[-1] == layout.gate_location_of[j]
        for (ax, ay), (bx, by) in itertools.pairwise(cells):
            assert abs(ax - bx) + abs(ay - by) == 1
        legs += bool(steps)
    report = simulate(netlist, qfg, layout, plan, place_qubits(qfg, layout), model)
    assert report.total >= free_movement_bound(netlist, graph, model)
    return legs, rep != bend_minimal(pg), name


def test_end_to_end_fuzz_through_every_validator():
    # random netlists over every gate kind, Toffoli gates decomposed by
    # either library, from QASM text to the simulated latency
    rng = random.Random(18)
    model = LatencyModel()
    libraries: Counter = Counter()
    kinds: Counter = Counter()
    legs = 0
    for _ in range(200):
        netlist = parse_qasm(render_qasm(random_mixed_netlist(rng, max_instr=8, max_qubits=5)))
        if any(instr.kind is GateKind.Toffoli for instr in netlist.instructions):
            library = rng.choice(list(Library))
            libraries[library] += 1
            netlist = decompose(netlist, library)
        kinds.update(instr.kind for instr in netlist.instructions)
        legs += through_every_validator(netlist, model)[0]
    assert set(libraries) == set(Library)
    assert {GateKind.Measure, GateKind.PrepZ, GateKind.CV} <= set(kinds)
    assert legs > 200


def test_end_to_end_chain_fuzz(monkeypatch):
    # netlists with runs of one-qubit gates between two-qubit gates: long
    # degree-2 chains make long faces, whose corners `orthogonalize` moves
    # to balance rectangles, and pendant paths, which the planar greedy
    # re-hangs where a join needs them instead of testing planarity; where
    # they cross, `lay_out` keeps some outer-face alternates
    moves = spied_rehangs(monkeypatch)
    rng = random.Random(25)
    model = LatencyModel()
    legs = moved = kept = 0
    for _ in range(60):
        netlist = parse_qasm(render_qasm(chained_netlist(rng, max_pairs=32, max_qubits=10)))
        netlist_legs, netlist_moved, netlist_kept = through_every_validator(netlist, model)
        legs += netlist_legs
        moved += netlist_moved
        kept += netlist_kept == "alternate"
    assert legs > 2000
    assert moved >= 20  # 27 of 60 with this seed
    assert kept >= 5  # 7 of 60 with this seed
    # 150 paths re-hung, up to 9 nodes long
    assert len(moves) >= 100 and max(len(path) for path, _ in moves) > 2


def test_end_to_end_dense_fuzz():
    # random layers on 4 to 20 qubits: every qubit gets a one-qubit gate per
    # layer, and a partial matching leaves some out of the layer's two-qubit
    # gates, so their legs span two stages and the columns hold dummies.
    # Flow graphs that cross with few idle slots draw stage columns as a
    # second candidate (23 of 40 with this seed); the deeper and wider ones
    # keep them, while small ones with few crossings keep the default
    rng = random.Random(31)
    model = LatencyModel()
    kept: Counter = Counter()
    spanning = 0
    for _ in range(40):
        netlist = parse_qasm(render_qasm(dense_netlist(rng)))
        kept[through_every_validator(netlist, model)[2]] += 1
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        spanning += idle_share(qfg) > 0
    assert spanning >= 30  # 35 of 40
    assert kept["columns"] >= 8  # 10 of 40
