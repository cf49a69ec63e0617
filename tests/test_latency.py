import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import full_pipeline, lay_out_steps, random_netlist
from ionpd.circuits import generate_cat_circuit
from ionpd.gates import GateKind
from ionpd.latency import (
    LatencyConfigError,
    LatencyModel,
    _critical_path,
    _drawn_timing,
    cat_latency_formula,
    host_sides,
    lay_out,
    load_latency_model,
    simulate,
)
from ionpd.drawing import OrthogonalDrawing, validate_drawing
from ionpd.macrolayout import place_qubits, route, tile
from ionpd.planar import planarize
from ionpd.qasm import parse_qasm
from ionpd.qfg import build_qfg
from ionpd.refplan import build_reference_cat_plan
from ionpd.solver import schedule_netlist, validate
from ionpd.depgraph import build_dataflow


# simulated Cat-n latency as the pipeline ships it: the closed form for
# n = 8, 32 and 80, and at most 15 % above it for the other sizes
AUTOMATIC_CAT = {4: 89.0, 7: 105.0, 8: 105.0, 16: 167.0, 32: 261.0, 48: 375.0, 80: 573.0}


class TestModel:
    def test_defaults(self):
        model = LatencyModel()
        assert (
            model.one_qubit_gate,
            model.two_qubit_gate,
            model.measurement,
            model.zero_prepare,
            model.straight_move,
            model.turn,
        ) == (1, 10, 50, 51, 1, 10)

    def test_load_defaults_and_overrides(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("# nothing here\n")
        assert load_latency_model(str(empty)) == LatencyModel()
        cfg = tmp_path / "turn.cfg"
        cfg.write_text("turn = 20\n")
        assert load_latency_model(str(cfg)) == LatencyModel(turn=20)

    def test_rejects_bad_values(self, tmp_path):
        for body in ("turn = -1\n", "turn = zero\n", "speed = 1\n", "turn 20\n"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(body)
            with pytest.raises(LatencyConfigError):
                load_latency_model(str(cfg))

    def test_gate_costs(self):
        model = LatencyModel()
        assert model.gate_cost(GateKind.H) == 1
        assert model.gate_cost(GateKind.CX) == 10
        assert model.gate_cost(GateKind.Measure) == 50
        assert model.gate_cost(GateKind.PrepZ) == 51
        with pytest.raises(ValueError):
            model.gate_cost(GateKind.Toffoli)


class TestDrawnCriticalPath:
    def test_hand_drawing(self):
        # H q0 at (0, 0), then X q0 at (2, 1) over three grid units and one
        # corner
        from ionpd.drawing import OrthogonalDrawing

        netlist = parse_qasm("H q0\nX q0")
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        drawing = OrthogonalDrawing({1: (0, 0), 2: (2, 1)}, {(1, 2, 0): ((0, 0), (2, 0), (2, 1))})
        assert _critical_path(netlist, qfg, drawing) == 1 + 3 * 3 + 10 + 1

    def test_longest_chain_wins_and_uncosted_gates_count_nothing(self):
        from ionpd.drawing import OrthogonalDrawing

        netlist = parse_qasm("Toffoli q0,q1,q2\nH q0\nCX q1,q3")
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        drawing = OrthogonalDrawing(
            {1: (0, 0), 2: (1, 0), 3: (0, 4)},
            {(1, 2, 0): ((0, 0), (1, 0)), (1, 3, 1): ((0, 0), (0, 4))},
        )
        assert _critical_path(netlist, qfg, drawing) == 4 * 3 + 10


# CX 3 drawn as a cross: q0 comes from H 1 over two units into its W side
# and q1 from H 2 over five units into its N side, arriving last; each
# leaves straight on, q0 to H 4 on the E side and q1 to H 5 on the S side
JUNCTION_QASM = "H q0\nH q1\nCX q0,q1\nH q0\nH q1"
JUNCTION = OrthogonalDrawing(
    {1: (-2, 0), 2: (0, -5), 3: (0, 0), 4: (2, 0), 5: (0, 2)},
    {
        (1, 3, 0): ((-2, 0), (0, 0)),
        (2, 3, 1): ((0, -5), (0, 0)),
        (3, 4, 0): ((0, 0), (2, 0)),
        (3, 5, 1): ((0, 0), (0, 2)),
    },
)


def scheduled(qasm):
    netlist = parse_qasm(qasm)
    return netlist, build_qfg(netlist, schedule_netlist(netlist))


class TestDrawnTiming:
    def test_forward_and_backward_passes(self):
        netlist, qfg = scheduled(JUNCTION_QASM)
        legs, finish, tail = _drawn_timing(netlist, qfg, JUNCTION)
        assert legs == {(1, 3, 0): 6, (2, 3, 1): 15, (3, 4, 0): 6, (3, 5, 1): 6}
        assert finish == {1: 1, 2: 1, 3: 1 + 15 + 10, 4: 33, 5: 33}
        assert tail == {1: 1 + 6 + 17, 2: 33, 3: 10 + 6 + 1, 4: 1, 5: 1}
        assert max(finish.values()) == 33


ROOT = Path(__file__).resolve().parent.parent
# inputs whose flow graphs cross, and the drawing `lay_out` keeps: the
# layered fixtures idle in no slot, so they draw stage columns and keep
# them; the others idle in about half of theirs and draw the outer-face
# alternate if it bends no more (code_9_3_2 and chains; extra4 and extra8
# bend more with it and do not draw it)
CROSSING_INPUTS = {
    "circuits/code_9_3_2.qasm": "alternate",
    "tests/fixtures/chains.qasm": "default",
    "tests/fixtures/extra4.qasm": "default",
    "tests/fixtures/extra8.qasm": "default",
    "tests/fixtures/layered16.qasm": "columns",
    "tests/fixtures/layered5.qasm": "columns",
}


class TestLayOut:
    @pytest.mark.parametrize("path", sorted(CROSSING_INPUTS))
    def test_kept_drawing_is_no_worse_than_the_default(self, path):
        netlist = parse_qasm((ROOT / path).read_text(encoding="utf-8"))
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        pg, rep, candidates = lay_out_steps(netlist, qfg)
        assert pg.crossings
        drawing, _ = lay_out(netlist, qfg)
        (_, default, _), *_ = candidates
        kept = next(c for c in candidates if c[1] == drawing)
        assert _critical_path(netlist, qfg, drawing) <= _critical_path(netlist, qfg, default)
        assert kept[0] == CROSSING_INPUTS[path]
        if rep.alternate is not None:
            assert rep.alternate.total_bends <= rep.total_bends

    def test_only_a_drawn_alternate_is_balanced(self, monkeypatch):
        # extra4, extra8 and layered16 bend more with the second-ranked
        # face outside, so their alternates are dropped before balancing
        from ionpd import orthogonal

        balance = orthogonal.balance_corners
        calls = []

        def counted(rep, degree, wide_cost):
            calls.append(rep)
            return balance(rep, degree, wide_cost)

        monkeypatch.setattr(orthogonal, "balance_corners", counted)
        bends_more = {"extra4", "extra8", "layered16"}
        for path in CROSSING_INPUTS:
            netlist = parse_qasm((ROOT / path).read_text(encoding="utf-8"))
            qfg = build_qfg(netlist, schedule_netlist(netlist))
            calls.clear()
            lay_out(netlist, qfg)
            assert len(calls) == (1 if Path(path).stem in bends_more else 2), path

    def test_one_cold_solve_per_component(self, monkeypatch):
        # the alternate re-solves each component's flow warm: a run that
        # draws it still builds one network per component with faces
        from ionpd import orthogonal

        kernel = orthogonal.NetworkSimplex
        solves = []

        def counted(node_count, arcs, demand):
            solves.append(node_count)
            return kernel(node_count, arcs, demand)

        monkeypatch.setattr(orthogonal, "NetworkSimplex", counted)
        for path in CROSSING_INPUTS:
            netlist = parse_qasm((ROOT / path).read_text(encoding="utf-8"))
            qfg = build_qfg(netlist, schedule_netlist(netlist))
            solves.clear()
            lay_out(netlist, qfg)
            pg = planarize(qfg)
            assert len(solves) == sum(1 for _, faces in pg.components if faces), path


class TestHostSides:
    def test_scores_rank_the_sides(self):
        # a host on side d moves each leg through port s by -3 (d is s), +3
        # (d opposite s) or +10 (perpendicular); the latest arrival plus
        # the longest departure scores N 17 + 17, S 19 + 17, E 26 + 17 and
        # W 26 + 17, so E goes before W on the tie
        netlist, qfg = scheduled(JUNCTION_QASM)
        assert host_sides(netlist, qfg, JUNCTION) == {3: ("N", "S", "E", "W")}

    def test_corner_ties_keep_the_fixed_order_and_straights_get_none(self):
        # X 2 turns from W to S and scores 14 + 5 on both sides; H 1 and
        # H 4 end one edge each and X 3 passes straight, so they hold
        # their own traps
        netlist, qfg = scheduled("H q0\nX q0\nX q0\nH q0")
        drawing = OrthogonalDrawing(
            {1: (-1, 0), 2: (0, 0), 3: (0, 1), 4: (0, 2)},
            {
                (1, 2, 0): ((-1, 0), (0, 0)),
                (2, 3, 0): ((0, 0), (0, 1)),
                (3, 4, 0): ((0, 1), (0, 2)),
            },
        )
        assert host_sides(netlist, qfg, drawing) == {2: ("S", "W")}

    def test_late_qubit_passes_straight_into_the_trap(self):
        # without an order the trap takes the E side, so q1 turns into it
        # and out again; on the N side q0 turns instead, and it waits anyway
        netlist, qfg = scheduled(JUNCTION_QASM)
        assert validate_drawing(JUNCTION) == []
        fixed = tile(JUNCTION, {})
        ranked = tile(JUNCTION, host_sides(netlist, qfg, JUNCTION))
        x, y = ranked.node_cell[3]
        assert fixed.gate_location_of[3] == (x + 1, y)
        assert ranked.gate_location_of[3] == (x, y - 1)
        fast, slow = (
            simulate(netlist, qfg, layout, route(qfg, JUNCTION, layout), place_qubits(qfg, layout)).total
            for layout in (ranked, fixed)
        )
        assert fast < slow


class TestFormula:
    def test_published_values(self):
        assert cat_latency_formula(7) == 92
        assert cat_latency_formula(4) == 79

    def test_movement_free_limit(self):
        tiny = 1e-12
        model = LatencyModel(straight_move=tiny, turn=tiny)
        assert cat_latency_formula(7, model) == pytest.approx(51, abs=1e-6)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cat_latency_formula(1)


class TestSimulate:
    def test_single_hadamard(self):
        report = full_pipeline(parse_qasm("H q0"))[-1]
        assert report.total == 1.0

    def test_two_block_straight_cx(self):
        # one CX whose mover crosses two macroblocks (six cells) straight
        from ionpd.macrolayout import MacroLayout, Macroblock, RoutePlan, RouteStep
        from ionpd.solver import Schedule

        netlist = parse_qasm("CX q0,q1")
        row = {
            (-1, 0): Macroblock(frozenset("E")),
            (0, 0): Macroblock(frozenset("EW")),
            (1, 0): Macroblock(frozenset("EW")),
            (2, 0): Macroblock(frozenset("EW"), (1,)),
            (3, 0): Macroblock(frozenset("W")),
        }
        layout = MacroLayout(row, {1: (2, 0)}, {1: (2, 0)})
        layout.check_ports()
        # q0 starts off its first gate: an initial leg, keyed from 0
        plan = RoutePlan({(0, 1, 0): (RouteStep((1, 0), False), RouteStep((2, 0), False))})
        placement = {0: (0, 0), 1: (2, 0)}
        qfg = build_qfg(netlist, Schedule({1: 1}, 1))
        report = simulate(netlist, qfg, layout, plan, placement)
        move = report.movements[0]
        assert (move.straights, move.turns) == (6, 0)
        assert report.total == 6 * 1 + 10

    def test_reference_plan_matches_formula_exactly(self):
        for n in range(2, 10):
            plan = build_reference_cat_plan(n)
            report = simulate(plan.netlist, plan.qfg, plan.layout, plan.routes, plan.placement)
            assert report.total == cat_latency_formula(n)
            assert report.congestion_delay == 0.0

    def test_automatic_cat_near_formula(self):
        for n, total in AUTOMATIC_CAT.items():
            report = full_pipeline(generate_cat_circuit(n))[-1]
            assert report.total == total <= 1.15 * cat_latency_formula(n), n

    def test_reference_plan_matches_formula_other_models(self):
        model = LatencyModel(
            one_qubit_gate=3, two_qubit_gate=17, straight_move=2, turn=23
        )
        for n in range(2, 10):
            plan = build_reference_cat_plan(n)
            report = simulate(
                plan.netlist, plan.qfg, plan.layout, plan.routes, plan.placement, model
            )
            assert report.total == cat_latency_formula(n, model)

    def test_reference_plan_pieces_are_valid(self):
        plan = build_reference_cat_plan(7)
        graph = build_dataflow(plan.netlist)
        assert validate(plan.netlist, graph, plan.schedule) == []
        plan.layout.check_ports()
        # the closing route carries the plan's two turns
        closing = plan.routes.steps[(8, 9, 7)]
        assert sum(1 for s in closing if s.turn) == 2

    def test_report_invariants(self, code932):
        report = full_pipeline(code932)[-1]
        assert report.total == max(t.finish for t in report.timings)
        finish = {t.instruction: t.finish for t in report.timings}
        start = {t.instruction: t.start for t in report.timings}
        graph = build_dataflow(code932)
        for j, i in graph.edges:
            assert start[i] >= finish[j]
        model = LatencyModel()
        for t in report.timings:
            kind = code932[t.instruction].kind
            assert t.finish == pytest.approx(t.start + model.gate_cost(kind))

    def test_zero_movement_total_is_weighted_critical_path(self):
        # every gate of each wire reuses one location, so timing reduces to
        # the dataflow critical path weighted by gate costs
        from ionpd.macrolayout import MacroLayout, Macroblock, RoutePlan
        from ionpd.solver import Schedule

        netlist = parse_qasm("H q0\nX q0\nH q0\nCX q1,q2")
        blocks = {
            (0, 0): Macroblock(frozenset("EW"), (1, 2, 3)),
            (-1, 0): Macroblock(frozenset("E")),
            (1, 0): Macroblock(frozenset("W")),
            (0, 2): Macroblock(frozenset("EW"), (4,)),
            (-1, 2): Macroblock(frozenset("E")),
            (1, 2): Macroblock(frozenset("W")),
        }
        gate_cells = {1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (0, 2)}
        layout = MacroLayout(blocks, gate_cells, gate_cells)
        qfg = build_qfg(netlist, Schedule({1: 1, 2: 2, 3: 3, 4: 1}, 3))
        placement = {0: (0, 0), 1: (0, 2), 2: (0, 2)}
        report = simulate(netlist, qfg, layout, RoutePlan({}), placement)
        assert report.total == 10.0  # max(1+1+1 on q0, 10 on q1/q2)
        assert not report.movements

    def test_monotone_in_every_constant(self, code932):
        base = full_pipeline(code932)[-1].total
        for field in (
            "one_qubit_gate",
            "two_qubit_gate",
            "straight_move",
            "turn",
        ):
            bumped = replace(LatencyModel(), **{field: getattr(LatencyModel(), field) * 2})
            assert full_pipeline(code932, bumped)[-1].total >= base

    def test_random_pipeline_monotonicity(self):
        rng = random.Random(7)
        for _ in range(8):
            netlist = random_netlist(rng, max_instr=8, max_qubits=5)
            base = full_pipeline(netlist)[-1].total
            bumped = replace(LatencyModel(), turn=25)
            assert full_pipeline(netlist, bumped)[-1].total >= base

    def test_missing_route_is_reported(self):
        plan = build_reference_cat_plan(4)
        broken_steps = dict(plan.routes.steps)
        key = next(iter(broken_steps))
        del broken_steps[key]
        from ionpd.macrolayout import RoutePlan

        with pytest.raises(ValueError, match="missing route"):
            simulate(
                plan.netlist,
                plan.qfg,
                plan.layout,
                RoutePlan(broken_steps),
                plan.placement,
            )

    def test_report_json_shape(self, code932):
        report = full_pipeline(code932)[-1]
        text = report.to_json()
        assert '"total_us"' in text and '"movements"' in text
