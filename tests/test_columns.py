"""The stage-column drawing and the rule that makes it a `lay_out` candidate."""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import full_pipeline, layered_flow_graph
from ionpd import latency
from ionpd.circuits import generate_cat_circuit
from ionpd.columns import _route_channel, draw_columns, idle_share
from ionpd.compact import tighten
from ionpd.drawing import OrthogonalDrawing, validate_drawing
from ionpd.gates import Netlist
from ionpd.latency import host_sides, lay_out
from ionpd.macrolayout import LayoutError, node_ports, tile
from ionpd.qasm import parse_qasm
from ionpd.qfg import QubitFlowGraph, build_qfg
from ionpd.solver import schedule_netlist

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
LAYERED = ("layered16", "layered5", "deep24")


def fixture(name: str) -> Netlist:
    return parse_qasm((FIXTURES / f"{name}.qasm").read_text(encoding="utf-8"))


def scheduled(netlist: Netlist) -> QubitFlowGraph:
    return build_qfg(netlist, schedule_netlist(netlist))


def straight_through(drawing: OrthogonalDrawing) -> None:
    """Every crossing lies inside exactly two routes' segments, one
    horizontal and one vertical there, and on no corner."""
    for x, y in drawing.crossings:
        runs = []
        for key, pts in drawing.routes.items():
            assert (x, y) not in pts[1:-1], key
            for (ax, ay), (bx, by) in zip(pts, pts[1:]):
                if ay == by == y and min(ax, bx) < x < max(ax, bx):
                    runs.append("horizontal")
                elif ax == bx == x and min(ay, by) < y < max(ay, by):
                    runs.append("vertical")
        assert sorted(runs) == ["horizontal", "vertical"], (x, y)


def check(qfg: QubitFlowGraph, drawing: OrthogonalDrawing) -> None:
    assert set(drawing.node_pos) == set(qfg.nodes)  # dummies are no nodes
    assert set(drawing.routes) == set(qfg.edges)
    assert validate_drawing(drawing) == []
    straight_through(drawing)
    tightened = tighten(drawing, {})
    assert validate_drawing(tightened) == []
    straight_through(tightened)
    tile(tightened, {}).check_ports()


class TestDrawColumns:
    def test_three_stages_by_hand(self):
        # stage 1: one-qubit gates 1, 2 and 6 on q0, q1 and q2; stage 2: 3
        # joins q0 and q1; stage 3: one-qubit gates 4, 5 and 7. Gate 3
        # takes q0 from N (its source sits higher) and q1 from W, sends q0
        # E and q1 S, and so spans rows 0 to 2; q2 passes stage 2 on a
        # dummy at row 4. The legs into and out of 3 that change rows
        # take the one track of their channel
        qfg = QubitFlowGraph(
            {1: 1, 2: 1, 6: 1, 3: 2, 4: 3, 5: 3, 7: 3},
            ((1, 3, 0), (2, 3, 1), (3, 4, 0), (3, 5, 1), (6, 7, 2)),
            {0: 1, 1: 2, 2: 6},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (0, 0), 2: (0, 2), 6: (0, 4), 3: (2, 1), 4: (4, 0), 5: (4, 2), 7: (4, 4)},
            {
                (1, 3, 0): ((0, 0), (2, 0), (2, 1)),
                (2, 3, 1): ((0, 2), (1, 2), (1, 1), (2, 1)),
                (3, 4, 0): ((2, 1), (3, 1), (3, 0), (4, 0)),
                (3, 5, 1): ((2, 1), (2, 2), (4, 2)),
                (6, 7, 2): ((0, 4), (4, 4)),
            },
        )
        assert idle_share(qfg) == 1 / 8
        check(qfg, drawing)

    def test_a_cycle_of_legs_takes_a_dogleg(self):
        # leg 0 leaves on row 0 and arrives on row 2, leg 1 the other way:
        # each must lie left of the other, so leg 0 doglegs through free
        # row 1, and leg 1's track crosses the dogleg
        corners, tracks = _route_channel([(0, 2), (2, 0)])
        assert corners == [((0, 0), (0, 1), (2, 1), (2, 2)), ((1, 2), (1, 0))]
        assert tracks == 3

    def test_straight_legs_take_no_track(self):
        corners, tracks = _route_channel([(0, 0), (2, 3), (4, 4)])
        assert corners == [(), ((0, 2), (0, 3)), ()]
        assert tracks == 1

    def test_random_layers_draw_validly(self):
        rng = random.Random(11)
        for _ in range(30):
            qfg = layered_flow_graph(rng, qubits=rng.randint(2, 16), layers=rng.randint(1, 8))
            check(qfg, draw_columns(qfg))

    @pytest.mark.parametrize("name", LAYERED)
    def test_layered_fixtures_draw_validly(self, name):
        netlist = fixture(name)
        qfg = scheduled(netlist)
        drawing = draw_columns(qfg)
        check(qfg, drawing)
        assert drawing.crossings
        sides = host_sides(netlist, qfg, drawing)
        tile(tighten(drawing, sides), sides).check_ports()

    def test_qubit_labels_order_nothing(self):
        # the same circuit on permuted qubits draws the same geometry, and
        # simulates to the same latency
        netlist = fixture("layered16")
        qfg = scheduled(netlist)
        drawing = draw_columns(qfg)
        total = full_pipeline(netlist)[-1].total
        rng = random.Random(3)
        for _ in range(3):
            perm = list(range(netlist.qubit_count))
            rng.shuffle(perm)
            relabelled = Netlist(
                tuple(
                    replace(i, controls=tuple(perm[c] for c in i.controls), target=perm[i.target])
                    for i in netlist.instructions
                ),
                netlist.qubit_count,
            )
            moved = draw_columns(scheduled(relabelled))
            assert moved.node_pos == drawing.node_pos
            assert moved.routes == {(i, j, perm[q]): pts for (i, j, q), pts in drawing.routes.items()}
            assert full_pipeline(relabelled)[-1].total == total

    @pytest.mark.parametrize("qasm, gate, side, leg", [
        ("H q0\nH q1\nH q2\nToffoli q0,q1,q2\nH q0", 4, "S", 1),
        ("H q0\nToffoli q0,q1,q2\nH q0\nH q1\nH q2", 2, "N", 0),
    ], ids=["three-in", "three-out"])
    def test_a_third_leg_takes_the_side_left_over(self, qasm, gate, side, leg):
        # `ionpd layout` keeps Toffoli gates undecomposed, so a gate may
        # have three legs on one side: the third enters from S or leaves N
        qfg = scheduled(parse_qasm(qasm))
        drawing = draw_columns(qfg)
        check(qfg, drawing)
        ends = {d: key for d, key, _ in node_ports(drawing)[gate].ends}
        assert sorted(ends) == ["E", "N", "S", "W"]
        assert ends[side][leg] == gate  # 1: the leg ends at the gate, 0: starts there

    def test_more_than_four_ends_raise(self):
        qfg = QubitFlowGraph(
            {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 3},
            ((1, 4, 0), (2, 4, 1), (3, 4, 2), (4, 5, 0), (4, 6, 1)),
            {0: 1, 1: 2, 2: 3},
        )
        with pytest.raises(LayoutError, match="node 4 has 3 in-edges and 2 out-edges"):
            draw_columns(qfg)


class TestCandidates:
    @pytest.fixture
    def drawn(self, monkeypatch):
        calls = []

        def spy(qfg):
            calls.append(qfg)
            return draw_columns(qfg)

        monkeypatch.setattr(latency, "draw_columns", spy)
        return calls

    @pytest.mark.parametrize("name", ["layered16", "layered5"])
    def test_dense_crossing_graphs_keep_columns(self, drawn, name):
        netlist = fixture(name)
        qfg = scheduled(netlist)
        assert idle_share(qfg) == 0.0
        drawing, _ = lay_out(netlist, qfg)
        assert len(drawn) == 1
        columns = draw_columns(qfg)
        assert drawing == tighten(columns, host_sides(netlist, qfg, columns))

    @pytest.mark.parametrize("netlist", [
        pytest.param(lambda: generate_cat_circuit(8), id="cat8"),
        pytest.param(lambda: generate_cat_circuit(32), id="cat32"),
        pytest.param(lambda: fixture("two_registers"), id="two_registers"),
        pytest.param(lambda: parse_qasm((ROOT / "circuits" / "code_9_3_2.qasm").read_text()), id="code_9_3_2"),
        pytest.param(lambda: fixture("chains"), id="chains"),
        pytest.param(lambda: fixture("extra4"), id="extra4"),
    ])
    def test_planar_and_sparse_graphs_draw_no_columns(self, drawn, netlist):
        # Cat-8, Cat-32 and two_registers idle in few slots but are planar;
        # the others cross but idle in 23 % or more of their slots
        netlist = netlist()
        lay_out(netlist, scheduled(netlist))
        assert drawn == []
