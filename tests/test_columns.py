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
        # joins q0 and q1; stage 3: one-qubit gates 4, 5 and 7. Gates 1, 2
        # and 6 lead, so stage 1 gets no column: 1 and 2 sit one unit left
        # of 3, which takes q0 from N and q1 from W by their runs' ids, and
        # column 0 shifts right by one. 4 and 5 trail 3, on its E and S
        # exit rows just right of its column. q2 sees only one-qubit gates,
        # so its last gate 7 keeps a column, with 6 just left of it
        qfg = QubitFlowGraph(
            {1: 1, 2: 1, 6: 1, 3: 2, 4: 3, 5: 3, 7: 3},
            ((1, 3, 0), (2, 3, 1), (3, 4, 0), (3, 5, 1), (6, 7, 2)),
            {0: 1, 1: 2, 2: 6},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (0, 0), 2: (0, 1), 3: (1, 1), 4: (2, 1), 5: (2, 2), 6: (3, 0), 7: (4, 0)},
            {
                (1, 3, 0): ((0, 0), (1, 0), (1, 1)),
                (2, 3, 1): ((0, 1), (1, 1)),
                (3, 4, 0): ((1, 1), (2, 1)),
                (3, 5, 1): ((1, 1), (1, 2), (2, 2)),
                (6, 7, 2): ((3, 0), (4, 0)),
            },
        )
        assert idle_share(qfg) == 1 / 8
        check(qfg, drawing)

    def test_a_leading_run_sits_left_of_its_join_by_hand(self):
        # one-qubit gates 2 and 3 open q0 and lead into 4, which joins q0
        # with q1 from CX 1. The real in-edge takes N, the run W: it sits
        # on 4's row one unit apart, just left of 4's column, and the
        # channel widens by its two gates
        qfg = QubitFlowGraph(
            {1: 1, 2: 1, 3: 2, 4: 3},
            ((1, 4, 1), (2, 3, 0), (3, 4, 0)),
            {0: 2, 1: 1, 2: 1},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (0, 0), 2: (1, 1), 3: (2, 1), 4: (3, 1)},
            {
                (1, 4, 1): ((0, 0), (3, 0), (3, 1)),
                (2, 3, 0): ((1, 1), (2, 1)),
                (3, 4, 0): ((2, 1), (3, 1)),
            },
        )
        check(qfg, drawing)
        assert [d for d, _, _ in node_ports(drawing)[2].ends] == ["E"]

    def test_a_trailing_run_sits_right_of_its_source_by_hand(self):
        # one-qubit gates 2 and 3 close q0 after CX 1. The run takes 1's E
        # port, ahead of the real out-edge to 4, which leaves S; it sits on
        # row 0 just right of 1's column, and the channel's track starts
        # right of it
        qfg = QubitFlowGraph(
            {1: 1, 2: 2, 3: 3, 4: 2},
            ((1, 2, 0), (1, 4, 1), (2, 3, 0)),
            {0: 1, 1: 1, 2: 4},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (0, 0), 2: (1, 0), 3: (2, 0), 4: (4, 0)},
            {
                (1, 2, 0): ((0, 0), (1, 0)),
                (1, 4, 1): ((0, 0), (0, 1), (3, 1), (3, 0), (4, 0)),
                (2, 3, 0): ((1, 0), (2, 0)),
            },
        )
        check(qfg, drawing)
        assert [d for d, _, _ in node_ports(drawing)[3].ends] == ["W"]

    def test_a_lane_gate_sits_before_its_target_past_a_dummy_by_hand(self):
        # q0 leaves CX 1 and passes column 1 (CX 3 on q1 and q2) on a
        # dummy before it joins q1 again at 4; its lane gate 2 sits in the
        # channel before 4, on 4's N entry row just left of its column,
        # not in the channel after 1
        qfg = QubitFlowGraph(
            {1: 1, 2: 2, 3: 3, 4: 4},
            ((1, 2, 0), (1, 3, 1), (2, 4, 0), (3, 4, 1)),
            {0: 1, 1: 1, 2: 3},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (0, 0), 2: (4, 0), 3: (2, 2), 4: (5, 1)},
            {
                (1, 2, 0): ((0, 0), (4, 0)),
                (1, 3, 1): ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)),
                (2, 4, 0): ((4, 0), (5, 0), (5, 1)),
                (3, 4, 1): ((2, 2), (3, 2), (3, 1), (5, 1)),
            },
        )
        check(qfg, drawing)

    def test_a_qubit_of_one_qubit_gates_keeps_its_last_by_hand(self):
        # q0 sees only one-qubit gates 1, 2 and 3: 3 keeps a column, in
        # stage 3 with CX 6, and 1 and 2 lead into it from just left of
        # it. Lane gate 5 on q1 sits just left of 6 too, and the channel
        # widens by the longer run, 1 and 2
        qfg = QubitFlowGraph(
            {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3},
            ((1, 2, 0), (2, 3, 0), (4, 5, 1), (4, 6, 2), (5, 6, 1)),
            {0: 1, 1: 4, 2: 4},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (3, 0), 2: (4, 0), 3: (5, 0), 4: (0, 0), 5: (4, 3), 6: (5, 3)},
            {
                (1, 2, 0): ((3, 0), (4, 0)),
                (2, 3, 0): ((4, 0), (5, 0)),
                (4, 5, 1): ((0, 0), (0, 1), (2, 1), (2, 3), (4, 3)),
                (4, 6, 2): ((0, 0), (1, 0), (1, 2), (5, 2), (5, 3)),
                (5, 6, 1): ((4, 3), (5, 3)),
            },
            ((1, 1), (2, 2)),
        )
        check(qfg, drawing)

    def test_lane_gates_sit_on_their_legs_by_hand(self):
        # 1 and 4 join q0 and q1 in stages 1 and 3; one-qubit gates 2 (q0)
        # and 3 (q1) run between them in stage 2, which gets no column. Leg
        # q0 leaves 1 E and enters 4 N, both on row 0; leg q1 leaves S and
        # enters W, both on row 1. Each lane gate sits on its leg's entry
        # row just left of 4's column, so the channel widens by one on its
        # right, and each leg splits at its lane gate into two flow-graph
        # edges
        qfg = QubitFlowGraph(
            {1: 1, 2: 2, 3: 2, 4: 3},
            ((1, 2, 0), (1, 3, 1), (2, 4, 0), (3, 4, 1)),
            {0: 1, 1: 1},
        )
        drawing = draw_columns(qfg)
        assert drawing == OrthogonalDrawing(
            {1: (0, 0), 4: (2, 1), 2: (1, 0), 3: (1, 1)},
            {
                (1, 2, 0): ((0, 0), (1, 0)),
                (2, 4, 0): ((1, 0), (2, 0), (2, 1)),
                (1, 3, 1): ((0, 0), (0, 1), (1, 1)),
                (3, 4, 1): ((1, 1), (2, 1)),
            },
        )
        assert idle_share(qfg) == 0.0
        check(qfg, drawing)
        ports = node_ports(drawing)
        assert sorted(d for d, _, _ in ports[2].ends) == sorted(d for d, _, _ in ports[3].ends) == ["E", "W"]
        assert not ports[2].displaced and not ports[3].displaced

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
        # simulates to the same latency. dense28 has runs that lead, sit
        # between two gates and trail. In the last circuit both legs from
        # the first CX to the second carry a lane gate, so the lane gates'
        # ids, not the qubits, say which leg leaves E
        rng = random.Random(3)
        circuits = (fixture("layered16"), fixture("dense28"), parse_qasm("CX q0,q1\nH q0\nT q1\nCX q0,q1\nCX q1,q2"))
        for netlist in circuits:
            qfg = scheduled(netlist)
            drawing = draw_columns(qfg)
            total = full_pipeline(netlist)[-1].total
            perms = [list(range(netlist.qubit_count))[::-1]]
            for _ in range(3):
                perms.append(list(range(netlist.qubit_count)))
                rng.shuffle(perms[-1])
            for perm in perms:
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
