import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import (
    channel_graph,
    layered_flow_graph,
    qfg_degree,
    random_degree4_graph,
    random_netlist,
    reference_layout_json,
    reference_layout_svg,
    reference_layout_text,
    reference_layout_text_rows,
    reference_route,
    reference_simulate,
    reference_tile,
    straights_and_turns,
    synth_qfg,
)
from ionpd.circuits import generate_cat_circuit
from ionpd.cli import main
from ionpd.compact import compact
from ionpd.drawing import OrthogonalDrawing, validate_drawing
from ionpd.latency import simulate
from ionpd.macrolayout import (
    LayoutError,
    MacroLayout,
    Macroblock,
    RoutePlan,
    RouteStep,
    place_qubits,
    route,
    tile,
)
from ionpd.orthogonal import orthogonalize
from ionpd.planar import planarize
from ionpd.qasm import parse_qasm
from ionpd.qfg import build_qfg
from ionpd.solver import schedule_netlist

FIXTURES = Path(__file__).resolve().parent / "fixtures"
LAYERED16 = FIXTURES / "layered16.qasm"
# the bench's layered:5 netlist: its gate 141 sits on a corner whose two
# one-unit edges lead to corners that took the blocks between them first,
# so its gaps widen twice, to three blocks
LAYERED5 = FIXTURES / "layered5.qasm"
# sha256 of `layout.json` and `latency.json` written by `ionpd latency` on the
# layered16 fixture and by `ionpd cat-gen 32`: they change only if a layout
# or its simulation does
ARTIFACT_PINS = {
    "layered16": {
        "layout.json": "a4702a275a1bf86e52a51a3e9733d73095045f519f66e626a8c31f643fd95d2e",
        "latency.json": "387c95f41258cd37c0c6a65b10b43c84d7607e3687318429c1ac1d3c442646a5",
    },
    "cat32": {
        "layout.json": "c11f41fd85bb5376cdae1b11c95d170ec2156430e52168fd8fd253163dc312ec",
        "latency.json": "f87f1559c207d762c7f4308e31657d75a3463ca873d489a19fa80fedb5942319",
    },
}


def pipeline(netlist):
    """Schedule, flow graph, drawing and layout of `netlist`, with the
    drawing as `compact` leaves it, untightened, and tiled with the default
    host sides, on purpose: on these cases `TestAgainstReference` meets
    gaps 1, 2 and 3 blocks wide, where `lay_out`'s tightened drawings leave
    `tile` gaps of 1 and 2 only."""
    schedule = schedule_netlist(netlist)
    qfg = build_qfg(netlist, schedule)
    pg = planarize(qfg)
    drawing = compact(pg, orthogonalize(pg))
    layout = tile(drawing, {})
    return schedule, qfg, drawing, layout


def cat7_movers_into(gate):
    """Qubits whose simulated movement ends at `gate` on the Cat-7 layout."""
    netlist = generate_cat_circuit(7)
    schedule, qfg, drawing, layout = pipeline(netlist)
    plan = route(qfg, drawing, layout)
    report = simulate(netlist, qfg, layout, plan, place_qubits(qfg, layout))
    return sorted(m.qubit for m in report.movements if m.edge[1] == gate)


class TestMacroblock:
    def test_kinds_from_ports(self):
        assert Macroblock(frozenset("EW")).kind == "STRAIGHT_H"
        assert Macroblock(frozenset("NS"), (3,)).kind == "GATE_STRAIGHT_V"
        assert Macroblock(frozenset("ES")).kind == "TURN_ES"
        assert Macroblock(frozenset("ESW")).kind == "TEE_ESW"
        assert Macroblock(frozenset("NESW")).kind == "CROSS"
        assert Macroblock(frozenset("N")).kind == "DEAD_END_N"

    def test_gate_requires_straight_block(self):
        with pytest.raises(LayoutError):
            Macroblock(frozenset("ES"), (1,))

    def test_dangling_port_reported_with_coordinates(self):
        from ionpd.macrolayout import MacroLayout

        lonely = MacroLayout({(2, 5): Macroblock(frozenset("EW"))}, {}, {})
        with pytest.raises(LayoutError) as err:
            lonely.check_ports()
        assert "(2, 5)" in str(err.value)

    def test_first_dangling_port_by_cell_then_port(self):
        from ionpd.macrolayout import MacroLayout

        blocks = {(3, 0): Macroblock(frozenset("EW")), (1, 2): Macroblock(frozenset("NS"))}
        with pytest.raises(LayoutError, match=r"port N of block at \(1, 2\)"):
            MacroLayout(blocks, {}, {}).check_ports()


class TestTile:
    def test_isolated_node_gets_caps(self):
        drawing = OrthogonalDrawing({7: (0, 0)}, {})
        layout = tile(drawing, {})
        kinds = sorted(b.kind for b in layout.blocks.values())
        assert kinds == ["DEAD_END_E", "DEAD_END_W", "GATE_STRAIGHT_H"]
        assert layout.gate_location_of == {7: (0, 0)}

    def test_straight_edge_row(self):
        drawing = OrthogonalDrawing(
            {1: (0, 0), 2: (1, 0)}, {(1, 2, 0): ((0, 0), (1, 0))}
        )
        layout = tile(drawing, {})
        xs = layout.grid.xs
        assert xs == {0: 0, 1: 1}  # a gap nothing widens is one block
        assert layout.gate_location_of == {1: (0, 0), 2: (1, 0)}
        row = [layout.blocks[(x, 0)].kind for x in range(-1, 3)]
        assert row == ["DEAD_END_E", "GATE_STRAIGHT_H", "GATE_STRAIGHT_H", "DEAD_END_W"]

    def test_zero_length_segments_add_nothing(self):
        nodes = {1: (0, 0), 2: (2, 1)}
        plain = OrthogonalDrawing(nodes, {(1, 2, 0): ((0, 0), (2, 0), (2, 1))})
        padded = OrthogonalDrawing(
            nodes, {(1, 2, 0): ((0, 0), (0, 0), (2, 0), (2, 0), (2, 1), (2, 1))}
        )
        assert tile(padded, {}) == tile(plain, {})
        qfg = synth_qfg([1, 2], [(1, 2)])
        layout = tile(padded, {})
        plan = route(qfg, padded, layout)
        assert plan == route(qfg, plain, tile(plain, {}))
        # east to the corner, which the last east step enters as a turn, then south
        east = layout.grid.xs[2] - layout.grid.xs[0]
        south = layout.grid.ys[1] - layout.grid.ys[0]
        assert [step.turn for step in plan.steps[(1, 2, 0)]] == (
            [False] * (east - 1) + [True] + [False] * south
        )

    @pytest.mark.parametrize("drawing", [
        OrthogonalDrawing({1: (0, 0), 2: (1, 0)}, {}),
        # the vertical mirror, each trap with one edge leading away
        OrthogonalDrawing(
            {1: (0, 0), 2: (0, 1), 3: (0, -1), 4: (0, 2)},
            {(1, 3, 0): ((0, 0), (0, -1)), (2, 4, 1): ((0, 1), (0, 2))},
        ),
    ], ids=["row", "column"])
    def test_facing_trap_caps_join_into_a_straight_block(self, drawing):
        # one grid unit apart, each trap's cap would land on the other's
        # cell, so the gap between them widens to two blocks and both traps
        # cap their open ends on the one block between them, which opens
        # towards both
        assert validate_drawing(drawing) == []
        layout = tile(drawing, {})
        layout.check_ports()
        first, second = layout.gate_location_of[1], layout.gate_location_of[2]
        assert abs(second[0] - first[0]) + abs(second[1] - first[1]) == 2
        between = ((first[0] + second[0]) // 2, (first[1] + second[1]) // 2)
        assert layout.blocks[between].kind in ("STRAIGHT_H", "STRAIGHT_V")
        assert not layout.blocks[between].gate_of
        assert layout == reference_tile(drawing)

    def test_diagonal_segment_raises(self):
        drawing = OrthogonalDrawing({1: (0, 0), 2: (1, 2)}, {(1, 2, 0): ((0, 0), (1, 2))})
        with pytest.raises(LayoutError, match="not axis-aligned"):
            tile(drawing, {})

    def test_cat4_has_six_gate_locations_and_connected_channels(self):
        _, _, _, layout = pipeline(generate_cat_circuit(4))
        assert len(layout.gate_location_of) == 6
        adj = channel_graph(layout)
        seen, stack = set(), [next(iter(adj))]
        while stack:
            cell = stack.pop()
            if cell in seen:
                continue
            seen.add(cell)
            stack.extend(adj[cell])
        assert seen == set(adj)

    def test_junction_nodes_get_displaced_gates(self):
        qfg = synth_qfg([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)])
        pg = planarize(qfg)
        drawing = compact(pg, orthogonalize(pg))
        layout = tile(drawing, {})
        centre = layout.node_cell[1]
        assert layout.blocks[centre].kind.startswith("TEE")
        gate = layout.gate_location_of[1]
        assert abs(gate[0] - centre[0]) + abs(gate[1] - centre[1]) == 1
        assert layout.blocks[gate].gate_of

    def test_ports_always_pair(self):
        rng = random.Random(41)
        for _ in range(40):
            qfg = random_degree4_graph(rng)
            pg = planarize(qfg)
            drawing = compact(pg, orthogonalize(pg))
            layout = tile(drawing, {})
            layout.check_ports()
            assert set(layout.gate_location_of) == set(qfg.nodes)
            assert len(set(layout.gate_location_of.values())) == len(qfg.nodes)

    def test_channel_graph_mirrors_drawing_topology(self):
        netlist = generate_cat_circuit(7)
        _, qfg, drawing, layout = pipeline(netlist)
        adj = channel_graph(layout)
        junctions = sum(1 for b in layout.blocks.values() if len(b.ports) >= 3)
        drawn_junctions = sum(1 for n in qfg.nodes if qfg_degree(qfg, n) >= 3)
        assert junctions == drawn_junctions

    def test_route_crossings_become_cross_blocks(self):
        crossing = OrthogonalDrawing(
            {1: (0, 1), 2: (2, 1), 3: (1, 0), 4: (1, 2)},
            {(1, 2, 0): ((0, 1), (2, 1)), (3, 4, 1): ((1, 0), (1, 2))},
            crossings=((1, 1),),
        )
        layout = tile(crossing, {})
        assert layout.blocks[layout.grid.xs[1], layout.grid.ys[1]].kind == "CROSS"


# one block per gap leaves the three corners 1 at (0, 1), 2 at (1, 0) and 3
# at (1, 1) no block between them, so every gap on their ported sides widens
# to two. There corners 1 and 2 take the blocks between them and corner 3
# first; 3 opens W and N only, so it still finds no free host and its two
# gaps widen to three. Nodes 4 and 5 end the corners' other edges
CORNERS = OrthogonalDrawing(
    {1: (0, 1), 2: (1, 0), 3: (1, 1), 4: (0, 0), 5: (0, 2)},
    {
        (1, 3, 0): ((0, 1), (1, 1)),
        (2, 3, 1): ((1, 0), (1, 1)),
        (2, 4, 2): ((1, 0), (0, 0)),
        (1, 5, 3): ((0, 1), (0, 2)),
    },
)


def gap_widths(axis: dict[int, int]) -> list[int]:
    """Blocks between consecutive grid lines of one axis of a grid map."""
    coords = [axis[g] for g in sorted(axis)]
    return [b - a for a, b in zip(coords, coords[1:])]


class TestWidening:
    """Every gap is one block wide; a trap's cap that meets a route or
    another node, and a corner or junction without a free host, widen the
    gaps they open into by one block each and tile again."""

    def test_corner_without_free_host_widens_its_gaps_only(self):
        layout = tile(CORNERS, {})
        # corner 3's W and N sides widen twice; the gap from y = 1 to 2,
        # which only corner 1's S side opens into, widens once
        assert layout.grid.xs == {0: 0, 1: 3}
        assert layout.grid.ys == {0: 0, 1: 3, 2: 5}
        assert layout.gate_location_of == {1: (1, 3), 2: (3, 1), 3: (2, 3), 4: (0, 0), 5: (0, 5)}
        assert layout == reference_tile(CORNERS)
        qfg = synth_qfg([1, 2, 3, 4, 5], [(1, 3), (2, 3), (2, 4), (1, 5)])
        assert route(qfg, CORNERS, layout) == reference_route(qfg, CORNERS, layout)

    def test_cap_on_a_perpendicular_route_widens_only_its_gap(self):
        # trap 3 caps W onto the vertical route from 1 to 2, so that gap
        # widens to two and the cap lands between the route and the trap
        drawing = OrthogonalDrawing(
            {1: (0, 0), 2: (0, 2), 3: (1, 1)}, {(1, 2, 0): ((0, 0), (0, 2))}
        )
        assert validate_drawing(drawing) == []
        layout = tile(drawing, {})
        assert layout.grid.xs == {0: 0, 1: 2}
        assert layout.grid.ys == {0: 0, 1: 1, 2: 2}
        assert layout.blocks[0, 1].kind == "STRAIGHT_V"
        assert layout.blocks[1, 1].kind == "DEAD_END_E"
        assert layout.gate_location_of == {1: (0, 0), 2: (0, 2), 3: (2, 1)}
        assert layout == reference_tile(drawing)

    @pytest.mark.parametrize("drawing", [
        OrthogonalDrawing({1: (0, 0), 2: (1, 0)}, {(1, 2, 0): ((0, 0), (1, 0))}),
        OrthogonalDrawing({1: (0, 0), 2: (0, 1)}, {(1, 2, 0): ((0, 0), (0, 1))}),
    ], ids=["row", "column"])
    def test_traps_joined_by_a_one_unit_edge_sit_on_adjacent_blocks(self, drawing):
        # the edge opens the facing ports, so neither trap caps towards the other
        layout = tile(drawing, {})
        first, second = layout.gate_location_of[1], layout.gate_location_of[2]
        assert abs(second[0] - first[0]) + abs(second[1] - first[1]) == 1
        assert set(gap_widths(layout.grid.xs) + gap_widths(layout.grid.ys)) <= {1}
        assert layout == reference_tile(drawing)
        qfg = synth_qfg([1, 2], [(1, 2)])
        assert len(route(qfg, drawing, layout).steps[(1, 2, 0)]) == 1

    def test_host_that_widening_cannot_free_raises(self):
        # three corners drawn on one point: the third finds both of the
        # point's ports taken however wide the gaps are
        stacked = OrthogonalDrawing(
            {1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (1, 0), 5: (0, 1)},
            {(1, 4, 0): ((0, 0), (1, 0)), (1, 5, 1): ((0, 0), (0, 1))},
        )
        for tiler in (lambda drawing: tile(drawing, {}), reference_tile):
            with pytest.raises(LayoutError, match=r"no free gate block next to junction at \(0, 0\)"):
                tiler(stacked)

    def test_layered5_widens_a_gap_and_beats_every_gap_at_three(self, macroblock_cases):
        name, netlist, qfg, drawing = macroblock_cases[-1]
        assert name == "layered5"
        layout = tile(drawing, {})
        widths = gap_widths(layout.grid.xs) + gap_widths(layout.grid.ys)
        assert set(widths) == {1, 2, 3}
        layout.check_ports()
        plan = route(qfg, drawing, layout)
        report = simulate(netlist, qfg, layout, plan, place_qubits(qfg, layout))
        assert report.total < 2434  # its latency with every gap three blocks wide
        assert report.total < 1711  # and with every gap at least two


class TestPlaceQubits:
    def test_cat7_first_use_rule(self):
        netlist = generate_cat_circuit(7)
        _, qfg, _, layout = pipeline(netlist)
        placement = place_qubits(qfg, layout)
        assert placement[3] == layout.gate_location_of[1]   # H wire
        assert placement[4] == layout.gate_location_of[2]
        assert placement[0] == layout.gate_location_of[7]   # low chain end
        assert placement[7] == layout.gate_location_of[8]   # high chain end

    def test_single_use_qubit(self):
        netlist = parse_qasm("CX q0,q1")
        _, qfg, _, layout = pipeline(netlist)
        placement = place_qubits(qfg, layout)
        assert placement[0] == placement[1] == layout.gate_location_of[1]


class TestRoute:
    def test_straight_route_tags(self):
        netlist = parse_qasm("H q0\nX q0")
        schedule, qfg, drawing, layout = pipeline(netlist)
        plan = route(qfg, drawing, layout)
        steps = plan.steps[(1, 2, 0)]
        assert steps and all(not s.turn for s in steps)
        straights, turns = straights_and_turns(plan, (1, 2, 0))
        assert straights == 3 * len(steps) and turns == 0

    def test_edge_without_drawn_route_raises(self):
        qfg = synth_qfg([1, 2], [(1, 2)])
        drawn = OrthogonalDrawing({1: (0, 0), 2: (1, 0)}, {(1, 2, 0): ((0, 0), (1, 0))})
        layout = tile(drawn, {})
        for router in (route, reference_route):
            with pytest.raises(LayoutError, match=r"edge \(1, 2, 0\) has no drawn route"):
                router(qfg, replace(drawn, routes={}), layout)

    @pytest.mark.parametrize("gate", [1, 2])
    def test_gate_off_its_route_raises(self, gate):
        qfg = synth_qfg([1, 2], [(1, 2)])
        drawing = OrthogonalDrawing({1: (0, 0), 2: (1, 0)}, {(1, 2, 0): ((0, 0), (1, 0))})
        layout = tile(drawing, {})
        moved = replace(layout, gate_location_of={**layout.gate_location_of, gate: (1, 5)})
        for router in (route, reference_route):
            with pytest.raises(
                LayoutError, match=rf"gate of {gate} disconnected from route \(1, 2, 0\)"
            ):
                router(qfg, drawing, moved)

    def test_already_resident_gives_empty_path(self):
        plan = RoutePlan({(1, 2, 0): ()})
        assert straights_and_turns(plan, (1, 2, 0)) == (0, 0)

    def test_cat7_gate2_mover_comes_from_gate1(self):
        # qubit 4 starts at gate 2's own location, so the H-wire qubit moves
        assert cat7_movers_into(2) == [3]

    def test_closing_gate_both_qubits_move(self):
        assert cat7_movers_into(9) == [0, 7]

    def test_paths_walk_the_channel_graph(self):
        rng = random.Random(43)
        for _ in range(20):
            qfg = random_degree4_graph(rng, max_nodes=9)
            pg = planarize(qfg)
            drawing = compact(pg, orthogonalize(pg))
            layout = tile(drawing, {})
            plan = route(qfg, drawing, layout)
            adj = channel_graph(layout)
            for (i, j, _), steps in plan.steps.items():
                cells = [layout.gate_location_of[i]] + [s.cell for s in steps]
                assert cells[-1] == layout.gate_location_of[j]
                for a, b in zip(cells, cells[1:]):
                    assert b in adj[a], f"{a}->{b} not a channel hop"

    def test_turns_are_direction_changes_between_cells(self):
        rng = random.Random(44)
        graphs = [random_degree4_graph(rng, max_nodes=9) for _ in range(10)]
        graphs += [layered_flow_graph(rng) for _ in range(2)]
        turns = 0
        for qfg in graphs:
            pg = planarize(qfg)
            drawing = compact(pg, orthogonalize(pg))
            layout = tile(drawing, {})
            for (i, _, _), steps in route(qfg, drawing, layout).steps.items():
                cells = [layout.gate_location_of[i]] + [s.cell for s in steps]
                moves = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(cells, cells[1:])]
                assert [s.turn for s in steps] == [
                    m_in != m_out for m_in, m_out in zip(moves, moves[1:])
                ] + [False] * bool(steps)
                turns += sum(s.turn for s in steps)
        assert turns >= 50

    def test_turn_count_matches_direction_changes(self):
        netlist = generate_cat_circuit(7)
        schedule, qfg, drawing, layout = pipeline(netlist)
        plan = route(qfg, drawing, layout)
        for steps in plan.steps.values():
            turn_blocks = sum(
                1 for s in steps if layout.blocks[s.cell].kind.startswith("TURN")
            )
            assert sum(1 for s in steps if s.turn) >= turn_blocks


def test_layout_renders(code932):
    _, _, _, layout = pipeline(code932)
    text = layout.to_text()
    assert "gate 1 at block" in text
    assert layout.to_svg().startswith("<svg")
    assert '"blocks"' in layout.to_json()


def assert_text_matches_reference(layout):
    # compared line by line: pytest's diff of two multi-megabyte strings
    # takes minutes, of two lists it names the first differing line
    assert layout.to_text().split("\n") == reference_layout_text(layout).split("\n")


class TestText:
    """`to_text` renders row by row; the full-grid renderer is the reference."""

    @pytest.mark.parametrize("n", [7, 32, 320])
    def test_cat(self, n):
        _, _, _, layout = pipeline(generate_cat_circuit(n))
        assert_text_matches_reference(layout)
        if n == 320:  # gate ids of three digits widen every cell to three characters
            assert max(layout.gate_location_of) >= 100
            grid = layout.to_text().split("\n")[: -len(layout.gate_location_of) - 1]
            assert all(len(line) % 9 == 0 for line in grid)

    def test_code932(self, code932):
        _, _, _, layout = pipeline(code932)
        assert_text_matches_reference(layout)

    def test_layered16(self):
        pg = planarize(layered_flow_graph(random.Random(5), qubits=16))
        layout = tile(compact(pg, orthogonalize(pg)), {})
        assert_text_matches_reference(layout)

    def test_gaps_between_blocks_and_rows(self):
        blocks = {
            (0, 0): Macroblock(frozenset("EW"), (123,)),
            (3, 0): Macroblock(frozenset("NS"), (7,)),
            (2, 3): Macroblock(frozenset("ESWN")),
            (-1, 3): Macroblock(frozenset("S")),
        }
        layout = MacroLayout(blocks, {123: (0, 0), 7: (3, 0)}, {})
        assert_text_matches_reference(layout)
        assert "\n\n\n\n" in layout.to_text()  # rows 1 and 2 hold no block

    def test_cell_width_follows_the_longest_gate_id(self):
        blocks = {
            (0, 0): Macroblock(frozenset("EW"), (1234,)),
            (1, 0): Macroblock(frozenset("EW"), (7,)),
            (2, 0): Macroblock(frozenset("W")),
        }
        layout = MacroLayout(blocks, {1234: (0, 0), 7: (1, 0)}, {})
        assert layout.to_text().split("\n")[:3] == [
            "#" * 12 + "#" * 12 + "#" * 12,
            "....1234...." + "....   7...." + "........####",
            "#" * 12 + "#" * 12 + "#" * 12,
        ]
        assert_text_matches_reference(layout)

    def test_empty(self):
        layout = MacroLayout({}, {}, {})
        assert layout.to_text() == reference_layout_text(layout) == "(empty layout)\n"


@pytest.fixture(scope="module")
def macroblock_cases(code932):
    """(name, netlist, qfg, drawing) for layered16, Cat-80,
    code_9_3_2, 12 seeded random netlists and, last, layered5, which widens
    a gap."""
    rng = random.Random(47)
    netlists = [
        ("layered16", parse_qasm(LAYERED16.read_text())),
        ("cat80", generate_cat_circuit(80)),
        ("code_9_3_2", code932),
    ] + [(f"random{k}", random_netlist(rng, max_instr=40, max_qubits=8)) for k in range(12)]
    netlists.append(("layered5", parse_qasm(LAYERED5.read_text())))
    cases = []
    for name, netlist in netlists:
        _, qfg, drawing, _ = pipeline(netlist)
        cases.append((name, netlist, qfg, drawing))
    return cases


class TestAgainstReference:
    """The macroblock layer against its implementation with one object per
    cell, kept in helpers: block for block, byte for byte, report for report."""

    def test_tile(self, macroblock_cases):
        widths = set()
        for name, _, _, drawing in macroblock_cases:
            layout, expected = tile(drawing, {}), reference_tile(drawing)
            assert list(layout.blocks.items()) == list(expected.blocks.items()), name
            assert layout.gate_location_of == expected.gate_location_of, name
            assert layout.node_cell == expected.node_cell, name
            assert layout.grid == expected.grid, name
            gate_free = {id(b) for b in layout.blocks.values() if not b.gate_of}
            assert len(gate_free) <= 15, name
            widths.update(gap_widths(layout.grid.xs) + gap_widths(layout.grid.ys))
        assert widths == {1, 2, 3}

    def test_layout_json(self, macroblock_cases):
        for name, _, _, drawing in macroblock_cases:
            layout = tile(drawing, {})
            assert layout.to_json() == reference_layout_json(layout), name

    def test_layout_json_of_hand_built_blocks(self):
        blocks = {
            (-4, 2): Macroblock(frozenset("NS"), (12, 3)),
            (0, -1): Macroblock(frozenset("ESWN")),
            (5, 5): Macroblock(frozenset("S")),
        }
        layout = MacroLayout(blocks, {12: (-4, 2), 3: (-4, 2)}, {})
        assert layout.to_json() == reference_layout_json(layout)
        empty = MacroLayout({}, {}, {})
        assert empty.to_json() == reference_layout_json(empty)
        portless = MacroLayout({(0, 0): Macroblock(frozenset())}, {}, {})
        for render in (MacroLayout.to_json, reference_layout_json):
            with pytest.raises(LayoutError, match="no ports"):
                render(portless)

    def test_layout_svg(self, macroblock_cases):
        for name, _, _, drawing in macroblock_cases:
            layout = tile(drawing, {})
            assert layout.to_svg() == reference_layout_svg(layout), name
            assert layout.to_svg(cell=7) == reference_layout_svg(layout, cell=7), name

    def test_layout_svg_of_hand_built_blocks(self):
        blocks = {
            (-4, 2): Macroblock(frozenset("NS"), (12, 3)),
            (-3, 2): Macroblock(frozenset("EW"), (105,)),
            (0, -1): Macroblock(frozenset("ESWN")),
            (5, 5): Macroblock(frozenset("S")),
            (6, 5): Macroblock(frozenset()),
        }
        layout = MacroLayout(blocks, {12: (-4, 2), 3: (-4, 2), 105: (-3, 2)}, {})
        for cell in (10, 3):
            assert layout.to_svg(cell) == reference_layout_svg(layout, cell)
        empty = MacroLayout({}, {}, {})
        assert empty.to_svg() == reference_layout_svg(empty)

    def test_layout_text(self, macroblock_cases):
        narrow = 0
        for name, _, _, drawing in macroblock_cases:
            layout = tile(drawing, {})
            text = layout.to_text()
            assert text.split("\n") == reference_layout_text(layout).split("\n"), name
            if max(layout.gate_location_of) < 100:
                narrow += 1
                assert text == reference_layout_text_rows(layout), name
        assert narrow >= 10

    def test_route(self, macroblock_cases):
        for name, _, qfg, drawing in macroblock_cases:
            layout = tile(drawing, {})
            assert route(qfg, drawing, layout) == reference_route(qfg, drawing, layout), name

    def test_simulate(self, macroblock_cases):
        moved = 0
        for name, netlist, qfg, drawing in macroblock_cases:
            layout = tile(drawing, {})
            plan = route(qfg, drawing, layout)
            placement = place_qubits(qfg, layout)
            report = simulate(netlist, qfg, layout, plan, placement)
            expected = reference_simulate(netlist, qfg, layout, plan, placement)
            assert report == expected, name
            assert report.to_json() == expected.to_json(), name
            moved += bool(report.congestion_delay)
        assert moved >= 2  # some runs wait for a busy channel


@pytest.mark.parametrize("name, argv", [
    ("layered16", ["latency", str(LAYERED16)]),
    ("cat32", ["cat-gen", "32"]),
])
def test_artifacts_are_pinned(tmp_path, capsys, name, argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    for artifact, digest in ARTIFACT_PINS[name].items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact
