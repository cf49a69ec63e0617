"""Reference layout and route plan for Cat-state circuits.

The chain gates sit in two parallel gate columns, one per growth direction,
joined by a short connector channel at the top and a closing channel at the
bottom; the closing gate sits at the bottom of the low column, so the two
end qubits move towards each other and the high-side closing route carries
the plan's two turns. Simulating this plan reproduces the closed-form
Cat-state latency exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import generate_cat_circuit
from .gates import Netlist
from .macrolayout import Macroblock, MacroLayout, Point, RoutePlan, RouteStep, place_qubits
from .qfg import QubitFlowGraph, build_qfg
from .solver import Schedule


@dataclass(frozen=True)
class ReferencePlan:
    netlist: Netlist
    schedule: Schedule
    layout: MacroLayout
    qfg: QubitFlowGraph
    routes: RoutePlan
    placement: dict[int, Point]


def _pattern_schedule(n: int) -> Schedule:
    stage_of = {1: 1}
    for instr_id in range(2, n + 2):
        stage_of[instr_id] = 2 + (instr_id - 1) // 2
    stage_of[n + 2] = stage_of[n + 1] + 1
    return Schedule(stage_of, stage_of[n + 2])


def build_reference_cat_plan(n: int) -> ReferencePlan:
    if n < 2:
        raise ValueError(f"reference plan needs n >= 2, got {n}")
    netlist = generate_cat_circuit(n)
    schedule = _pattern_schedule(n)
    qfg = build_qfg(netlist, schedule)

    middle = (n - 1) // 2
    highs = [i.id for i in netlist.instructions[1:-1] if i.target > middle]
    lows = [i.id for i in netlist.instructions[1:-1] if i.target < middle]
    closing = n + 2
    k = len(highs) - 1  # bottom connector row sits at k + 2
    low_row0 = 0 if n % 2 else 1

    gate_cell: dict[int, Point] = {1: (2, 0)}
    for j, instr_id in enumerate(highs, start=1):
        gate_cell[instr_id] = (2, j)
    for j, instr_id in enumerate(lows, start=1):
        gate_cell[instr_id] = (0, low_row0 + j - 1)
    gate_cell[closing] = (0, k)

    blocks: dict[Point, Macroblock] = {}
    vertical = frozenset({"N", "S"})
    for instr_id, cell in gate_cell.items():
        blocks[cell] = Macroblock(vertical, (instr_id,))
    for y in range(0, k + 2):  # fill left-column channel gaps
        if (0, y) not in blocks:
            blocks[(0, y)] = Macroblock(vertical)
    blocks[(2, -1)] = Macroblock(frozenset({"S", "W"}))
    blocks[(1, -1)] = Macroblock(frozenset({"E", "W"}))
    blocks[(0, -1)] = Macroblock(frozenset({"E", "S"}))
    blocks[(2, k + 2)] = Macroblock(frozenset({"N", "W"}))
    blocks[(1, k + 2)] = Macroblock(frozenset({"E", "W"}))
    blocks[(0, k + 2)] = Macroblock(frozenset({"E", "N"}))

    node_cell = dict(gate_cell)
    layout = MacroLayout(blocks, gate_cell, node_cell)
    layout.check_ports()

    def straight(cells: list[Point]) -> tuple[RouteStep, ...]:
        return tuple(RouteStep(c, False) for c in cells)

    steps: dict[tuple[int, int, int], tuple[RouteStep, ...]] = {}
    top_hop = (
        RouteStep((2, 0), False),
        RouteStep((2, -1), True),
        RouteStep((1, -1), False),
        RouteStep((0, -1), True),
    )
    for key in qfg.edges:
        i, j, _ = key
        src, dst = gate_cell[i], gate_cell[j]
        if src == dst:
            steps[key] = ()
        elif src[0] == dst[0] and abs(src[1] - dst[1]) == 1:
            steps[key] = straight([dst])
        elif i == highs[-1] and j == closing:
            steps[key] = (
                RouteStep((2, k + 2), True),
                RouteStep((1, k + 2), False),
                RouteStep((0, k + 2), True),
                RouteStep((0, k + 1), False),
                RouteStep((0, k), False),
            )
        elif src == (2, 1):  # down from the high column via the top connector
            descent = tuple(RouteStep((0, y), False) for y in range(0, dst[1] + 1))
            steps[key] = top_hop + descent
        else:
            raise AssertionError(f"unplanned reference edge {key}")

    placement = place_qubits(qfg, layout)
    return ReferencePlan(netlist, schedule, layout, qfg, RoutePlan(steps), placement)
