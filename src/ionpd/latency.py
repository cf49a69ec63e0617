"""Timing model and event-driven latency simulation.

Physical operation costs in microseconds (defaults): one-qubit gate 1,
two-qubit gate 10, measurement 50, zero prepare 51, straight move 1 per
trap cell, turn 10. Crossing a macroblock in a straight line therefore
costs three straight-move units; traversing a turn, or changing direction
inside a junction, costs one turn unit.

Stages order gates but are not barriers: an instruction starts as soon as
its qubits have arrived at its gate location. Channel congestion is
first-come-first-served per block; the later ion waits, ties broken by
instruction id through the deterministic processing order. `lay_out`, the
layout generator in one call, sits beside `host_sides`, its one netlist step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .artifact import render_json
from .compact import compact, tighten
from .drawing import EdgeKey, OrthogonalDrawing, validate_drawing
from .gates import GateKind, Netlist
from .macrolayout import DIRS, OPPOSITE, LayoutError, MacroLayout, Point, RoutePlan, node_ports, tile
from .orthogonal import orthogonalize
from .planar import planarize
from .qfg import QubitFlowGraph


class LatencyConfigError(ValueError):
    """Malformed latency configuration."""


@dataclass(frozen=True)
class LatencyModel:
    one_qubit_gate: float = 1.0
    two_qubit_gate: float = 10.0
    measurement: float = 50.0
    zero_prepare: float = 51.0
    straight_move: float = 1.0
    turn: float = 10.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise LatencyConfigError(f"{f.name} must be a positive number, got {value!r}")

    def gate_cost(self, kind: GateKind) -> float:
        if kind is GateKind.Measure:
            return self.measurement
        if kind is GateKind.PrepZ:
            return self.zero_prepare
        if kind.arity == 1:
            return self.one_qubit_gate
        if kind.arity == 2:
            return self.two_qubit_gate
        raise ValueError(
            f"{kind.label} has no direct cost; decompose it into two-qubit gates first"
        )


def load_latency_model(path: str | None) -> LatencyModel:
    """Read `key = value` lines; unset keys keep their defaults."""
    if path is None:
        return LatencyModel()
    keys = {f.name for f in fields(LatencyModel)}
    overrides: dict[str, float] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise LatencyConfigError(f"line {line_no}: expected 'key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in keys:
                raise LatencyConfigError(f"line {line_no}: unknown key {key!r}")
            try:
                overrides[key] = float(value)
            except ValueError as exc:
                raise LatencyConfigError(f"line {line_no}: bad number {value!r}") from exc
    return replace(LatencyModel(), **overrides)


def cat_latency_formula(n: int, model: LatencyModel | None = None) -> float:
    """Closed-form latency of the n-qubit Cat-state circuit on its layout."""
    if n < 2:
        raise ValueError(f"cat latency defined for n >= 2, got {n}")
    m = model or LatencyModel()
    half = (n - 1) // 2 if n % 2 else n // 2
    return (
        m.one_qubit_gate
        + 2 * m.turn
        + (half + 2) * m.two_qubit_gate
        + (half + 4) * 3 * m.straight_move
    )


def _cost_or_zero(model: LatencyModel, kind: GateKind) -> float:
    try:
        return model.gate_cost(kind)
    except ValueError:
        return 0.0


def _drawn_timing(
    netlist: Netlist, qfg: QubitFlowGraph, drawing: OrthogonalDrawing
) -> tuple[dict[EdgeKey, float], dict[int, float], dict[int, float]]:
    """A forward and a backward pass over a drawing's flow graph: per
    flow-graph edge its drawn cost, and per instruction i the length of the
    longest dependency chain that ends with i's gate (`finish`) and of the
    longest that starts with it (`tail`).

    Under the default `LatencyModel`, whatever a run's latency config, each
    flow-graph edge costs its drawn route, three straight-move units per
    grid unit and one turn per interior route point (`compact` writes only
    the corners), and each node its gate; a gate without a cost (an
    undecomposed Toffoli) counts nothing.
    """
    m = LatencyModel()
    block_move = 3 * m.straight_move
    legs: dict[EdgeKey, float] = {}
    into: dict[int, list[tuple[int, float]]] = {}
    out: dict[int, list[tuple[int, float]]] = {}
    for key, pts in drawing.routes.items():
        i, j, _ = key
        length = 0
        ax, ay = pts[0]
        for bx, by in pts[1:]:
            length += abs(bx - ax) + abs(by - ay)
            ax, ay = bx, by
        leg = legs[key] = block_move * length + m.turn * (len(pts) - 2)
        into.setdefault(j, []).append((i, leg))
        out.setdefault(i, []).append((j, leg))
    order = sorted(netlist.instructions, key=lambda i: (qfg.stage_of[i.id], i.id))
    kind_cost = {kind: _cost_or_zero(m, kind) for kind in {i.kind for i in order}}
    cost = {instr.id: kind_cost[instr.kind] for instr in order}
    finish: dict[int, float] = {}
    for instr in order:
        ready = 0.0
        for i, leg in into.get(instr.id, ()):
            t = finish[i] + leg
            if t > ready:
                ready = t
        finish[instr.id] = ready + cost[instr.id]
    # every edge leads to a later stage, so successors come first in reverse
    tail: dict[int, float] = {}
    for instr in reversed(order):
        ahead = 0.0
        for j, leg in out.get(instr.id, ()):
            t = leg + tail[j]
            if t > ahead:
                ahead = t
        tail[instr.id] = cost[instr.id] + ahead
    return legs, finish, tail


def host_sides(
    netlist: Netlist, qfg: QubitFlowGraph, drawing: OrthogonalDrawing
) -> dict[int, tuple[str, ...]]:
    """Per corner or junction of a drawing, the sides `tile` tries, in turn,
    for the straight block that hosts its displaced trap.

    A node with one port or two opposite ones holds its own trap and gets
    no entry. A host on side d changes each leg through the node's port s:
    one block shorter if d is s, one block longer if d is opposite s, one
    turn if d is perpendicular, all under the default `LatencyModel`. Side d
    scores the latest arrival plus the longest departure of the drawing's
    longest dependency chains (`_drawn_timing`), each with its leg so
    changed; sides go lowest score first, ties in E, S, W, N order.
    """
    m = LatencyModel()
    block_move = 3 * m.straight_move
    # (host side, port side) -> change of a leg through that port
    pen = {
        (d, s): -block_move if d == s else block_move if d == OPPOSITE[s] else m.turn
        for d in DIRS
        for s in DIRS
    }
    legs, finish, tail = _drawn_timing(netlist, qfg, drawing)
    order: dict[int, tuple[str, ...]] = {}
    for node, ports in node_ports(drawing).items():
        if not ports.displaced:
            continue
        arrivals = [(s, finish[key[0]] + legs[key]) for s, key, _ in ports.ends if key[1] == node]
        departures = [(s, legs[key] + tail[key[1]]) for s, key, _ in ports.ends if key[0] == node]
        score = {
            d: max([t + pen[d, s] for s, t in arrivals], default=0.0)
            + max([t + pen[d, s] for s, t in departures], default=0.0)
            for d, _, _ in ports.ends
        }
        order[node] = tuple(sorted(score, key=lambda d: (score[d], "ESWN".index(d))))
    return order


def lay_out(netlist: Netlist, qfg: QubitFlowGraph) -> tuple[OrthogonalDrawing, MacroLayout]:
    """The layout generator: the flow graph's drawing, tightened to the room
    its displaced traps' host sides need, and that drawing's tiling. Raises
    `LayoutError` if the tightened drawing fails `validate_drawing`."""
    pg = planarize(qfg)
    drawing = compact(pg, orthogonalize(pg))
    sides = host_sides(netlist, qfg, drawing)
    drawing = tighten(drawing, sides)
    problems = validate_drawing(drawing)
    if problems:
        raise LayoutError(f"invalid drawing: {problems[0]}")
    return drawing, tile(drawing, sides)


@dataclass(frozen=True)
class Movement:
    qubit: int
    edge: tuple[int, int, int]
    straights: int
    turns: int
    delay: float


@dataclass(frozen=True)
class InstructionTiming:
    instruction: int
    start: float
    finish: float


@dataclass(frozen=True)
class LatencyReport:
    total: float
    timings: tuple[InstructionTiming, ...]
    movements: tuple[Movement, ...]
    movement_time: dict[int, float]  # per qubit
    congestion_delay: float

    def to_json(self) -> str:
        payload = {
            "total_us": self.total,
            "congestion_delay_us": self.congestion_delay,
            "instructions": [
                {"id": t.instruction, "start": t.start, "finish": t.finish}
                for t in self.timings
            ],
            "movements": [
                {
                    "qubit": m.qubit,
                    "edge": list(m.edge),
                    "straights": m.straights,
                    "turns": m.turns,
                    "delay": m.delay,
                }
                for m in self.movements
            ],
        }
        return render_json(payload)


def simulate(
    netlist: Netlist,
    qfg: QubitFlowGraph,
    layout: MacroLayout,
    routes: RoutePlan,
    placement: dict[int, Point],
    model: LatencyModel | None = None,
) -> LatencyReport:
    """Availability-time simulation of a placed and routed circuit, its
    instructions taken in the order of the flow graph's stages (`build_qfg`
    checked the schedule they come from); a gap in the route plan raises
    `LayoutError`."""
    m = model or LatencyModel()
    block_move = 3 * m.straight_move  # crossing one block in a straight line

    qubit_free: dict[int, float] = {}
    qubit_loc: dict[int, Point] = {}
    cell_free: dict[Point, float] = {}
    gate_free: dict[Point, float] = {}
    last_use: dict[int, int] = {}

    timings: list[InstructionTiming] = []
    movements: list[Movement] = []
    movement_time: dict[int, float] = {}
    congestion = 0.0

    order = sorted(netlist.instructions, key=lambda i: (qfg.stage_of[i.id], i.id))
    for instr in order:
        target_cell = layout.gate_location(instr.id)
        arrivals = []
        for qubit in instr.qubits:
            if qubit not in qubit_loc:
                if qubit not in placement:
                    raise LayoutError(f"qubit q{qubit} has no initial placement")
                qubit_loc[qubit] = placement[qubit]
                qubit_free[qubit] = 0.0
            t = qubit_free[qubit]
            if qubit_loc[qubit] != target_cell:
                # an initial leg (qubit placed off its first gate) is keyed from 0
                edge = (last_use.get(qubit, 0), instr.id, qubit)
                leg = routes.steps.get(edge)
                if leg is None:
                    raise LayoutError(f"missing route for qubit q{qubit} into {instr.id}")
                delay = 0.0
                turns = 0
                prev_cell = qubit_loc[qubit]
                last = len(leg) - 1
                for k, (cell, turn) in enumerate(leg):
                    if k < last:  # partner ions meet inside the gate block
                        ready = cell_free.get(cell, 0.0)
                        if ready > t:
                            delay += ready - t
                            t = ready
                    if turn:
                        t += m.turn
                        turns += 1
                    else:
                        t += block_move
                    # a cell frees once the ion has fully entered the next
                    # one; the step after this one frees `cell` itself
                    if t > cell_free.get(prev_cell, 0.0):
                        cell_free[prev_cell] = t
                    prev_cell = cell
                straights = 3 * (len(leg) - turns)
                movements.append(Movement(qubit, edge, straights, turns, delay))
                movement_time[qubit] = movement_time.get(qubit, 0.0) + (
                    straights * m.straight_move + turns * m.turn
                )
                congestion += delay
                qubit_loc[qubit] = target_cell
            arrivals.append(t)
        start = max([*arrivals, gate_free.get(target_cell, 0.0)])
        finish = start + m.gate_cost(instr.kind)
        gate_free[target_cell] = finish
        cell_free[target_cell] = max(cell_free.get(target_cell, 0.0), finish)
        for qubit in instr.qubits:
            qubit_free[qubit] = finish
            last_use[qubit] = instr.id
        timings.append(InstructionTiming(instr.id, start, finish))

    total = max((t.finish for t in timings), default=0.0)
    return LatencyReport(total, tuple(timings), tuple(movements), movement_time, congestion)
