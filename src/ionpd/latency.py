"""Timing model and event-driven latency simulation.

Physical operation costs in microseconds (defaults): one-qubit gate 1,
two-qubit gate 10, measurement 50, zero prepare 51, straight move 1 per
trap cell, turn 10. Crossing a macroblock in a straight line therefore
costs three straight-move units; traversing a turn, or changing direction
inside a junction, costs one turn unit.

Stages order gates but are not barriers: an instruction starts as soon as
its qubits have arrived at its gate location. Channel congestion is settled
on a reservation table of trap cells: instructions are taken by (stage, id)
and each leg is booked whole, every cell at the earliest time the ion's
whole stay there overlaps no earlier booking. An ion does not wait for one
processed before it that reaches a cell later, and no instruction finishes
later than if it did. `lay_out`, the
layout generator in one call, sits beside its two netlist steps:
`host_sides` and the drawn critical path that picks one of its
`candidates`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, fields, replace
from operator import itemgetter

from .artifact import render_json
from .columns import draw_columns, idle_share
from .compact import compact, tighten
from .drawing import EdgeKey, OrthogonalDrawing, validate_drawing
from .gates import GateKind, Netlist
from .macrolayout import DIRS, OPPOSITE, LayoutError, MacroLayout, Point, RoutePlan, node_ports, tile
from .orthogonal import OrthoRep, orthogonalize
from .planar import PlanarizedGraph, planarize
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


def _critical_path(netlist: Netlist, qfg: QubitFlowGraph, drawing: OrthogonalDrawing) -> float:
    """The drawing's longest dependency chain: the largest `finish` of
    `_drawn_timing`."""
    return max(_drawn_timing(netlist, qfg, drawing)[1].values(), default=0.0)


def _tightened(
    netlist: Netlist, qfg: QubitFlowGraph, drawing: OrthogonalDrawing
) -> tuple[OrthogonalDrawing, dict[int, tuple[str, ...]]]:
    """A drawing, tightened to the room its displaced traps' host sides
    need, and those sides."""
    sides = host_sides(netlist, qfg, drawing)
    return tighten(drawing, sides), sides


# `lay_out` draws stage columns for a flow graph with crossings whose
# `idle_share` is below this
COLUMNS_IDLE_SHARE = 0.2


def candidates(
    qfg: QubitFlowGraph, pg: PlanarizedGraph, rep: OrthoRep
) -> tuple[tuple[str, OrthogonalDrawing], ...]:
    """The drawings `lay_out` chooses from, by name, as drawn: the
    representation `orthogonalize` gives (`"default"`), and where the
    flow graph has crossings, `draw_columns` (`"columns"`) if its
    `idle_share` is below `COLUMNS_IDLE_SHARE`, else the representation's
    `alternate` (`"alternate"`) if it has one."""
    drawn = (("default", compact(pg, rep)),)
    if not pg.crossings:
        return drawn
    if idle_share(qfg) < COLUMNS_IDLE_SHARE:
        return (*drawn, ("columns", draw_columns(qfg)))
    if rep.alternate is not None:
        return (*drawn, ("alternate", compact(pg, rep.alternate)))
    return drawn


def lay_out(netlist: Netlist, qfg: QubitFlowGraph) -> tuple[OrthogonalDrawing, MacroLayout]:
    """The layout generator: the flow graph's drawing, tightened to the room
    its displaced traps' host sides need, and that drawing's tiling.

    Each of the `candidates` is tightened, and the first with the least
    `_critical_path` is kept; only it is validated and tiled. A planar flow
    graph has one candidate, its bend-minimal drawing. One with crossings
    gets a second. Where under `COLUMNS_IDLE_SHARE` of its slots are idle,
    that is the layered drawing of `columns.draw_columns` (Sugiyama, Tagawa
    & Toda 1981), its channels routed by the constrained left-edge
    algorithm (Hashimoto & Stevens 1971) with doglegs (Deutsch 1976): a leg
    crosses one channel per stage, where the planar embedding's legs grow
    with depth. Elsewhere it is the outer-face alternate, since columns
    spend a slot and a channel crossing on every stage a qubit idles.
    Raises `LayoutError` if the kept drawing fails `validate_drawing`."""
    pg = planarize(qfg)
    drawn = [_tightened(netlist, qfg, d) for _, d in candidates(qfg, pg, orthogonalize(pg))]
    drawing, sides = drawn[0]
    if len(drawn) > 1:
        drawing, sides = min(drawn, key=lambda d: _critical_path(netlist, qfg, d[0]))
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


# A cell's bookings: the sorted, disjoint (start, end) intervals in which
# ions hold it. Intervals may touch: an ion may enter a cell the moment
# another has left it.
Stays = list[tuple[float, float]]


def _free_from(stays: Stays, t: float) -> tuple[float, float]:
    """The earliest time at or after `t` that falls in none of a cell's
    `stays`, and the start of the first stay after it (`math.inf` if none),
    which ends the free interval an ion entering then has."""
    k = bisect_right(stays, t, key=itemgetter(1))
    while k < len(stays) and stays[k][0] <= t:
        t = stays[k][1]
        k += 1
    return t, stays[k][0] if k < len(stays) else math.inf


def _hold(stays: Stays, start: float, end: float) -> None:
    """Book `start` to `end` in a cell's `stays`, joined with every stay it
    overlaps or touches: partner ions rest in their gate cell together."""
    k = j = bisect_left(stays, start, key=itemgetter(1))
    while j < len(stays) and stays[j][0] <= end:
        start, end = min(start, stays[j][0]), max(end, stays[j][1])
        j += 1
    stays[k:j] = [(start, end)]


def _book_leg(
    booked: dict[Point, Stays], cells: list[Point], costs: list[float], ready: float
) -> list[float]:
    """Book a leg on the cells it passes, the step into `cells[k]` costing
    `costs[k]`, and return when the ion starts each step.

    The ion holds a cell from the start of its step into it until it has
    fully entered the next one, so its stay includes any wait there for the
    next cell. It enters each cell at the earliest time, at or after
    `ready` and the end of its step before, at which that whole stay
    overlaps no booking. Where a stay would overrun the cell's next booking,
    the ion enters that cell after the booking instead, which may lengthen
    its stay in the cell before; the pass goes on from there. An entry only
    ever moves later, and only where no earlier one fits, so the pass ends
    with every entry at its earliest (safe-interval planning on a fixed
    path, Phillips & Likhachev 2011). The last cell, the gate where partner
    ions meet, is neither checked nor booked here."""
    last = len(cells) - 1
    enter = [0.0] * len(cells)
    free_until = [math.inf] * len(cells)  # the next booking of each cell
    k, t = 0, ready
    while k <= last:
        if k < last:
            t, free_until[k] = _free_from(booked.get(cells[k], []), t)
        if k and t + costs[k] > free_until[k - 1]:
            # the wait in the cell before would overrun its next booking
            k -= 1
            t = free_until[k]
            continue
        enter[k] = t
        t += costs[k]
        k += 1
    for k in range(last):
        insort(booked.setdefault(cells[k], []), (enter[k], enter[k + 1] + costs[k + 1]))
    return enter


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
    checked the schedule they come from), each leg booked whole on a
    reservation table of trap cells (Silver 2005) before the next.

    An ion holds a cell it passes from the start of its step into the cell
    until it has fully entered the next one, and a cell it rests in from its
    arrival until it has fully entered the first cell of its next leg.
    `_book_leg` gives each cell it passes the earliest entry at which the
    whole stay overlaps no booking. Booking each cell after every earlier
    booking is always possible, so by induction over the order no start or
    finish is later than under a rule that makes every ion wait for each
    one processed before it. Gates at one location start in processing
    order.

    A leg that passes through a cell where an ion rests, or a gate location
    whose gates are not all simulated yet, raises `LayoutError`: the rest's
    end is not yet known there, so no booking could be checked against it.
    So does a gap in the route plan."""
    m = model or LatencyModel()
    block_move = 3 * m.straight_move  # crossing one block in a straight line

    qubit_free: dict[int, float] = {}
    qubit_loc: dict[int, Point] = {}
    rest_since: dict[int, float] = {}
    booked: dict[Point, Stays] = {}
    gate_free: dict[Point, float] = {}
    last_use: dict[int, int] = {}

    timings: list[InstructionTiming] = []
    movements: list[Movement] = []
    movement_time: dict[int, float] = {}
    congestion = 0.0

    order = sorted(netlist.instructions, key=lambda i: (qfg.stage_of[i.id], i.id))
    # cells a leg may not pass yet: gate locations with gates still to come
    # and cells where an ion rests (placed ions rest from time 0)
    blocked = Counter(layout.gate_location(instr.id) for instr in order)
    blocked.update(placement.values())
    for instr in order:
        target_cell = layout.gate_location(instr.id)
        arrivals = []
        for qubit in instr.qubits:
            if qubit not in qubit_loc:
                if qubit not in placement:
                    raise LayoutError(f"qubit q{qubit} has no initial placement")
                qubit_loc[qubit] = placement[qubit]
                qubit_free[qubit] = rest_since[qubit] = 0.0
            t = qubit_free[qubit]
            if qubit_loc[qubit] != target_cell:
                # an initial leg (qubit placed off its first gate) is keyed from 0
                edge = (last_use.get(qubit, 0), instr.id, qubit)
                leg = routes.steps.get(edge)
                if leg is None:
                    raise LayoutError(f"missing route for qubit q{qubit} into {instr.id}")
                cells = [cell for cell, _ in leg]
                for cell in cells[:-1]:
                    if blocked[cell]:
                        raise LayoutError(
                            f"route for qubit q{qubit} into {instr.id} passes through {cell}, "
                            "where an ion rests or a gate is still to run"
                        )
                costs = [m.turn if turn else block_move for _, turn in leg]
                enter = _book_leg(booked, cells, costs, t)
                # the ion's rest where it was ends once it has fully
                # entered the first cell of its leg
                home = qubit_loc[qubit]
                _hold(booked.setdefault(home, []), rest_since[qubit], enter[0] + costs[0])
                blocked[home] -= 1
                blocked[target_cell] += 1
                delay = 0.0
                for entry, cost in zip(enter, costs):
                    delay += entry - t
                    t = entry + cost
                turns = sum(1 for _, turn in leg if turn)
                straights = 3 * (len(leg) - turns)
                movements.append(Movement(qubit, edge, straights, turns, delay))
                movement_time[qubit] = movement_time.get(qubit, 0.0) + (
                    straights * m.straight_move + turns * m.turn
                )
                congestion += delay
                qubit_loc[qubit] = target_cell
                rest_since[qubit] = t
            arrivals.append(t)
        start = max([*arrivals, gate_free.get(target_cell, 0.0)])
        finish = start + m.gate_cost(instr.kind)
        gate_free[target_cell] = finish
        blocked[target_cell] -= 1
        for qubit in instr.qubits:
            qubit_free[qubit] = finish
            last_use[qubit] = instr.id
        timings.append(InstructionTiming(instr.id, start, finish))

    total = max((t.finish for t in timings), default=0.0)
    return LatencyReport(total, tuple(timings), tuple(movements), movement_time, congestion)
