"""Macroblock grid layout: tiling a drawing, qubit placement and routing.

Every macroblock occupies a 3x3 footprint of trap cells and electrodes and
connects to neighbours through up to four ports. Gate locations exist only
on straight channel blocks, never at turns or junctions, so an instruction
whose drawing node is a corner or junction gets its gate shifted into the
first channel block of one of its incident edges. One drawing grid unit maps
to three macroblocks, which leaves that channel block free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter

from .artifact import render_json
from .drawing import EdgeKey, OrthogonalDrawing, Point
from .qfg import QubitFlowGraph

SCALE = 3

# direction name -> grid delta (y grows downward)
DIRS: dict[str, Point] = {"E": (1, 0), "S": (0, 1), "W": (-1, 0), "N": (0, -1)}
OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}
_ORDER = ("E", "S", "W", "N")


class LayoutError(ValueError):
    """A drawing or layout that cannot be built: infeasible angle flow,
    broken mesh invariant, inconsistent port demands or unroutable endpoints."""


@dataclass(frozen=True)
class Macroblock:
    ports: frozenset[str]
    gate_of: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.gate_of and self.ports not in (
            frozenset({"E", "W"}),
            frozenset({"N", "S"}),
        ):
            raise LayoutError(
                f"gate location requires a straight block, have ports {sorted(self.ports)}"
            )

    @property
    def kind(self) -> str:
        kind = _KIND_OF_PORTS.get(self.ports)
        if kind is None:
            raise LayoutError("macroblock with no ports")
        # __post_init__ admits gates on straight blocks only
        return "GATE_" + kind if self.gate_of else kind


def _kind_name(ports: tuple[str, ...]) -> str:
    """Kind of a gate-free block whose ports, in _ORDER, are `ports`."""
    if ports == ("E", "W"):
        return "STRAIGHT_H"
    if ports == ("S", "N"):
        return "STRAIGHT_V"
    if len(ports) == 4:
        return "CROSS"
    return {3: "TEE_", 2: "TURN_", 1: "DEAD_END_"}[len(ports)] + "".join(ports)


_KIND_OF_PORTS: dict[frozenset[str], str] = {
    frozenset(ports): _kind_name(ports)
    for n in range(1, 5)
    for ports in combinations(_ORDER, n)
}


@dataclass(frozen=True)
class MacroLayout:
    blocks: dict[Point, Macroblock]
    gate_location_of: dict[int, Point]
    node_cell: dict[int, Point]

    def check_ports(self) -> None:
        """Every open port must face a matching open port; the error names
        the first unmatched port by cell, then port name."""
        unmatched = []
        for (x, y), block in self.blocks.items():
            for port in block.ports:
                dx, dy = DIRS[port]
                neighbour = self.blocks.get((x + dx, y + dy))
                if neighbour is None or OPPOSITE[port] not in neighbour.ports:
                    unmatched.append(((x, y), port))
        if unmatched:
            cell, port = min(unmatched)
            raise LayoutError(f"port {port} of block at {cell} faces no matching port")

    def to_json(self) -> str:
        payload = {
            "blocks": [
                {
                    "x": x,
                    "y": y,
                    "kind": block.kind,
                    "ports": sorted(block.ports),
                    "gates": list(block.gate_of),
                }
                for (x, y), block in sorted(self.blocks.items())
            ],
            "gate_locations": [
                {"instruction": i, "x": x, "y": y}
                for i, (x, y) in sorted(self.gate_location_of.items())
            ],
        }
        return render_json(payload)

    def to_text(self) -> str:
        """Cell-level glyph grid: '#' electrode, '.' channel, digit gate trap.

        Each block is 3x3 cells of two characters; blank cells pad between
        blocks and nothing pads a row's end. Rows are rendered one block row
        at a time, so the bounding box itself is never allocated.
        """
        if not self.blocks:
            return "(empty layout)\n"
        x0 = min(x for x, _ in self.blocks)
        rows: dict[int, list[tuple[int, Macroblock]]] = {}
        for (x, y), block in self.blocks.items():
            rows.setdefault(y, []).append((x, block))
        lines = []
        for y in range(min(rows), max(rows) + 1):
            top, middle, bottom = [], [], []
            next_x = x0
            for x, block in sorted(rows.get(y, ()), key=itemgetter(0)):
                pad = "      " * (x - next_x)
                next_x = x + 1
                ports = block.ports
                centre = f"{block.gate_of[0]:2d}" if block.gate_of else ".."
                top.append(pad + ("##..##" if "N" in ports else "######"))
                middle.append(
                    pad
                    + (".." if "W" in ports else "##")
                    + centre
                    + (".." if "E" in ports else "##")
                )
                bottom.append(pad + ("##..##" if "S" in ports else "######"))
            lines += ("".join(top), "".join(middle), "".join(bottom))
        legend = [
            f"gate {i} at block ({x},{y})"
            for i, (x, y) in sorted(self.gate_location_of.items())
        ]
        return "\n".join(lines + legend) + "\n"

    def to_svg(self, cell: int = 10) -> str:
        if not self.blocks:
            return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>\n'
        xs = [x for x, _ in self.blocks]
        ys = [y for _, y in self.blocks]
        x0, y0 = min(xs), min(ys)
        width = (max(xs) - x0 + 1) * 3 * cell
        height = (max(ys) - y0 + 1) * 3 * cell
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        ]
        for (bx, by), block in sorted(self.blocks.items()):
            cx, cy = (bx - x0) * 3, (by - y0) * 3
            cells = {(1, 1)}
            cells.update((1 + DIRS[p][0], 1 + DIRS[p][1]) for p in block.ports)
            for dy in range(3):
                for dx in range(3):
                    if (dx, dy) in cells:
                        colour = "black" if block.gate_of and (dx, dy) == (1, 1) else "white"
                    else:
                        colour = "#aaaaaa"
                    parts.append(
                        f'<rect x="{(cx + dx) * cell}" y="{(cy + dy) * cell}" '
                        f'width="{cell}" height="{cell}" fill="{colour}" stroke="#666" stroke-width="0.5"/>'
                    )
            if block.gate_of:
                parts.append(
                    f'<text x="{(cx + 1) * cell + cell // 2}" y="{(cy + 1) * cell + cell - 2}" '
                    f'font-size="{cell - 2}" text-anchor="middle" fill="white">{block.gate_of[0]}</text>'
                )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


_DIRECTION_OF: dict[Point, str] = {delta: name for name, delta in DIRS.items()}


def _direction(a: Point, b: Point) -> str:
    signs = ((b[0] > a[0]) - (b[0] < a[0]), (b[1] > a[1]) - (b[1] < a[1]))
    name = _DIRECTION_OF.get(signs)
    if name is None:
        raise LayoutError(f"points {a} and {b} are not axis-aligned")
    return name


def _polyline(points: tuple[Point, ...]) -> tuple[list[Point], list[str]]:
    """Expand a scaled polyline into its full cell sequence and the
    direction from each cell to the next, one direction per segment."""
    cells, dirs = [points[0]], []
    for a, b in zip(points, points[1:]):
        if a == b:
            continue  # a zero-length segment adds no cell
        d = _direction(a, b)
        dx, dy = DIRS[d]
        x, y = a
        length = abs(b[0] - x) + abs(b[1] - y)
        cells.extend((x + k * dx, y + k * dy) for k in range(1, length + 1))
        dirs.extend([d] * length)
    return cells, dirs


def tile(drawing: OrthogonalDrawing) -> MacroLayout:
    """Convert a drawing into a port-consistent macroblock grid."""
    demands: dict[Point, set[str]] = {}
    for key, pts in sorted(drawing.routes.items()):
        cells, dirs = _polyline(tuple((x * SCALE, y * SCALE) for x, y in pts))
        for a, b, d in zip(cells, cells[1:], dirs):
            demands.setdefault(a, set()).add(d)
            demands.setdefault(b, set()).add(OPPOSITE[d])

    node_cell = {i: (x * SCALE, y * SCALE) for i, (x, y) in drawing.node_pos.items()}
    blocks: dict[Point, set[str]] = {cell: set(ports) for cell, ports in demands.items()}
    gate_cells: dict[int, Point] = {}
    gate_marks: dict[Point, list[int]] = {}

    for instr in sorted(node_cell):
        cell = node_cell[instr]
        ports = blocks.get(cell, set())
        straight = ports in ({"E", "W"}, {"N", "S"})
        if len(ports) <= 1 or straight:
            # the node block itself can host the trap; cap any open ends
            if not ports:
                ports = {"E", "W"}
            elif len(ports) == 1:
                ports = ports | {OPPOSITE[next(iter(ports))]}
            blocks[cell] = ports
            gate_cells[instr] = cell
            gate_marks.setdefault(cell, []).append(instr)
            for port in sorted(ports):
                dx, dy = DIRS[port]
                neighbour = (cell[0] + dx, cell[1] + dy)
                if neighbour not in blocks:
                    blocks[neighbour] = {OPPOSITE[port]}
        else:
            # corner or junction: shift the gate into an owned channel block
            host_dir = next(d for d in _ORDER if d in ports)
            dx, dy = DIRS[host_dir]
            host = (cell[0] + dx, cell[1] + dy)
            if host in gate_marks or host in node_cell.values():
                raise LayoutError(f"no free gate block next to junction at {cell}")
            gate_cells[instr] = host
            gate_marks.setdefault(host, []).append(instr)

    built = {
        cell: Macroblock(frozenset(ports), tuple(gate_marks.get(cell, ())))
        for cell, ports in blocks.items()
    }

    layout = MacroLayout(built, gate_cells, node_cell)
    layout.check_ports()
    return layout


@dataclass(frozen=True)
class RouteStep:
    cell: Point
    turn: bool


@dataclass(frozen=True)
class RoutePlan:
    steps: dict[tuple[int, EdgeKey], tuple[RouteStep, ...]]  # keyed (qubit, edge)

    def straights_and_turns(self, qubit: int, edge: EdgeKey) -> tuple[int, int]:
        """Straight-move units (three per block) and turn count of one leg."""
        steps = self.steps[(qubit, edge)]
        turns = sum(1 for s in steps if s.turn)
        return 3 * (len(steps) - turns), turns


def _tag_turns(path: list[Point], dirs: list[str]) -> tuple[RouteStep, ...]:
    """One step per cell after the first; `dirs[k]` leads from path[k] to
    path[k + 1], and a step turns where it changes."""
    turns = [d_in != d_out for d_in, d_out in zip(dirs, dirs[1:])] + [False]
    return tuple(map(RouteStep, path[1:], turns))


def route(
    qfg: QubitFlowGraph,
    drawing: OrthogonalDrawing,
    layout: MacroLayout,
) -> RoutePlan:
    """Per-edge cell paths between gate locations, following the drawing."""
    steps: dict[tuple[int, EdgeKey], tuple[RouteStep, ...]] = {}
    for key in qfg.edges:
        i, j, qubit = key
        if key not in drawing.routes:
            raise LayoutError(f"edge {key} has no drawn route")
        cells, dirs = _polyline(tuple((x * SCALE, y * SCALE) for x, y in drawing.routes[key]))
        start = layout.gate_location_of[i]
        end = layout.gate_location_of[j]
        # a displaced gate sits either on this route's first/last channel
        # block or one hop off it along another edge of the same node
        if cells[0] != start:
            if len(cells) > 1 and cells[1] == start:
                cells, dirs = cells[1:], dirs[1:]
            elif abs(start[0] - cells[0][0]) + abs(start[1] - cells[0][1]) == 1:
                cells, dirs = [start] + cells, [_direction(start, cells[0])] + dirs
            else:
                raise LayoutError(f"gate of {i} disconnected from route {key}")
        if cells[-1] != end:
            if len(cells) > 1 and cells[-2] == end:
                cells, dirs = cells[:-1], dirs[:-1]
            elif abs(end[0] - cells[-1][0]) + abs(end[1] - cells[-1][1]) == 1:
                cells, dirs = cells + [end], dirs + [_direction(cells[-1], end)]
            else:
                raise LayoutError(f"gate of {j} disconnected from route {key}")
        steps[(qubit, key)] = _tag_turns(cells, dirs)

    return RoutePlan(steps)


def place_qubits(qfg: QubitFlowGraph, layout: MacroLayout) -> dict[int, Point]:
    """Initial placement: each qubit starts at its first-use gate location.
    Qubits the netlist never touches play no part in routing or timing and
    get no entry."""
    return {q: layout.gate_location_of[i] for q, i in sorted(qfg.first_use.items())}
