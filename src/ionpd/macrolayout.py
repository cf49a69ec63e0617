"""Macroblock grid layout: tiling a drawing, qubit placement and routing.

Every macroblock occupies a 3x3 footprint of trap cells and electrodes and
connects to neighbours through up to four ports. Gate locations exist only
on straight channel blocks, never at turns or junctions, so an instruction
whose drawing node is a corner or junction (`NodePorts.displaced`) gets its
gate shifted into a neighbouring block: through the first of its ports
whose neighbour is a free straight block (a straight channel, not a node
cell, and no gate there yet). The caller gives each node the order to try
its ports in (`latency.lay_out` ranks them by the drawing's critical path,
through `latency.host_sides`); a node it leaves out tries them in E, S, W,
N order.

A `GridMap` takes each drawing grid line to a block coordinate, one map per
axis, with grid line 0 at block 0. The gap between two neighbouring grid
lines is 1 block wide unless something must sit in it, so a leg crosses one
block per grid unit. `tile` widens a gap one step at a time (1, 2, 3) and
tiles again where a trap's cap would land on a route cell or another node's
cell, or where a corner or junction finds no free host on its ported sides;
`LayoutError` reports a node that stays without a host with every one of
those gaps at 3. `room_sides` says where a node wants the next thing on
its grid line 2 units away for its cap or its host; `compact.tighten`
keeps that room, so widening is a fallback.

While `tile` collects port demands, a cell's port set is a 4-bit mask (E=1,
S=2, W=4, N=8). Every gate-free cell of a tiled layout holds one of 15
shared `Macroblock` instances, one per port set; only gate blocks are built
per cell. Constant per-port-set tables give the port check its neighbour
offsets and `layout.json` its block members; `to_text` builds one glyph
table per layout for its cell width, and `to_svg` fills one nine-rectangle
template per port set.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, repeat
from operator import itemgetter, ne
from typing import NamedTuple

from .artifact import json_fragment
from .drawing import EdgeKey, OrthogonalDrawing, Point
from .qfg import QubitFlowGraph

# direction name -> grid delta (y grows downward)
DIRS: dict[str, Point] = {"E": (1, 0), "S": (0, 1), "W": (-1, 0), "N": (0, -1)}
OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}
_ORDER = ("E", "S", "W", "N")
# port mask bit of each direction, in _ORDER: E=1, S=2, W=4, N=8
_BIT = {d: 1 << k for k, d in enumerate(_ORDER)}
# every port set, indexed by its mask
_PORT_SETS: tuple[frozenset[str], ...] = tuple(
    frozenset(d for d in _ORDER if mask & _BIT[d]) for mask in range(16)
)
_HORIZONTAL, _VERTICAL = _BIT["E"] | _BIT["W"], _BIT["S"] | _BIT["N"]
_STRAIGHTS = (_PORT_SETS[_HORIZONTAL], _PORT_SETS[_VERTICAL])


class LayoutError(ValueError):
    """A drawing or layout that cannot be built: infeasible angle flow,
    broken mesh invariant, inconsistent port demands or unroutable endpoints."""


@dataclass(frozen=True)
class Macroblock:
    ports: frozenset[str]
    gate_of: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.gate_of and self.ports not in _STRAIGHTS:
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

# the gate-free block of each non-empty port mask, shared by every cell
_SHARED: dict[int, Macroblock] = {
    mask: Macroblock(ports) for mask, ports in enumerate(_PORT_SETS) if ports
}

# per port set: each port, by name, with the offset of the block it faces
# and the port that block must open towards it
_NEIGHBOURS: dict[frozenset[str], tuple[tuple[str, int, int, str], ...]] = {
    ports: tuple((port, *DIRS[port], OPPOSITE[port]) for port in sorted(ports))
    for ports in _PORT_SETS
}

# the block mask of a node cell whose demands let it host its own trap: no
# port, one port or a straight; a loose end is opened into a straight
_TRAP_MASK: dict[int, int] = {
    0: _HORIZONTAL, _BIT["E"]: _HORIZONTAL, _BIT["W"]: _HORIZONTAL, _HORIZONTAL: _HORIZONTAL,
    _BIT["S"]: _VERTICAL, _BIT["N"]: _VERTICAL, _VERTICAL: _VERTICAL,
}


# the sides a node cell that hosts its own trap caps, by its port mask
_CAPS: dict[int, tuple[str, ...]] = {
    mask: tuple(d for d in _ORDER if trap & ~mask & _BIT[d]) for mask, trap in _TRAP_MASK.items()
}


def _block_members(ports: frozenset[str], kind: str) -> str:
    """A block's `kind` and `ports` members as `render_json` writes them."""
    return json_fragment({"kind": kind, "ports": sorted(ports)})[1:-1]


# per port set, `layout.json` keys sort as gates, kind, ports, x, y: a
# gate-free block up to its x, and a gate block from after its gates up to its x
_JSON_FREE: dict[frozenset[str], str] = {
    ports: '{"gates":[],' + _block_members(ports, kind) + ',"x":'
    for ports, kind in _KIND_OF_PORTS.items()
}
_JSON_GATE: dict[frozenset[str], str] = {
    ports: "," + _block_members(ports, "GATE_" + _KIND_OF_PORTS[ports]) + ',"x":'
    for ports in _STRAIGHTS
}


def _glyph_table(width: int) -> dict[frozenset[str], tuple[str, str, str, str, str]]:
    """Per port set, the glyphs of a block whose cells are `width` wide: its
    top row, gate-free middle row, bottom row, and west and east middle cells."""
    wall, channel = "#" * width, "." * width
    table = {}
    for ports in _PORT_SETS:
        north, east, south, west = (channel if d in ports else wall for d in "NESW")
        table[ports] = (
            wall + north + wall,
            west + channel + east,
            wall + south + wall,
            west,
            east,
        )
    return table


@dataclass(frozen=True)
class GridMap:
    """Block coordinate of each drawing grid line: `xs` for x, `ys` for y."""

    xs: dict[int, int] = field(default_factory=dict)
    ys: dict[int, int] = field(default_factory=dict)

    def cells(self, points: Iterable[Point]) -> list[Point]:
        """The block cell of each drawing point."""
        xs, ys = self.xs, self.ys
        try:
            return [(xs[x], ys[y]) for x, y in points]
        except KeyError:
            raise LayoutError(f"points {points} leave the layout's grid") from None


def _axis(lines: set[int], width: dict[int, int]) -> dict[int, int]:
    """Block coordinate of every grid line from the lowest of `lines` (or 0)
    to the highest: line 0 sits at block 0, and the gap from line g to g + 1
    is `width[g]` blocks wide, 1 if g has no entry."""
    if not lines:
        return {}
    start = min(0, min(lines))
    c = -sum(width.get(g, 1) for g in range(start, 0))
    coord = {}
    for g in range(start, max(lines) + 1):
        coord[g] = c
        c += width.get(g, 1)
    return coord


@dataclass(frozen=True)
class MacroLayout:
    blocks: dict[Point, Macroblock]
    gate_location_of: dict[int, Point]
    node_cell: dict[int, Point]
    # the map `tile` drew the layout on; empty for a layout built by hand
    grid: GridMap = field(default_factory=GridMap)

    def gate_location(self, instr_id: int) -> Point:
        """The block of instruction `instr_id`'s gate; `LayoutError` if the
        layout has none."""
        cell = self.gate_location_of.get(instr_id)
        if cell is None:
            raise LayoutError(f"instruction {instr_id} has no gate location")
        return cell

    def check_ports(self) -> None:
        """Every open port must face a matching open port; the error names
        the first unmatched port by cell, then port name."""
        blocks = self.blocks
        unmatched = []
        for (x, y), block in blocks.items():
            for port, dx, dy, facing in _NEIGHBOURS[block.ports]:
                neighbour = blocks.get((x + dx, y + dy))
                if neighbour is None or facing not in neighbour.ports:
                    unmatched.append(((x, y), port))
        if unmatched:
            cell, port = min(unmatched)
            raise LayoutError(f"port {port} of block at {cell} faces no matching port")

    def to_json(self) -> str:
        """Blocks by cell, then gate locations by instruction, as
        `render_json` writes them; each block's constant members come from
        the per-port-set fragments."""
        blocks = self.blocks
        parts = []
        for cell in sorted(blocks):
            block = blocks[cell]
            if block.gate_of:
                head = '{"gates":' + json_fragment(list(block.gate_of)) + _JSON_GATE[block.ports]
            else:
                head = _JSON_FREE.get(block.ports)
                if head is None:
                    raise LayoutError("macroblock with no ports")
            x, y = cell
            parts.append(f'{head}{x},"y":{y}}}')
        locations = json_fragment([
            {"instruction": i, "x": x, "y": y}
            for i, (x, y) in sorted(self.gate_location_of.items())
        ])
        return '{"blocks":[' + ",".join(parts) + '],"gate_locations":' + locations + "}\n"

    def to_text(self) -> str:
        """Cell-level glyph grid: '#' electrode, '.' channel, the gate id
        at a gate trap, then one line per gate location.

        Each block is 3x3 cells. Every cell is as wide as the longest gate
        id and at least two characters, so gate ids of any length keep the
        columns aligned. Blank cells pad between blocks and nothing pads a
        row's end, so the text never spans the bounding box.
        """
        blocks = self.blocks
        if not blocks:
            return "(empty layout)\n"
        gate_ids = [str(block.gate_of[0]) for block in blocks.values() if block.gate_of]
        width = max([2, *map(len, gate_ids)])
        glyphs = _glyph_table(width)
        pad = " " * (3 * width)
        x0 = min(x for x, _ in blocks)
        rows: dict[int, list[tuple[int, Macroblock]]] = {}
        for (x, y), block in blocks.items():
            rows.setdefault(y, []).append((x, block))
        lines = []
        for y in range(min(rows), max(rows) + 1):
            top, middle, bottom = [], [], []
            next_x = x0
            for x, block in sorted(rows.get(y, ()), key=itemgetter(0)):
                gap = pad * (x - next_x)
                next_x = x + 1
                north, through, south, west, east = glyphs[block.ports]
                top.append(gap + north)
                if block.gate_of:
                    middle.append(f"{gap}{west}{block.gate_of[0]:{width}d}{east}")
                else:
                    middle.append(gap + through)
                bottom.append(gap + south)
            for row in (top, middle, bottom):
                row.append("\n")
                lines.append("".join(row))
        for i, (x, y) in sorted(self.gate_location_of.items()):
            lines.append(f"gate {i} at block ({x},{y})\n")
        return "".join(lines)

    def to_svg(self, cell: int = 10) -> str:
        """Every block as nine cell rectangles (channel cells white, the gate
        trap black, electrodes grey) and a gate block's id, blocks by cell;
        each block's rectangles come from a per-port-set template."""
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
        templates = _svg_templates(cell)
        span = 3 * cell
        for (bx, by), block in sorted(self.blocks.items()):
            x, y = (bx - x0) * span, (by - y0) * span
            offsets = (x, x + cell, x + 2 * cell, y, y + cell, y + 2 * cell)
            parts.append(templates[block.ports, bool(block.gate_of)].format(*offsets))
            if block.gate_of:
                parts.append(
                    f'<text x="{x + cell + cell // 2}" y="{y + 2 * cell - 2}" '
                    f'font-size="{cell - 2}" text-anchor="middle" fill="white">{block.gate_of[0]}</text>'
                )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _svg_templates(cell: int) -> dict[tuple[frozenset[str], bool], str]:
    """Per port set and gate flag, the nine `<rect>` lines of a block whose
    cells are `cell` wide, with `str.format` fields 0-2 for its column and
    3-5 for its row offsets."""
    table = {}
    for ports in _PORT_SETS:
        open_cells = {(1, 1), *((1 + DIRS[p][0], 1 + DIRS[p][1]) for p in ports)}
        for gate in (False, True):
            rects = []
            for dy in range(3):
                for dx in range(3):
                    if (dx, dy) not in open_cells:
                        colour = "#aaaaaa"
                    else:
                        colour = "black" if gate and (dx, dy) == (1, 1) else "white"
                    rects.append(
                        f'<rect x="{{{dx}}}" y="{{{3 + dy}}}" width="{cell}" height="{cell}" '
                        f'fill="{colour}" stroke="#666" stroke-width="0.5"/>'
                    )
            table[ports, gate] = "\n".join(rects)
    return table


_DIRECTION_OF: dict[Point, str] = {delta: name for name, delta in DIRS.items()}


def _direction(a: Point, b: Point) -> str:
    signs = ((b[0] > a[0]) - (b[0] < a[0]), (b[1] > a[1]) - (b[1] < a[1]))
    name = _DIRECTION_OF.get(signs)
    if name is None:
        raise LayoutError(f"points {a} and {b} are not axis-aligned")
    return name


def _runs(cells: list[Point]) -> Iterator[tuple[Point, str, list[Point]]]:
    """Each segment of a drawn polyline mapped to block cells, zero-length
    ones left out: its first cell, its direction and the cells it enters."""
    for a, b in zip(cells, cells[1:]):
        if a == b:
            continue  # a zero-length segment adds no cell
        d = _direction(a, b)
        (ax, ay), (bx, by) = a, b
        if ay == by:
            step = DIRS[d][0]
            yield a, d, list(zip(range(ax + step, bx + step, step), repeat(ay)))
        else:
            step = DIRS[d][1]
            yield a, d, list(zip(repeat(ax), range(ay + step, by + step, step)))


class _Crowded(Exception):
    """Raised with the gaps a pass needs wider, as a set of (axis, gap)
    pairs, and the first corner or junction, by instruction id, that found
    no free host (None if every one found one)."""


# per port direction: the axis (0 for x, 1 for y) of the gap a port opens
# into and that gap's offset from the node's grid line
_GAP_OF_PORT = {"E": (0, 0), "W": (0, -1), "S": (1, 0), "N": (1, -1)}


def _gap(position: Point, d: str) -> tuple[int, int]:
    """(axis, gap) of the gap that port `d` of a node drawn at `position`
    opens into; gap g lies between grid lines g and g + 1."""
    axis, offset = _GAP_OF_PORT[d]
    return axis, position[axis] + offset


class NodePorts(NamedTuple):
    """A node's route ends, each as (the side it leaves the node by, its edge
    key, the length of its first segment), and the mask of those sides."""

    mask: int
    ends: list[tuple[str, EdgeKey, int]]

    @property
    def displaced(self) -> bool:
        """A corner or junction, whose trap `tile` shifts to a neighbouring
        block: more than two ports, or two that are not opposite."""
        return self.mask not in _TRAP_MASK


def node_ports(drawing: OrthogonalDrawing) -> dict[int, NodePorts]:
    """The ports of every node that a route of `drawing` ends at."""
    ends: dict[int, list[tuple[str, EdgeKey, int]]] = {}
    for key, pts in drawing.routes.items():
        i, j, _ = key
        for node, a, b in ((i, pts[0], pts[1]), (j, pts[-1], pts[-2])):
            reach = abs(b[0] - a[0]) + abs(b[1] - a[1])
            ends.setdefault(node, []).append((_direction(a, b), key, reach))
    # each side's bit counts once, so the sum is the mask
    return {node: NodePorts(sum({_BIT[d] for d, _, _ in e}), e) for node, e in ends.items()}


def room_sides(
    drawing: OrthogonalDrawing, sides: Mapping[int, Sequence[str]]
) -> dict[int, tuple[str, ...]]:
    """Per node of a drawing that wants room, the sides on which `tile`
    wants the next thing on the node's grid line at least two grid units
    away, so that a gap one block wide holds what `tile` puts there:
    - a node that holds its own trap: each end its trap caps (E and W for
      a node with no port, the side opposite a node's one port);
    - a corner or junction: the first of its ports, in its `sides` order
      (E, S, W, N if it has none), whose first route segment is 2 or more
      long with no crossing one unit out, so the block there can host its
      trap; the first port in that order if none is.
    """
    crossings = set(drawing.crossings)
    scan = node_ports(drawing)
    room = {}
    for node, (x, y) in drawing.node_pos.items():
        ports = scan.get(node) or NodePorts(0, [])
        if ports.displaced:
            free = {d for d, _, reach in ports.ends if reach >= 2}
            free -= {d for d, (dx, dy) in DIRS.items() if (x + dx, y + dy) in crossings}
            order = [d for d in sides.get(node, _ORDER) if ports.mask & _BIT[d]]
            room[node] = (next((d for d in order if d in free), order[0]),)
        elif _CAPS[ports.mask]:
            room[node] = _CAPS[ports.mask]
    return room


def tile(drawing: OrthogonalDrawing, sides: Mapping[int, Sequence[str]]) -> MacroLayout:
    """Convert a drawing into a port-consistent macroblock grid; `sides`
    gives a corner or junction the order to try its ports in as the host
    of its trap, E, S, W, N for a node it leaves out.

    Every gap starts 1 block wide. A pass that finds something that must
    sit in a gap widens that gap by one block, each gap at most once per
    pass, and tiles again:
    (a) a trap's cap, a port the trap opens though no route asked for it,
        whose neighbour cell is a route cell or another node's cell;
    (b) a corner or junction without a free straight host: every gap on
        its ported sides, up to 3.
    Once a gap is 2 wide, (a) cannot fire there: the cap cell lies off every
    grid line of that axis, where a route cell could only come from a leg
    along the trap's own line through the trap, which would open that port
    itself, so only a facing cap can meet it. At 3 the port's neighbour is
    a straight block that no other node reaches, so (b) finds it free. Each
    gap thus widens at most twice, and `LayoutError` reports a node that
    finds no host with every gap on its ported sides at 3.
    """
    points = [*drawing.node_pos.values(), *chain.from_iterable(drawing.routes.values())]
    lines = ({x for x, _ in points}, {y for _, y in points})
    widths: tuple[dict[int, int], dict[int, int]] = ({}, {})
    while True:
        grid = GridMap(_axis(lines[0], widths[0]), _axis(lines[1], widths[1]))
        try:
            return _tile_on(drawing, grid, sides)
        except _Crowded as crowded:
            gaps, stuck = crowded.args
            grown = False
            for axis, gap in gaps:
                width = widths[axis].get(gap, 1)
                if width < 3:
                    widths[axis][gap] = width + 1
                    grown = True
            if not grown:
                cell = grid.cells((drawing.node_pos[stuck],))[0]
                raise LayoutError(f"no free gate block next to junction at {cell}") from None


def _tile_on(
    drawing: OrthogonalDrawing, grid: GridMap, sides: Mapping[int, Sequence[str]]
) -> MacroLayout:
    """`tile` at the gap widths of `grid`; raises `_Crowded` with every gap
    that a cap or a corner or junction without a free host needs wider."""
    demand: dict[Point, int] = {}  # cell -> port mask
    get = demand.get
    for _, points in sorted(drawing.routes.items()):
        for start, d, cells in _runs(grid.cells(points)):
            out, back = _BIT[d], _BIT[OPPOSITE[d]]
            demand[start] = get(start, 0) | out
            for cell in cells[:-1]:
                demand[cell] = get(cell, 0) | out | back
            end = cells[-1]
            demand[end] = get(end, 0) | back
    routed = set(demand)

    node_cell = dict(zip(drawing.node_pos, grid.cells(drawing.node_pos.values())))
    node_cells = set(node_cell.values())
    gate_cells: dict[int, Point] = {}
    gate_marks: dict[Point, list[int]] = {}
    crowded: set[tuple[int, int]] = set()
    stuck = None

    for instr in sorted(node_cell):
        cell = node_cell[instr]
        mask = demand.get(cell, 0)
        trap = _TRAP_MASK.get(mask)
        if trap is not None:
            # the node block itself can host the trap; cap its open ends.
            # Two caps that meet off every route and node join the traps by
            # a straight block
            demand[cell] = trap
            gate_cells[instr] = cell
            gate_marks.setdefault(cell, []).append(instr)
            for d in _CAPS[mask]:
                dx, dy = DIRS[d]
                neighbour = (cell[0] + dx, cell[1] + dy)
                if neighbour in routed or neighbour in node_cells:
                    crowded.add(_gap(drawing.node_pos[instr], d))
                else:
                    demand[neighbour] = get(neighbour, 0) | _BIT[OPPOSITE[d]]
            continue
        # corner or junction: shift the gate through the first port, in
        # its order of sides, whose neighbour is a free straight block
        for d in sides.get(instr, _ORDER):
            if mask & _BIT[d]:
                dx, dy = DIRS[d]
                host = (cell[0] + dx, cell[1] + dy)
                if (
                    get(host) in (_HORIZONTAL, _VERTICAL)
                    and host not in gate_marks
                    and host not in node_cells
                ):
                    gate_cells[instr] = host
                    gate_marks[host] = [instr]
                    break
        else:
            if stuck is None:
                stuck = instr
            position = drawing.node_pos[instr]
            crowded.update(_gap(position, d) for d in _ORDER if mask & _BIT[d])
    if crowded:
        raise _Crowded(crowded, stuck)

    blocks = {
        cell: Macroblock(_PORT_SETS[mask], tuple(gate_marks[cell]))
        if cell in gate_marks
        else _SHARED[mask]
        for cell, mask in demand.items()
    }
    layout = MacroLayout(blocks, gate_cells, node_cell, grid)
    layout.check_ports()
    return layout


class RouteStep(NamedTuple):
    cell: Point
    turn: bool


# builds a RouteStep from a (cell, turn) pair without the Python-level
# __new__ that NamedTuple generates
_route_step = partial(tuple.__new__, RouteStep)


@dataclass(frozen=True)
class RoutePlan:
    # keyed by flow-graph edge (i, j, q); (0, j, q) is the initial leg of q
    steps: dict[EdgeKey, tuple[RouteStep, ...]]


def route(
    qfg: QubitFlowGraph,
    drawing: OrthogonalDrawing,
    layout: MacroLayout,
) -> RoutePlan:
    """Per-edge cell paths between gate locations, following the drawing
    through the layout's grid map."""
    grid = layout.grid
    steps: dict[EdgeKey, tuple[RouteStep, ...]] = {}
    for key in qfg.edges:
        i, j, _ = key
        points = drawing.routes.get(key)
        if points is None:
            raise LayoutError(f"edge {key} has no drawn route")
        mapped = grid.cells(points)
        # dirs[k] leads from cells[k] to cells[k + 1]
        cells, dirs = mapped[:1], []
        for _, d, run in _runs(mapped):
            cells += run
            dirs += repeat(d, len(run))
        start = layout.gate_location(i)
        end = layout.gate_location(j)
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
        # one step per cell after the first; it turns where the direction changes
        turns = list(map(ne, dirs, dirs[1:]))
        turns.append(False)
        steps[key] = tuple(map(_route_step, zip(cells[1:], turns)))

    return RoutePlan(steps)


def place_qubits(qfg: QubitFlowGraph, layout: MacroLayout) -> dict[int, Point]:
    """Initial placement: each qubit starts at its first-use gate location.
    Qubits the netlist never touches play no part in routing or timing and
    get no entry. `LayoutError` if a first use has no gate location."""
    return {q: layout.gate_location(i) for q, i in sorted(qfg.first_use.items())}
