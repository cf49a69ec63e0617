"""Layered drawing of a flow graph: stage columns, one-qubit gates on their legs.

Every flow-graph edge runs from an earlier stage to a later one, so the
graph is already layered, and a layered drawing (Sugiyama, Tagawa & Toda,
IEEE Trans. SMC 1981) puts each stage in a column of its own. A qubit's leg
then crosses one channel per column it spans, whatever the depth, where one
planar embedding gives legs that grow with it. `latency.lay_out` draws this
as a candidate for dense flow graphs: those with crossings and few idle
slots (`idle_share`, taken as if every instruction had a column).

- **Lanes.** Every run of one-qubit gates on a qubit rides its qubit's leg
  instead of taking slots: a run that leads (from the qubit's first use to
  its first column node), one between two column nodes, and one that trails
  (after its last column node). A leg thus runs from a column node or none,
  through its run, to a column node or none. A run with a target sits in
  order on the target's entry row one unit apart, just left of the target's
  column, so each channel widens on its right by its longest such run, and
  column 0 shifts right by the longest run that leads into it. A trailing
  run sits on its source's exit row just right of the source's column, and
  the channel's tracks start right of its longest one. Each lane gate is a
  straight W-E trap, and the leg's route splits at each into the flow
  graph's edges. A qubit that sees only one-qubit gates keeps its last
  gate as a column node.
- **Slots.** Only the stages of column nodes get a column, so a stage of
  lane gates alone gets none. A column holds its stage's column nodes and
  one pass-through slot (a dummy) for every leg that spans it. Dummies are
  route points, never nodes.
- **Order.** Each column starts in instruction-id order, a dummy ranked by
  its leg's ends; then `SWEEPS` barycenter sweeps run down the columns and
  back; a run's open end pulls on no slot. Qubit labels rank nothing, so a
  relabelled circuit draws the same: parallel legs from one gate to the
  next, and runs that lead into or trail one gate, go by their runs' ids,
  and legs without runs are interchangeable and keep their edge order.
- **Ports.** A first in-edge enters from W and a second from N, the one
  whose source sits higher; a first out-edge leaves E and a second leaves
  S, the one whose target sits lower (a third, on a gate with one edge on
  the other side, takes the side left over). A leading run's port sorts
  after the real in-edges, so it takes W, and a trailing run's before the
  real out-edges, so it takes E. A slot stacks the rows its ports need,
  and one free row goes between slots.
- **Channels.** Between two columns a leg leaves on its exit row and
  arrives on its entry row; where the two differ it takes a vertical
  track. Leg A must lie left of leg B where A's exit row is B's entry row.
  Those constraints form paths and cycles, and a dogleg through a free row
  breaks each cycle (Deutsch, DAC 1976). Tracks come from the constrained
  left-edge algorithm (Hashimoto & Stevens, DAC 1971): pieces share a track
  where their row spans are disjoint. Wherever a vertical piece meets
  another leg's horizontal one, both run straight through, and the point
  is registered as a crossing.
"""

from __future__ import annotations

from collections import Counter
from itertools import count, groupby, pairwise
from math import inf

from .drawing import EdgeKey, OrthogonalDrawing, Point
from .macrolayout import LayoutError
from .qfg import QubitFlowGraph

# barycenter sweeps, each down the columns and back
SWEEPS = 4

# port sides by number of in-edges (highest source first) and of out-edges
# (highest target first)
_IN_SIDES = {1: ("W",), 2: ("N", "W"), 3: ("N", "W", "S")}
_OUT_SIDES = {1: ("E",), 2: ("E", "S"), 3: ("N", "E", "S")}
# the row a side's leg takes, relative to its node's row
_SIDE_ROW = {"W": 0, "E": 0, "N": -1, "S": 1}

# (source, run of one-qubit gates, target, qubit); no source for a run that
# leads, no target for one that trails
Leg = tuple[int | None, tuple[int, ...], int | None, int]


def _column_of(stage_of: dict[int, int]) -> dict[int, int]:
    """Each instruction's column: the rank of its stage among the stages
    that hold an instruction of `stage_of`."""
    rank = {s: c for c, s in enumerate(sorted(set(stage_of.values())))}
    return {i: rank[s] for i, s in stage_of.items()}


def idle_share(qfg: QubitFlowGraph) -> float:
    """Dummy slots over all slots of the flow graph's column drawing, were
    every instruction a column node: the share of slots where a qubit waits
    between two gates."""
    col = _column_of(qfg.stage_of)
    dummies = sum(col[j] - col[i] - 1 for i, j, _ in qfg.edges)
    slots = dummies + len(col)
    return dummies / slots if slots else 0.0


def _legs(qfg: QubitFlowGraph) -> list[Leg]:
    """The legs of the drawing, each as (source, its run of one-qubit gates
    in order, target, qubit), by source, target and run. Source and target
    are column nodes, or None for a run that leads into a qubit's first
    column node or trails its last one. Every one-qubit gate is in a run but
    the last gate of a qubit that sees no other kind."""
    ins = Counter(j for _, j, _ in qfg.edges)
    firsts = Counter(qfg.first_use.values())
    after = {(i, q): j for i, j, q in qfg.edges}
    legs: list[Leg] = []
    for q, first in qfg.first_use.items():
        line = [first]
        while (line[-1], q) in after:
            line.append(after[line[-1], q])
        # a gate acts on its in-edges' qubits and on those it uses first
        cuts = [k for k, i in enumerate(line) if ins[i] + firsts[i] > 1] or [len(line) - 1]
        for a, b in pairwise([-1, *cuts, len(line)]):
            source = line[a] if a >= 0 else None
            target = line[b] if b < len(line) else None
            run = tuple(line[a + 1 : b])
            if run or None not in (source, target):
                legs.append((source, run, target, q))

    # parallel legs without a run are interchangeable and go by qubit, as
    # their edges do; the others go by their runs' ids
    def order(leg: Leg) -> tuple[int, int, tuple[int, ...], int]:
        source, run, target, q = leg
        return (-1 if source is None else source, -1 if target is None else target, run, q)

    legs.sort(key=order)
    return legs


def _left_edge(pieces: list[tuple[int, int]], before: list[list[int]]) -> list[int]:
    """Constrained left-edge track assignment: the track of every piece
    (lo, hi) such that pieces on one track have disjoint closed spans and
    every piece in `before[p]` lies on a track left of p's."""
    track = [-1] * len(pieces)
    waiting = sorted(range(len(pieces)), key=lambda p: (*pieces[p], p))
    t = 0
    while waiting:
        last = None
        rest = []
        for p in waiting:
            lo, hi = pieces[p]
            if (last is None or lo > last) and all(0 <= track[b] < t for b in before[p]):
                track[p] = t
                last = hi
            else:
                rest.append(p)
        waiting = rest
        t += 1
    return track


def _route_channel(legs: list[tuple[int, int]]) -> tuple[list[tuple[tuple[int, int], ...]], int]:
    """Vertical pieces of a channel's legs, each leg given as (exit row,
    entry row) in exit-row order: per leg its corners as ((track, row),
    ...), empty for a straight leg, and the channel's track count. Each
    dogleg takes a row that no other leg of the channel uses, the nearest
    to the middle of its leg's rows."""
    taken = {r for leg in legs for r in leg}
    entering = {b: w for w, (a, b) in enumerate(legs) if a != b}
    right_of: dict[int, int] = {}
    for w, (a, b) in enumerate(legs):
        if a != b and a in entering:
            right_of[w] = entering[a]
    # every cycle of the left-of constraints gets a dogleg on its first leg
    dogleg: dict[int, int] = {}
    seen: set[int] = set()
    for w in range(len(legs)):
        path: list[int] = []
        v: int | None = w
        while v is not None and v not in seen:
            seen.add(v)
            path.append(v)
            v = right_of.get(v)
        if v is not None and v in path:
            first = min(path[path.index(v):])
            a, b = legs[first]
            mid = (a + b) // 2
            row = next(
                r for d in range(len(taken) + 1) for r in (mid + d, mid - d) if r not in taken
            )
            taken.add(row)
            dogleg[first] = row
    # pieces by leg: the one holding the exit row, then the one holding the entry row
    pieces: list[tuple[int, int]] = []
    ends: dict[int, tuple[int, int]] = {}
    for w, (a, b) in enumerate(legs):
        if a == b:
            continue
        rows = (a, dogleg[w], b) if w in dogleg else (a, b)
        first = len(pieces)
        for r, s in zip(rows, rows[1:]):
            pieces.append((min(r, s), max(r, s)))
        ends[w] = (first, len(pieces) - 1)
    before: list[list[int]] = [[] for _ in pieces]
    for w, (first, last) in ends.items():
        if first != last:
            before[last].append(first)
    for w, v in right_of.items():
        before[ends[v][1]].append(ends[w][0])
    track = _left_edge(pieces, before)
    corners: list[tuple[tuple[int, int], ...]] = []
    for w, (a, b) in enumerate(legs):
        if a == b:
            corners.append(())
            continue
        first, last = ends[w]
        if first == last:
            corners.append(((track[first], a), (track[first], b)))
        else:
            f = dogleg[w]
            corners.append(((track[first], a), (track[first], f), (track[last], f), (track[last], b)))
    return corners, max(track, default=-1) + 1


def draw_columns(qfg: QubitFlowGraph) -> OrthogonalDrawing:
    """The flow graph drawn in stage columns; see the module docstring."""
    legs = _legs(qfg)
    lanes = {g for _, run, _, _ in legs for g in run}
    col = _column_of({i: s for i, s in qfg.stage_of.items() if i not in lanes})
    columns: list[list[int]] = [[] for _ in range(max(col.values(), default=-1) + 1)]
    # slots: instruction ids, and dummies numbered -1, -2, ...; a slot's
    # neighbours one column up and down, by leg index, None for a run's
    # open end
    up: dict[int, list[tuple[int | None, int]]] = {}
    down: dict[int, list[tuple[int | None, int]]] = {}
    chains: dict[int, list[int]] = {}  # by leg index, for legs between two column nodes
    key: dict[int, tuple[int, ...]] = {i: (i,) for i in col}
    for i in col:
        columns[col[i]].append(i)
    fresh = count(-1, -1)
    for w, (i, _, j, _) in enumerate(legs):
        if i is None:
            up.setdefault(j, []).append((None, w))
            continue
        if j is None:
            down.setdefault(i, []).append((None, w))
            continue
        chain = [i]
        for c in range(col[i] + 1, col[j]):
            d = next(fresh)
            key[d] = (i, j)
            columns[c].append(d)
            chain.append(d)
        chain.append(j)
        for a, b in zip(chain, chain[1:]):
            down.setdefault(a, []).append((b, w))
            up.setdefault(b, []).append((a, w))
        chains[w] = chain
    for i in col:
        ins, outs = len(up.get(i, ())), len(down.get(i, ()))
        if ins + outs > 4 or max(ins, outs) > 3:
            raise LayoutError(f"node {i} has {ins} in-edges and {outs} out-edges")

    pos: dict[int, int] = {}
    for column in columns:
        column.sort(key=key.__getitem__)
        pos.update((s, k) for k, s in enumerate(column))

    def sweep(c: int, near: dict[int, list[tuple[int | None, int]]]) -> None:
        def barycenter(s: int) -> tuple[float, int]:
            ends = [pos[n] for n, _ in near.get(s, ()) if n is not None]
            if not ends:
                return (pos[s], pos[s])
            return (sum(ends) / len(ends), pos[s])

        columns[c].sort(key=barycenter)
        pos.update((s, k) for k, s in enumerate(columns[c]))

    for _ in range(SWEEPS):
        for c in range(1, len(columns)):
            sweep(c, up)
        for c in range(len(columns) - 2, -1, -1):
            sweep(c, down)

    # port sides and rows, top down per column; a leading run's port sorts
    # after the real in-edges, a trailing run's before the real out-edges
    side: dict[tuple[int, int], str] = {}  # (slot, leg) -> side at that slot
    row: dict[int, int] = {}
    for column in columns:
        top = 0
        for s in column:
            used = set()
            if s >= 0:
                for near, sides, run in ((up, _IN_SIDES, inf), (down, _OUT_SIDES, -inf)):
                    ends = sorted(
                        near.get(s, ()), key=lambda e: (run if e[0] is None else pos[e[0]], e[1])
                    )
                    for (_, w), d in zip(ends, sides.get(len(ends), ())):
                        side[s, w] = d
                        used.add(d)
            row[s] = top + ("N" in used)
            top = row[s] + ("S" in used) + 2

    def leg_row(s: int, w: int) -> int:
        return row[s] + _SIDE_ROW[side[s, w]] if s >= 0 else row[s]

    # channels: per leg the corners in each channel it crosses, track-relative
    channel_legs: list[list[tuple[int, int, int]]] = [[] for _ in columns]
    for w, chain in chains.items():
        for k, (a, b) in enumerate(zip(chain, chain[1:])):
            channel_legs[col[chain[0]] + k].append((leg_row(a, w), leg_row(b, w), w))
    # per column, the longest run that ends at it and that trails it
    into = [0] * len(columns)
    trail = [0] * len(columns)
    for i, run, j, _ in legs:
        if j is not None:
            into[col[j]] = max(into[col[j]], len(run))
        else:
            trail[col[i]] = max(trail[col[i]], len(run))
    # column 0 shifts right by the longest run that leads into it
    x_of = into[:1] + [0] * (len(columns) - 1)
    bends: dict[tuple[int, int], tuple[Point, ...]] = {}  # (leg, channel) -> corners
    crossings: set[Point] = set()
    for c, channel in enumerate(channel_legs[:-1]):
        channel.sort()
        corners, tracks = _route_channel([(a, b) for a, b, _ in channel])
        x0 = x_of[c]
        x_of[c + 1] = x1 = x0 + trail[c] + tracks + into[c + 1] + 1
        vertical: list[tuple[int, int, int]] = []
        horizontal: list[tuple[int, int, int]] = []
        for (a, b, w), pts in zip(channel, corners):
            placed = [(x0 + 1 + trail[c] + t, r) for t, r in pts]
            bends[w, c] = tuple(placed)
            line = [(x0, a), *placed, (x1, b)]
            for (px, py), (qx, qy) in zip(line, line[1:]):
                if px == qx:
                    vertical.append((px, min(py, qy), max(py, qy)))
                else:
                    horizontal.append((py, px, qx))
        for x, lo, hi in vertical:
            for y, xa, xb in horizontal:
                if lo < y < hi and xa < x < xb:
                    crossings.add((x, y))

    node_pos = {i: (x_of[col[i]], row[i]) for i in col}
    routes: dict[EdgeKey, tuple[Point, ...]] = {}
    for w, (i, run, j, q) in enumerate(legs):
        # the leg's points, each with the node it reaches or None; a run
        # sits one unit apart on its target's entry row just left of the
        # target's column, or, with no target, on its source's exit row
        # just right of the source's column
        path: list[tuple[int | None, Point]] = []
        if i is not None:
            x0, r = x_of[col[i]], leg_row(i, w)
            path += [(i, node_pos[i]), (None, (x0, r))]
        if j is None:
            seats = [(x0 + 1 + k, r) for k in range(len(run))]
        else:
            x1, r1 = x_of[col[j]], leg_row(j, w)
            if i is not None:
                path += [(None, p) for c in range(col[i], col[j]) for p in bends[w, c]]
            seats = [(x1 - len(run) + k, r1) for k in range(len(run))]
        node_pos.update(zip(run, seats))
        path += zip(run, seats)
        if j is not None:
            path += [(None, (x1, r1)), (j, node_pos[j])]
        # the route splits at each node; only a piece's end at a node that
        # it leaves or enters by E or W repeats a point
        cuts = [k for k, (n, _) in enumerate(path) if n is not None]
        for a, b in pairwise(cuts):
            pts = (p for _, p in path[a : b + 1])
            routes[path[a][0], path[b][0], q] = tuple(p for p, _ in groupby(pts))
    return OrthogonalDrawing(node_pos, routes, tuple(sorted(crossings)))
