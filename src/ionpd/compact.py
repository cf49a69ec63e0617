"""Grid realization of an orthogonal representation.

Bends become subdivision vertices, every half-edge gets an absolute
direction, each connected component is wrapped in a border rectangle and
all faces are refined to rectangles by projecting reflex corners onto the
side facing them. With rectangular faces every maximal run of vertical
half-edges is one x line and every run of horizontal ones one y line, the
constraint arcs between lines are acyclic, and one longest-path pass per
axis yields overlap-free integer coordinates with heuristically short edges.
The refinement's dummy edges also hold apart lines that never see each
other, so `tighten` compacts the finished drawing again, one longest-path
pass per axis over only what its lines see, keeping the room that `tile`
needs (`macrolayout.room_sides`).

Each component's mesh lives on integer ids. Vertices are the component's
nodes in `node_key` order (gates, crossings and splits), then bend, border
and refinement vertices as they are created; twin half-edges are the pairs
(h, h ^ 1). Each half-edge stores its turn into the next one. Wherever the
order of vertices decides a result (the seed direction, the external face,
the refinement order), vertices rank by the `node_key` of their labels:
created vertices are named `_b1`, `_c2`, `_B3`, `_r4`, ... from one counter
per drawing and sort as strings, so `_b10` precedes `_b2`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import repeat

from .drawing import OrthogonalDrawing, Point
from .macrolayout import LayoutError, room_sides
from .orthogonal import OrthoRep
from .planar import Node, PlanarizedGraph, node_key

_EAST, _SOUTH, _WEST, _NORTH = 0, 1, 2, 3
# turn from a half-edge into the next, by (next direction - direction) % 4:
# left turns are negative in the y-down grid
_TURN = (0, 1, -2, -1)


class _Mesh:
    """Doubly linked face walks of one component on integer ids.

    Vertex k is named `label[k]`. Half-edge h runs from `head[h ^ 1]` to
    `head[h]`; `nxt`/`prv` link the face walks (-1 once an edge is split
    away), `dir` holds absolute directions (-1 until assigned) and
    `turn[h]` the turn from h into `nxt[h]`."""

    def __init__(self, labels: list[Node]) -> None:
        self.label: list[Node] = labels
        self.head: list[int] = []
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.dir: list[int] = []
        self.turn: list[int] = []

    def vertex(self, name: str) -> int:
        self.label.append(name)
        return len(self.label) - 1

    def pair(self, a: int, b: int, d: int = -1) -> int:
        """New half-edges a->b (returned) and b->a; a->b points along d."""
        h = len(self.head)
        self.head += (b, a)
        self.nxt += (-1, -1)
        self.prv += (-1, -1)
        self.dir += (d, -1) if d < 0 else (d, (d + 2) % 4)
        self.turn += (0, 0)
        return h

    def link(self, a: int, b: int) -> None:
        self.nxt[a] = b
        self.prv[b] = a
        self.turn[a] = _TURN[(self.dir[b] - self.dir[a]) % 4]

    def name(self, h: int) -> tuple[Node, Node]:
        """A half-edge as its (tail, head) labels, for messages."""
        return self.label[self.head[h ^ 1]], self.label[self.head[h]]

    def face_of(self, h: int) -> list[int]:
        nxt = self.nxt
        walk = [h]
        cur = nxt[h]
        while cur != h:
            walk.append(cur)
            cur = nxt[cur]
        return walk

    def by_label(self) -> list[int]:
        """The live half-edges by (tail, head) in `node_key` order."""
        labels = self.label
        order = sorted(range(len(labels)), key=lambda v: node_key(labels[v]))
        rank = [0] * len(order)
        for r, v in enumerate(order):
            rank[v] = r
        head, n = self.head, len(order)
        live = [h for h, after in enumerate(self.nxt) if after >= 0]
        live.sort(key=lambda h: rank[head[h ^ 1]] * n + rank[head[h]])
        return live

    def all_faces(self) -> list[list[int]]:
        """Every face walk, each from its first half-edge in `by_label` order."""
        seen = bytearray(len(self.head))
        faces = []
        for h in self.by_label():
            if seen[h]:
                continue
            walk = self.face_of(h)
            for e in walk:
                seen[e] = 1
            faces.append(walk)
        return faces


def _bend_values(rep: OrthoRep, u: Node, v: Node) -> list[int]:
    """Bend angles along (u, v) as seen from the (u, v) walk side."""
    convex = rep.bends.get((u, v), 0)
    reflex = rep.bends.get((v, u), 0)
    if convex and reflex:
        raise LayoutError(f"bends on {u}-{v} are not one-sided")
    return [1] * convex + [3] * reflex


def _build_mesh(
    rep: OrthoRep, comp: tuple[Node, ...], face_idx: tuple[int, ...], names: "_NameSource"
) -> tuple[_Mesh, dict[tuple[Node, Node], list[int]], list[int]]:
    """Subdivide bends and link the refined face walks of one component.

    Returns the mesh, the bend vertices of every bent edge from its
    `node_key` smaller end, and the angle after every half-edge. `comp` is in
    `node_key` order, so vertex ids order each edge's ends the same way."""
    mesh = _Mesh(list(comp))
    ident = {v: k for k, v in enumerate(comp)}
    faces, angles = rep.faces, rep.angles
    # (u, v) with u < v -> (first u->v half-edge of its segments, bend angles)
    segments: dict[tuple[int, int], tuple[int, list[int]]] = {}
    bend_nodes: dict[tuple[Node, Node], list[int]] = {}
    for fi in face_idx:
        for u, v in faces[fi]:
            iu, iv = ident[u], ident[v]
            if iu > iv:
                u, v, iu, iv = v, u, iv, iu
            if (iu, iv) in segments:
                continue
            values = _bend_values(rep, u, v)
            if values:
                bends = [mesh.vertex(names.fresh("b")) for _ in values]
                bend_nodes[(u, v)] = bends
                first = mesh.pair(iu, bends[0])
                for a, b in zip(bends, [*bends[1:], iv]):
                    mesh.pair(a, b)
            else:
                first = mesh.pair(iu, iv)
            segments[(iu, iv)] = (first, values)

    angles_after = [0] * len(mesh.head)
    nxt, prv = mesh.nxt, mesh.prv
    for fi in face_idx:
        refined: list[int] = []
        for ci, (u, v) in enumerate(faces[fi]):
            iu, iv = ident[u], ident[v]
            first, values = segments[(iu, iv) if iu < iv else (iv, iu)]
            if values:  # the segments' half-edges from u to v
                if iu < iv:
                    hs = range(first, first + 2 * len(values) + 1, 2)
                else:
                    hs = range(first + 2 * len(values) + 1, first, -2)
                    values = [4 - a for a in reversed(values)]
                for h, a in zip(hs, values):
                    angles_after[h] = a
                refined.extend(hs[:-1])
                last = hs[-1]
            else:
                last = first if iu < iv else first + 1
            angles_after[last] = angles[(fi, ci)]
            refined.append(last)
        for a, b in zip(refined, refined[1:] + refined[:1]):
            nxt[a] = b
            prv[b] = a

    return mesh, bend_nodes, angles_after


def _assign_directions(mesh: _Mesh, angles_after: list[int]) -> None:
    head, nxt, dirs = mesh.head, mesh.nxt, mesh.dir
    seed = mesh.by_label()[0]
    dirs[seed] = _EAST
    assigned = 1
    stack = [seed]
    while stack:
        h = stack.pop()
        d = dirs[h]
        for other, value in ((h ^ 1, (d + 2) % 4), (nxt[h], (d + 2 - angles_after[h]) % 4)):
            if dirs[other] >= 0:
                if dirs[other] != value:
                    raise LayoutError(f"direction clash at {mesh.name(other)}")
            else:
                dirs[other] = value
                assigned += 1
                stack.append(other)
    if assigned != len(head):
        raise LayoutError("disconnected mesh")
    mesh.turn = [_TURN[(dirs[nxt[h]] - d) % 4] for h, d in enumerate(dirs)]


class _NameSource:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"


def _add_border(mesh: _Mesh, names: _NameSource) -> None:
    """Wrap the component: turns the annulus around it into a disk face."""
    turn = mesh.turn
    external = None
    for walk in mesh.all_faces():
        if sum(turn[h] for h in walk) == -4:
            external = walk
            break
    if external is None:
        raise LayoutError("no external face found")

    he0 = next(h for h in external if turn[h] <= 0)
    he1 = mesh.nxt[he0]
    v = mesh.head[he0]
    d = (mesh.dir[he0] + 1) % 4

    c = mesh.vertex(names.fresh("c"))
    ring = [c, *(mesh.vertex(names.fresh("B")) for _ in range(4))]
    spoke = mesh.pair(v, c, d)
    # border sides rotate once per corner
    inner = [mesh.pair(ring[k], ring[(k + 1) % 5], (d + 1 + k) % 4) for k in range(5)]

    mesh.link(he0, spoke)
    mesh.link(spoke, inner[0])
    for k in range(4):
        mesh.link(inner[k], inner[k + 1])
    mesh.link(inner[4], spoke ^ 1)
    mesh.link(spoke ^ 1, he1)
    outer = [h ^ 1 for h in reversed(inner)]
    for k in range(5):
        mesh.link(outer[k], outer[(k + 1) % 5])


def _split_edge(mesh: _Mesh, front: int, m: int) -> tuple[int, int]:
    """Subdivide `front` (x->y) with vertex m; correct even when it is a
    bridge. Returns the new half-edges x->m and m->y; their twins are y->m
    and m->x, and `front` and its twin are gone."""
    twin = front ^ 1
    head, nxt, prv = mesh.head, mesh.nxt, mesh.prv
    x, y = head[twin], head[front]
    in1, out1, in2, out2 = prv[front], nxt[front], prv[twin], nxt[twin]
    d = mesh.dir[front]
    xm = mesh.pair(x, m, d)
    my = mesh.pair(m, y, d)
    as_source = {front: my, twin: xm ^ 1}
    as_target = {front: xm, twin: my ^ 1}
    for h in (front, twin):
        nxt[h] = prv[h] = -1
    mesh.link(xm, my)
    mesh.link(my ^ 1, xm ^ 1)
    mesh.link(as_source.get(in1, in1), xm)
    mesh.link(my, as_target.get(out1, out1))
    mesh.link(as_source.get(in2, in2), my ^ 1)
    mesh.link(xm ^ 1, as_target.get(out2, out2))
    return xm, my


def _refine(mesh: _Mesh, names: _NameSource) -> None:
    """Split every internal face until all of them are rectangles."""
    head, nxt, dirs, turn = mesh.head, mesh.nxt, mesh.dir, mesh.turn
    work = [walk[0] for walk in mesh.all_faces()]
    while work:
        start = work.pop()
        if nxt[start] < 0:
            continue
        walk = mesh.face_of(start)
        total = sum(turn[h] for h in walk)
        if total == -4:
            continue  # the single external face stays
        if total != 4:
            raise LayoutError(f"face turn sum {total}")
        he0 = next((h for h in walk if turn[h] <= -1), None)
        if he0 is None:
            continue  # rectangle already
        v = head[he0]
        cnt = 0
        cur = he0
        while True:
            cnt += turn[cur]
            if cnt == 1:
                front = nxt[cur]
                break
            cur = nxt[cur]
            if cur == he0:
                raise LayoutError("no front side found")
        if v == head[front] or v == head[front ^ 1]:
            raise LayoutError("projection hit its own corner")
        if (dirs[front] - dirs[he0]) % 2 != 1:
            raise LayoutError("front not perpendicular")

        m = mesh.vertex(names.fresh("r"))
        xm, my = _split_edge(mesh, front, m)
        he1 = nxt[he0]
        vm = mesh.pair(v, m, dirs[he0])
        mesh.link(he0, vm)
        mesh.link(vm, my)
        mesh.link(xm, vm ^ 1)
        mesh.link(vm ^ 1, he1)

        work.append(he0)
        work.append(vm ^ 1)
        work.append(my ^ 1)


def _axis(mesh: _Mesh, forward: int) -> list[int]:
    """One coordinate per vertex along `forward` (east or south).

    A line is a maximal run of half-edges perpendicular to `forward`; its
    coordinate is the longest path to it along `forward` half-edges, found
    by one Kahn pass over the lines."""
    n = len(mesh.label)
    head, dirs = mesh.head, mesh.dir
    along = (forward + 1) % 4  # south for x lines, west for y lines
    live = [h for h, after in enumerate(mesh.nxt) if after >= 0]
    step = [-1] * n
    entered = bytearray(n)
    for h in live:
        if dirs[h] == along:
            tail, tip = head[h ^ 1], head[h]
            if step[tail] >= 0 or entered[tip]:
                raise LayoutError(f"direction clash at {mesh.name(h)}")
            step[tail] = tip
            entered[tip] = 1
    line = [-1] * n
    lines = 0
    for v in range(n):
        if not entered[v]:
            while v >= 0:
                line[v] = lines
                v = step[v]
            lines += 1
    if -1 in line:  # a closed run: a cycle of constraints along `along`
        raise LayoutError("cyclic compaction constraints")

    succ: list[list[int]] = [[] for _ in range(lines)]
    indeg = [0] * lines
    for h in live:
        if dirs[h] == forward:
            b = line[head[h]]
            succ[line[head[h ^ 1]]].append(b)
            indeg[b] += 1
    coord = [0] * lines
    queue = [k for k in range(lines) if not indeg[k]]
    for a in queue:  # grows while it is walked
        depth = coord[a] + 1
        for b in succ[a]:
            if coord[b] < depth:
                coord[b] = depth
            indeg[b] -= 1
            if not indeg[b]:
                queue.append(b)
    if len(queue) != lines:
        raise LayoutError("cyclic compaction constraints")
    return [coord[k] for k in line]


def _coordinates(mesh: _Mesh) -> tuple[list[int], list[int]]:
    """x and y of every vertex, by id."""
    return _axis(mesh, _EAST), _axis(mesh, _SOUTH)


def compact(pg: PlanarizedGraph, rep: OrthoRep) -> OrthogonalDrawing:
    """Integer grid drawing of the planarized graph's representation."""
    names = _NameSource()
    positions: dict[Node, Point] = {}
    # (u, v) -> the points of the bends from u to v, for both orientations
    bend_pts: dict[tuple[Node, Node], list[Point]] = {}
    offset = 0
    for comp, face_idx in pg.components:
        if not face_idx:
            positions[comp[0]] = (offset, 0)
            offset += 2
            continue
        mesh, bend_nodes, angles_after = _build_mesh(rep, comp, face_idx, names)
        kept = len(mesh.label)  # nodes and bends; border and refinement follow
        _assign_directions(mesh, angles_after)
        _add_border(mesh, names)
        _refine(mesh, names)
        xs, ys = _coordinates(mesh)
        xs, ys = xs[:kept], ys[:kept]
        dx, dy = offset - min(xs), -min(ys)
        for k, node in enumerate(comp):
            positions[node] = (xs[k] + dx, ys[k] + dy)
        for (u, v), bends in bend_nodes.items():
            pts = [(xs[b] + dx, ys[b] + dy) for b in bends]
            bend_pts[(u, v)] = pts
            bend_pts[(v, u)] = pts[::-1]
        offset = max(xs) + dx + 2

    routes: dict[tuple[int, int, int], tuple[Point, ...]] = {}
    for key, chain in sorted(pg.chains.items()):
        pts: list[Point] = [positions[chain[0]]]
        for a, b in zip(chain, chain[1:]):
            pts += bend_pts.get((a, b), ())
            pts.append(positions[b])
        corners = [pts[0]]
        for k in range(1, len(pts) - 1):
            (x0, y0), (x1, y1), (x2, y2) = pts[k - 1], pts[k], pts[k + 1]
            straight = (x0 == x1 == x2) or (y0 == y1 == y2)
            if not straight:
                corners.append(pts[k])
        corners.append(pts[-1])
        routes[key] = tuple(corners)

    node_pos = {n: p for n, p in positions.items() if isinstance(n, int)}
    crossing_pts = tuple(
        positions[c] for c in sorted(pg.crossings) if c in positions
    )
    return OrthogonalDrawing(node_pos, routes, crossing_pts)


def _tighten_axis(
    drawing: OrthogonalDrawing, axis: int, room: Mapping[int, tuple[str, ...]]
) -> OrthogonalDrawing:
    """One compaction pass along `axis` (0 for x, 1 for y); see `tighten`."""
    other = 1 - axis
    # the sides that face up and down the axis
    ahead, behind = ("E", "W") if axis == 0 else ("S", "N")
    point_set = {*drawing.node_pos.values(), *drawing.crossings}
    for pts in drawing.routes.values():
        point_set.update(pts)
    points = list(point_set)
    # (coordinate, span start, span end, point index or -1 for a segment)
    pieces = [(p[axis], p[other], p[other], k) for k, p in enumerate(points)]
    for pts in drawing.routes.values():
        for a, b in zip(pts, pts[1:]):
            if a[axis] == b[axis]:
                lo, hi = (a[other], b[other]) if a[other] < b[other] else (b[other], a[other])
                pieces.append((a[axis], lo, hi, -1))
    pieces.sort()
    # units as [coordinate, span start, span end], in their current order
    units: list[list[int]] = []
    unit_of: dict[Point, int] = {}
    for c, lo, hi, k in pieces:
        if units and units[-1][0] == c and lo <= units[-1][2]:
            if hi > units[-1][2]:
                units[-1][2] = hi
        else:
            units.append([c, lo, hi])
        if k >= 0:
            unit_of[points[k]] = len(units) - 1
    # unit -> the lines on which one of its nodes wants room ahead of or behind it
    room_ahead: dict[int, list[int]] = {}
    room_behind: dict[int, list[int]] = {}
    for node, node_sides in room.items():
        p = drawing.node_pos[node]
        if ahead in node_sides:
            room_ahead.setdefault(unit_of[p], []).append(p[other])
        if behind in node_sides:
            room_behind.setdefault(unit_of[p], []).append(p[other])

    base = min(lo for _, lo, _ in units)
    lines = max(hi for _, _, hi in units) - base + 1
    # per line: the lowest coordinate the next unit on it may take, and the
    # coordinate of the last unit placed on it (-2 before any)
    free = [0] * lines
    last = [-2] * lines
    coord = [0] * len(units)
    for u, (_, lo, hi) in enumerate(units):
        lo -= base
        hi += 1 - base
        c = max(free[lo:hi])
        for line in room_behind.get(u, ()):
            c = max(c, last[line - base] + 2)
        coord[u] = c
        free[lo:hi] = repeat(c + 1, hi - lo)
        last[lo:hi] = repeat(c, hi - lo)
        for line in room_ahead.get(u, ()):
            free[line - base] = c + 2

    if axis == 0:
        moved = {p: (coord[unit_of[p]], p[1]) for p in points}
    else:
        moved = {p: (p[0], coord[unit_of[p]]) for p in points}
    return OrthogonalDrawing(
        {i: moved[p] for i, p in drawing.node_pos.items()},
        {key: tuple(map(moved.__getitem__, pts)) for key, pts in drawing.routes.items()},
        tuple(map(moved.__getitem__, drawing.crossings)),
    )


def tighten(drawing: OrthogonalDrawing, sides: Mapping[int, Sequence[str]]) -> OrthogonalDrawing:
    """A valid drawing compacted by what its lines see: one x pass, then
    one y pass, each keeping only the room `tile` needs.

    Along an axis, a unit is a maximal group of points joined by segments
    that run along the other axis, with its nodes and the crossings on
    those segments; it has one coordinate on the axis and a closed span on
    the other. On every grid line of the other axis, the units whose span
    contains it keep their order, consecutive ones at least 1 apart, and 2
    where one of their nodes on that line wants room on that side
    (`macrolayout.room_sides` under the corner and junction order `sides`).
    Each unit then takes the least coordinate from 0 its predecessors
    allow, in current order, and every point of it moves with it. So no
    two things come to share a point or a step, routes keep their corners,
    and every crossing stays one."""
    if not drawing.node_pos:
        return drawing
    room = room_sides(drawing, sides)
    return _tighten_axis(_tighten_axis(drawing, 0, room), 1, room)
