"""Grid realization of an orthogonal representation.

Bends become subdivision vertices, every half-edge gets an absolute
direction, each connected component is wrapped in a border rectangle and
all faces are refined to rectangles by projecting reflex corners onto the
side facing them. With rectangular faces the two axis constraint graphs
are acyclic and a longest-path pass per axis yields overlap-free integer
coordinates with heuristically short edges.
"""

from __future__ import annotations

import networkx as nx

from .drawing import OrthogonalDrawing, Point
from .macrolayout import LayoutError
from .orthogonal import OrthoRep
from .planar import Node, PlanarizedGraph, node_key

_EAST, _SOUTH, _WEST, _NORTH = 0, 1, 2, 3


class _Mesh:
    """Doubly linked face walks with absolute directions per half-edge."""

    def __init__(self) -> None:
        self.nxt: dict[tuple, tuple] = {}
        self.prv: dict[tuple, tuple] = {}
        self.dirs: dict[tuple, int] = {}

    def link(self, a: tuple, b: tuple) -> None:
        self.nxt[a] = b
        self.prv[b] = a

    def turn(self, he: tuple) -> int:
        rot = (self.dirs[self.nxt[he]] - self.dirs[he]) % 4
        return rot if rot <= 1 else rot - 4

    def face_of(self, he: tuple) -> list[tuple]:
        walk = [he]
        cur = self.nxt[he]
        while cur != he:
            walk.append(cur)
            cur = self.nxt[cur]
        return walk

    def all_faces(self) -> list[list[tuple]]:
        seen: set[tuple] = set()
        faces = []
        for he in sorted(self.nxt, key=lambda e: (node_key(e[0]), node_key(e[1]))):
            if he in seen:
                continue
            walk = self.face_of(he)
            seen.update(walk)
            faces.append(walk)
        return faces


def _bend_values(rep: OrthoRep, u: Node, v: Node) -> list[int]:
    """Bend angles along (u, v) as seen from the (u, v) walk side."""
    convex = rep.bends.get((u, v), 0)
    reflex = rep.bends.get((v, u), 0)
    if convex and reflex:
        raise LayoutError(f"bends on {u}-{v} are not one-sided after cancellation")
    return [1] * convex + [3] * reflex


def _build_mesh(
    rep: OrthoRep, face_idx: tuple[int, ...], names: "_NameSource"
) -> tuple[_Mesh, dict[tuple[Node, Node], list[str]], dict[tuple, int]]:
    """Subdivide bends and link the refined face walks of one component."""
    mesh = _Mesh()
    bend_nodes: dict[tuple[Node, Node], list[str]] = {}
    angles_after: dict[tuple, int] = {}

    for fi in face_idx:
        walk = rep.faces[fi]
        for u, v in walk:
            canon = (u, v) if node_key(u) <= node_key(v) else (v, u)
            if canon not in bend_nodes:
                count = rep.edge_bends(u, v)
                bend_nodes[canon] = [names.fresh("b") for _ in range(count)]

    for fi in face_idx:
        walk = rep.faces[fi]
        refined: list[tuple] = []
        for ci, (u, v) in enumerate(walk):
            canon = (u, v) if node_key(u) <= node_key(v) else (v, u)
            seq = bend_nodes[canon]
            values = _bend_values(rep, *canon)
            if (u, v) != canon:
                seq = list(reversed(seq))
                values = [4 - a for a in reversed(values)]
            pts = [u, *seq, v]
            for k in range(len(pts) - 1):
                he = (pts[k], pts[k + 1])
                refined.append(he)
                angles_after[he] = values[k] if k < len(seq) else rep.angles[(fi, ci)]
        for k, he in enumerate(refined):
            mesh.link(he, refined[(k + 1) % len(refined)])

    return mesh, bend_nodes, angles_after


def _assign_directions(mesh: _Mesh, angles_after: dict[tuple, int]) -> None:
    pending = sorted(mesh.nxt, key=lambda e: (node_key(e[0]), node_key(e[1])))
    seed = pending[0]
    mesh.dirs[seed] = _EAST
    stack = [seed]
    while stack:
        he = stack.pop()
        d = mesh.dirs[he]
        twin = (he[1], he[0])
        rot = (2 - angles_after[he]) % 4
        for other, value in ((twin, (d + 2) % 4), (mesh.nxt[he], (d + rot) % 4)):
            if other in mesh.dirs:
                if mesh.dirs[other] != value:
                    raise LayoutError(f"direction clash at {other}")
            else:
                mesh.dirs[other] = value
                stack.append(other)
    if len(mesh.dirs) != len(mesh.nxt):
        raise LayoutError("disconnected mesh")


class _NameSource:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"


def _add_border(mesh: _Mesh, names: _NameSource) -> None:
    """Wrap the component: turns the annulus around it into a disk face."""
    external = None
    for walk in mesh.all_faces():
        if sum(mesh.turn(he) for he in walk) == -4:
            external = walk
            break
    if external is None:
        raise LayoutError("no external face found")

    he0 = next(he for he in external if mesh.turn(he) <= 0)
    he1 = mesh.nxt[he0]
    v = he0[1]
    d = (mesh.dirs[he0] + 1) % 4

    c = names.fresh("c")
    corners = [names.fresh("B") for _ in range(4)]
    ring = [c, *corners]
    inner = [(ring[k], ring[(k + 1) % 5]) for k in range(5)]

    mesh.dirs[(v, c)] = d
    mesh.dirs[(c, v)] = (d + 2) % 4
    for k, he in enumerate(inner):  # border sides rotate once per corner
        side = (d + 1 + k) % 4
        mesh.dirs[he] = side
        mesh.dirs[(he[1], he[0])] = (side + 2) % 4

    mesh.link(he0, (v, c))
    mesh.link((v, c), inner[0])
    for k in range(4):
        mesh.link(inner[k], inner[k + 1])
    mesh.link(inner[4], (c, v))
    mesh.link((c, v), he1)
    outer = [(b, a) for a, b in reversed(inner)]
    for k in range(5):
        mesh.link(outer[k], outer[(k + 1) % 5])


def _split_edge(mesh: _Mesh, front: tuple, m: str) -> None:
    """Subdivide `front` with vertex m; correct even when it is a bridge."""
    x, y = front
    twin = (y, x)
    old = {
        "in1": mesh.prv[front], "out1": mesh.nxt[front],
        "in2": mesh.prv[twin], "out2": mesh.nxt[twin],
    }

    def as_source(he: tuple) -> tuple:
        return (m, y) if he == front else (m, x) if he == twin else he

    def as_target(he: tuple) -> tuple:
        return (x, m) if he == front else (y, m) if he == twin else he

    d = mesh.dirs[front]
    mesh.dirs[(x, m)] = mesh.dirs[(m, y)] = d
    mesh.dirs[(y, m)] = mesh.dirs[(m, x)] = (d + 2) % 4
    for he in (front, twin):
        del mesh.dirs[he]
        mesh.nxt.pop(he, None)
        mesh.prv.pop(he, None)
    mesh.link((x, m), (m, y))
    mesh.link((y, m), (m, x))
    mesh.link(as_source(old["in1"]), (x, m))
    mesh.link((m, y), as_target(old["out1"]))
    mesh.link(as_source(old["in2"]), (y, m))
    mesh.link((m, x), as_target(old["out2"]))


def _refine(mesh: _Mesh, names: _NameSource) -> None:
    """Split every internal face until all of them are rectangles."""
    work = [walk[0] for walk in mesh.all_faces()]
    while work:
        start = work.pop()
        if start not in mesh.nxt:
            continue
        walk = mesh.face_of(start)
        total = sum(mesh.turn(he) for he in walk)
        if total == -4:
            continue  # the single external face stays
        if total != 4:
            raise LayoutError(f"face turn sum {total}")
        he0 = next((he for he in walk if mesh.turn(he) <= -1), None)
        if he0 is None:
            continue  # rectangle already
        v = he0[1]
        cnt = 0
        cur = he0
        while True:
            cnt += mesh.turn(cur)
            if cnt == 1:
                front = mesh.nxt[cur]
                break
            cur = mesh.nxt[cur]
            if cur == he0:
                raise LayoutError("no front side found")
        x, y = front
        if v in front:
            raise LayoutError("projection hit its own corner")
        if (mesh.dirs[front] - mesh.dirs[he0]) % 2 != 1:
            raise LayoutError("front not perpendicular")

        m = names.fresh("r")
        _split_edge(mesh, front, m)
        he1 = mesh.nxt[he0]
        d0 = mesh.dirs[he0]
        mesh.dirs[(v, m)] = d0
        mesh.dirs[(m, v)] = (d0 + 2) % 4
        mesh.link(he0, (v, m))
        mesh.link((v, m), (m, y))
        mesh.link((x, m), (m, v))
        mesh.link((m, v), he1)

        work.append(he0)
        work.append((m, v))
        work.append((y, m))


def _coordinates(mesh: _Mesh) -> dict[Node, Point]:
    nodes = sorted({n for he in mesh.nxt for n in he}, key=node_key)

    def compact_axis(line_dirs: tuple[int, int], forward: int) -> dict[Node, int]:
        """One coordinate per line (a component of `line_dirs` edges): the
        longest path to it along `forward` edges, i.e. its topological
        generation."""
        lines = nx.Graph()
        lines.add_nodes_from(nodes)
        lines.add_edges_from(he for he, d in mesh.dirs.items() if d in line_dirs)
        line_of = {n: k for k, line in enumerate(nx.connected_components(lines)) for n in line}
        order = nx.DiGraph()
        order.add_nodes_from(line_of.values())
        order.add_edges_from(
            (line_of[a], line_of[b]) for (a, b), d in mesh.dirs.items() if d == forward
        )
        try:
            coord = {
                line: depth
                for depth, generation in enumerate(nx.topological_generations(order))
                for line in generation
            }
        except nx.NetworkXUnfeasible as exc:
            raise LayoutError("cyclic compaction constraints") from exc
        return {n: coord[line_of[n]] for n in nodes}

    xs = compact_axis((_NORTH, _SOUTH), _EAST)
    ys = compact_axis((_EAST, _WEST), _SOUTH)
    return {n: (xs[n], ys[n]) for n in nodes}


def _component_positions(
    rep: OrthoRep, comp: tuple[Node, ...], face_idx: tuple[int, ...], names: _NameSource
) -> tuple[dict[Node, Point], dict[tuple[Node, Node], list[str]]]:
    if not face_idx:
        return {comp[0]: (0, 0)}, {}
    mesh, bend_nodes, angles_after = _build_mesh(rep, face_idx, names)
    _assign_directions(mesh, angles_after)
    _add_border(mesh, names)
    _refine(mesh, names)
    coords = _coordinates(mesh)
    keep = {
        n: coords[n]
        for n in coords
        if not (isinstance(n, str) and n.startswith(("_c", "_B", "_r")))
    }
    return keep, bend_nodes


def compact(pg: PlanarizedGraph, rep: OrthoRep) -> OrthogonalDrawing:
    """Integer grid drawing of the planarized graph's representation."""
    names = _NameSource()
    positions: dict[Node, Point] = {}
    bend_map: dict[tuple[Node, Node], list[str]] = {}
    offset = 0
    for comp, face_idx in pg.component_faces():
        local, bends = _component_positions(rep, comp, face_idx, names)
        xs = [p[0] for p in local.values()]
        ys = [p[1] for p in local.values()]
        dx, dy = offset - min(xs), -min(ys)
        for node, (x, y) in local.items():
            positions[node] = (x + dx, y + dy)
        bend_map.update(bends)
        offset = max(p[0] for p in positions.values()) + 2

    routes: dict[tuple[int, int, int], tuple[Point, ...]] = {}
    bend_count: dict[tuple[int, int, int], int] = {}
    for key, chain in sorted(pg.chains.items()):
        pts: list[Point] = [positions[chain[0]]]
        for a, b in zip(chain, chain[1:]):
            canon = (a, b) if node_key(a) <= node_key(b) else (b, a)
            seq = bend_map.get(canon, [])
            ordered = seq if (a, b) == canon else list(reversed(seq))
            for node in [*ordered, b]:
                pts.append(positions[node])
        corners = [pts[0]]
        for k in range(1, len(pts) - 1):
            (x0, y0), (x1, y1), (x2, y2) = pts[k - 1], pts[k], pts[k + 1]
            straight = (x0 == x1 == x2) or (y0 == y1 == y2)
            if not straight:
                corners.append(pts[k])
        corners.append(pts[-1])
        routes[key] = tuple(corners)
        bend_count[key] = len(corners) - 2

    node_pos = {n: positions[n] for n in positions if isinstance(n, int)}
    crossing_pts = tuple(
        positions[c] for c in sorted(pg.crossings) if c in positions
    )
    return OrthogonalDrawing(node_pos, routes, crossing_pts, bend_count)
