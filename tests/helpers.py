"""Shared test oracles: exact unitaries, bend-minimum MILP, brute-force and
MILP stage schedules, networkx's network simplex, the all-pairs dataflow
rule and the set-based
exchangeability rule, the full-grid layout text, hand-rolled face walks,
dual routing, component grouping and compaction, random inputs, and
queries on pipeline results that only tests ask (reachability, flow-graph
degree, corner angles, the channel graph)."""

from __future__ import annotations

import heapq
import itertools
import random

import numpy as np

from ionpd.compact import _EAST, _NORTH, _SOUTH, _WEST
from ionpd.depgraph import DataflowGraph, exchangeable
from ionpd.gates import GateKind, Instruction, Netlist, make_netlist
from ionpd.macrolayout import DIRS, OPPOSITE, LayoutError, MacroLayout
from ionpd.planar import PlanarizeError, node_key
from ionpd.qfg import QubitFlowGraph, build_qfg
from ionpd.solver import Schedule

_SQ = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.T: np.diag([1, np.exp(1j * np.pi / 4)]),
    GateKind.Tdg: np.diag([1, np.exp(-1j * np.pi / 4)]),
    GateKind.S: np.diag([1, 1j]),
}
_V = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_CONTROLLED = {
    GateKind.CX: _SQ[GateKind.X],
    GateKind.CY: np.array([[0, -1j], [1j, 0]]),
    GateKind.CZ: np.diag([1, -1]).astype(complex),
    GateKind.CV: _V,
    GateKind.CVdg: _V.conj().T,
    GateKind.Toffoli: _SQ[GateKind.X],
}


def instruction_unitary(instr: Instruction, nq: int) -> np.ndarray:
    """Full 2^nq unitary; qubit w is bit (nq-1-w) of the basis index."""
    mat = _SQ.get(instr.kind)
    if mat is None:
        mat = _CONTROLLED[instr.kind]
    dim = 1 << nq
    out = np.zeros((dim, dim), dtype=complex)
    tbit = nq - 1 - instr.target
    cmask = 0
    for c in instr.controls:
        cmask |= 1 << (nq - 1 - c)
    for s in range(dim):
        if s & cmask == cmask:
            b = (s >> tbit) & 1
            for b2 in (0, 1):
                s2 = (s & ~(1 << tbit)) | (b2 << tbit)
                out[s2, s] += mat[b2, b]
        else:
            out[s, s] = 1
    return out


def netlist_unitary(netlist: Netlist, nq: int | None = None) -> np.ndarray:
    nq = nq if nq is not None else netlist.qubit_count
    u = np.eye(1 << nq, dtype=complex)
    for instr in netlist.instructions:
        u = instruction_unitary(instr, nq) @ u
    return u


def toffoli_unitary(c1: int, c2: int, t: int, nq: int) -> np.ndarray:
    """Direct permutation construction, independent of instruction_unitary."""
    dim = 1 << nq
    out = np.zeros((dim, dim), dtype=complex)
    b1, b2, bt = (1 << (nq - 1 - c1)), (1 << (nq - 1 - c2)), (1 << (nq - 1 - t))
    for s in range(dim):
        out[s ^ bt if (s & b1 and s & b2) else s, s] = 1
    return out


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) < tol:
        return bool(np.max(np.abs(a - b)) < tol)
    phase = b[idx] / a[idx]
    if abs(abs(phase) - 1) > tol:
        return False
    return bool(np.max(np.abs(a * phase - b)) < tol)


def synth_qfg(nodes: list[int], pairs: list[tuple[int, int]]) -> QubitFlowGraph:
    """Flow-graph-shaped test input: stages equal node ids, one qubit per edge."""
    edges = tuple(
        (min(a, b), max(a, b), q) for q, (a, b) in enumerate(pairs)
    )
    first = {q: i for i, _, q in edges}
    last = {q: j for _, j, q in edges}
    return QubitFlowGraph({n: n for n in nodes}, edges, first, last)


def qfg_degree(qfg: QubitFlowGraph, node: int) -> int:
    return sum(1 for i, j, _ in qfg.edges if node in (i, j))


def random_degree4_graph(rng: random.Random, max_nodes: int = 12) -> QubitFlowGraph:
    n = rng.randint(1, max_nodes)
    nodes = list(range(1, n + 1))
    deg = {v: 0 for v in nodes}
    pairs = list(itertools.combinations(nodes, 2))
    rng.shuffle(pairs)
    edges: list[tuple[int, int]] = []
    budget = rng.randint(0, 2 * n)
    for a, b in pairs:
        if len(edges) >= budget:
            break
        if deg[a] < 4 and deg[b] < 4:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    if edges and rng.random() < 0.15:
        a, b = edges[rng.randrange(len(edges))]
        if deg[a] < 4 and deg[b] < 4:
            edges.append((a, b))
    return synth_qfg(nodes, edges)


def layered_flow_graph(rng, qubits=8, layers=6):
    """Flow graph of random layers: a one-qubit gate on every qubit, then a
    perfect matching of two-qubit gates, each layer two stages."""
    gates, stages = [], []
    for layer in range(layers):
        for q in range(qubits):
            gates.append((rng.choice([GateKind.H, GateKind.T, GateKind.X]), (), q))
            stages.append(2 * layer + 1)
        order = list(range(qubits))
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            gates.append((rng.choice([GateKind.CX, GateKind.CZ]), (a,), b))
            stages.append(2 * layer + 2)
    netlist = make_netlist(gates)
    stage_of = {instr.id: stage for instr, stage in zip(netlist.instructions, stages)}
    return build_qfg(netlist, Schedule(stage_of, 2 * layers, 2 * layers))


_RANDOM_KINDS = [
    GateKind.H, GateKind.X, GateKind.T, GateKind.S,
    GateKind.CX, GateKind.CZ, GateKind.CY,
]


def random_netlist(rng: random.Random, max_instr: int = 10, max_qubits: int = 6) -> Netlist:
    count = rng.randint(1, max_instr)
    qubits = rng.randint(2, max_qubits)
    gates = []
    for _ in range(count):
        kind = _RANDOM_KINDS[rng.randrange(len(_RANDOM_KINDS))]
        if kind.arity == 1:
            gates.append((kind, (), rng.randrange(qubits)))
        else:
            a, b = rng.sample(range(qubits), 2)
            gates.append((kind, (a,), b))
    return make_netlist(gates)


def all_pairs_dataflow(netlist: Netlist) -> DataflowGraph:
    """`build_dataflow` by its definition: every earlier instruction is a
    candidate, kept if it shares a qubit and is not exchangeable."""
    instrs = netlist.instructions
    edges = {
        (a.id, b.id)
        for k, b in enumerate(instrs)
        for a in instrs[:k]
        if set(a.qubits) & set(b.qubits) and not exchangeable(a, b)
    }
    return DataflowGraph(tuple(i.id for i in instrs), frozenset(edges))


def reachable(graph: DataflowGraph, src: int, dst: int) -> bool:
    """True iff dst depends (possibly transitively) on src."""
    stack = [src]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        for nxt in graph.successors(cur):
            if nxt <= dst and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def bend_minimum_milp(pg, rep) -> int:
    """Exact per-embedding bend minimum (HiGHS MILP over the face equations)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    total = 0
    faces = rep.faces
    for comp, _ in pg.component_faces():
        comp_set = set(comp)
        fidx = [fi for fi, w in enumerate(faces) if w and w[0][0] in comp_set]
        if not fidx:
            continue
        ext = next(fi for fi in fidx if fi in rep.ext_face)
        corners = [(fi, ci) for fi in fidx for ci in range(len(faces[fi]))]
        corner_pos = {key: k for k, key in enumerate(corners)}
        hes = [(fi, he) for fi in fidx for he in faces[fi]]
        he_pos = {key: k for k, key in enumerate(hes)}
        he_face = {he: fi for fi in fidx for he in faces[fi]}
        nvar = len(corners) + len(hes)
        cost = np.concatenate([np.zeros(len(corners)), np.ones(len(hes))])
        rows, rhs = [], []
        for v in comp:
            row = np.zeros(nvar)
            hit = False
            for (fi, ci), k in corner_pos.items():
                if faces[fi][ci][1] == v:
                    row[k] = 1
                    hit = True
            if hit:
                rows.append(row)
                rhs.append(4)
        for fi in fidx:
            row = np.zeros(nvar)
            for ci in range(len(faces[fi])):
                row[corner_pos[(fi, ci)]] = -1
            for he in faces[fi]:
                row[len(corners) + he_pos[(fi, he)]] += 1
                twin = (he[1], he[0])
                row[len(corners) + he_pos[(he_face[twin], twin)]] -= 1
            rows.append(row)
            rhs.append((-4 if fi == ext else 4) - 2 * len(faces[fi]))
        lb = np.concatenate([np.ones(len(corners)), np.zeros(len(hes))])
        ub = np.concatenate([np.full(len(corners), 4.0), np.full(len(hes), 64.0)])
        res = milp(
            c=cost,
            constraints=LinearConstraint(np.array(rows), rhs, rhs),
            bounds=Bounds(lb, ub),
            integrality=np.ones(nvar),
        )
        assert res.success, res.message
        total += round(res.fun)
    return total


def lexmin_stages(netlist: Netlist, graph: DataflowGraph, horizon: int) -> dict[int, int] | None:
    """First valid stage vector of an id-order, ascending-stage enumeration
    over stages 1..horizon: the lexicographically smallest one, or None."""
    ids = sorted(i.id for i in netlist.instructions)
    qubits = {i.id: set(i.qubits) for i in netlist.instructions}
    stage_of: dict[int, int] = {}

    def place(idx: int) -> bool:
        if idx == len(ids):
            return True
        instr = ids[idx]
        for stage in range(1, horizon + 1):
            if any(stage_of[p] >= stage for p in graph.predecessors(instr)):
                continue
            if any(s == stage and qubits[o] & qubits[instr] for o, s in stage_of.items()):
                continue
            stage_of[instr] = stage
            if place(idx + 1):
                return True
            del stage_of[instr]
        return False

    return dict(stage_of) if place(0) else None


def stage_milp_status(netlist: Netlist, graph: DataflowGraph, horizon: int) -> int:
    """HiGHS status of the stage assignment at `horizon`: 0 feasible,
    2 infeasible. Built from the netlist and the full edge set, not from the
    solver's windows or the ILP export."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    ids = [i.id for i in netlist.instructions]
    col = {(i, l): k for k, (i, l) in enumerate(itertools.product(ids, range(1, horizon + 1)))}
    rows, lower, upper = [], [], []

    def row(coeffs: dict[int, float], lo: float, hi: float) -> None:
        r = np.zeros(len(col))
        for k, c in coeffs.items():
            r[k] += c
        rows.append(r)
        lower.append(lo)
        upper.append(hi)

    for i in ids:  # each instruction in exactly one stage
        row({col[i, l]: 1 for l in range(1, horizon + 1)}, 1, 1)
    on_qubit: dict[int, list[int]] = {}
    for instr in netlist.instructions:
        for q in instr.qubits:
            on_qubit.setdefault(q, []).append(instr.id)
    for members in on_qubit.values():  # one instruction per qubit and stage
        for l in range(1, horizon + 1):
            row({col[i, l]: 1 for i in members}, 0, 1)
    for j, i in graph.edges:  # stage(i) - stage(j) >= 1
        coeffs = {col[i, l]: l for l in range(1, horizon + 1)}
        for l in range(1, horizon + 1):
            coeffs[col[j, l]] = -l
        row(coeffs, 1, np.inf)
    res = milp(
        c=np.zeros(len(col)),
        constraints=LinearConstraint(np.array(rows), lower, upper),
        bounds=Bounds(0, 1),
        integrality=np.ones(len(col)),
    )
    return res.status


def networkx_min_cost_flow(
    node_count: int, arcs: list[tuple[int, int, int, int]], demand: list[int]
) -> list[int]:
    """`orthogonal.min_cost_flow` by networkx's network simplex on a
    multigraph keyed by arc index; raises `nx.NetworkXUnfeasible`."""
    import networkx as nx

    network = nx.MultiDiGraph()
    network.add_nodes_from((node, {"demand": demand[node]}) for node in range(node_count))
    for key, (u, v, cap, cost) in enumerate(arcs):
        network.add_edge(u, v, key, capacity=cap, weight=cost)
    _, flow = nx.network_simplex(network)
    return [flow[u][v][key] for key, (u, v, _, _) in enumerate(arcs)]


def angle_at(rep, vertex) -> list[int]:
    """Angles of `vertex` in every face corner it heads, in face order."""
    out = []
    for fi, walk in enumerate(rep.faces):
        for ci, (_, head) in enumerate(walk):
            if head == vertex:
                out.append(rep.angles[(fi, ci)])
    return out


def channel_graph(layout: MacroLayout) -> dict:
    """Blocks joined through matching open ports, neighbours sorted."""
    adjacency: dict = {cell: [] for cell in layout.blocks}
    for cell, block in layout.blocks.items():
        for port in block.ports:
            dx, dy = DIRS[port]
            other = (cell[0] + dx, cell[1] + dy)
            if other in layout.blocks and OPPOSITE[port] in layout.blocks[other].ports:
                adjacency[cell].append(other)
    return {cell: sorted(neigh) for cell, neigh in adjacency.items()}


def reference_layout_text(layout: MacroLayout) -> str:
    """`MacroLayout.to_text` by the full bounding-box grid of 2-character
    cells, each row right-stripped."""
    if not layout.blocks:
        return "(empty layout)\n"
    xs = [x for x, _ in layout.blocks]
    ys = [y for _, y in layout.blocks]
    x0, y0 = min(xs), min(ys)
    width = (max(xs) - x0 + 1) * 3
    height = (max(ys) - y0 + 1) * 3
    grid = [["  "] * width for _ in range(height)]
    for (bx, by), block in layout.blocks.items():
        cx, cy = (bx - x0) * 3, (by - y0) * 3
        for dy in range(3):
            for dx in range(3):
                grid[cy + dy][cx + dx] = "##"
        grid[cy + 1][cx + 1] = ".."
        for port in block.ports:
            dx, dy = DIRS[port]
            grid[cy + 1 + dy][cx + 1 + dx] = ".."
        if block.gate_of:
            grid[cy + 1][cx + 1] = f"{block.gate_of[0]:2d}"
    lines = ["".join(row).rstrip() for row in grid]
    legend = [
        f"gate {i} at block ({x},{y})"
        for i, (x, y) in sorted(layout.gate_location_of.items())
    ]
    return "\n".join(lines + legend) + "\n"


_DIAGONAL_1Q = frozenset({GateKind.T, GateKind.Tdg, GateKind.S})
_NON_UNITARY = frozenset({GateKind.Measure, GateKind.PrepZ})


def reference_exchangeable(a: Instruction, b: Instruction) -> bool:
    """`depgraph.exchangeable` with the gate classes as sets of kinds."""
    if set(a.qubits).isdisjoint(b.qubits):
        return True
    if a.kind in _NON_UNITARY or b.kind in _NON_UNITARY:
        return False
    if a.kind.arity == 1 and b.kind.arity == 1:
        return a.kind is b.kind or (a.kind in _DIAGONAL_1Q and b.kind in _DIAGONAL_1Q)
    if a.target in b.controls or b.target in a.controls:
        return False
    if a.kind is not b.kind and a.target == b.target:
        return False
    return True


def reference_faces(adj: dict) -> list[list[tuple]]:
    """Face walks of a rotation system (clockwise neighbour lists), traced
    from each unseen half-edge in `node_key` order of its tail."""
    faces: list[list[tuple]] = []
    seen: set[tuple] = set()
    for u in sorted(adj, key=node_key):
        for v in adj[u]:
            if (u, v) in seen:
                continue
            walk: list[tuple] = []
            cur = (u, v)
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                tail, head = cur
                ring = adj[head]
                nxt = ring[(ring.index(tail) + 1) % len(ring)]
                cur = (head, nxt)
            faces.append(walk)
    return faces


def reference_route_through_faces(adj: dict, u, v) -> list[frozenset]:
    """`planar._route_through_faces` as Dijkstra with unit weights over a
    dual graph built from the face walks; heap ties go to the earlier push."""
    faces = reference_faces(adj)
    incident: dict = {}
    face_edges: dict[int, list[frozenset]] = {fi: [] for fi in range(len(faces))}
    edge_faces: dict[frozenset, set[int]] = {}
    for fi, walk in enumerate(faces):
        for a, b in walk:
            incident.setdefault(a, [])
            if fi not in incident[a]:
                incident[a].append(fi)
            edge = frozenset((a, b))
            if edge not in face_edges[fi]:
                face_edges[fi].append(edge)
            edge_faces.setdefault(edge, set()).add(fi)

    dist: dict[int, int] = {}
    back: dict[int, tuple[int, frozenset] | None] = {}
    heap: list[tuple[int, int, int]] = []
    for order, fi in enumerate(incident.get(u, [])):
        dist[fi] = 0
        back[fi] = None
        heapq.heappush(heap, (0, order, fi))
    target_faces = set(incident.get(v, []))
    goal = None
    counter = len(heap)
    while heap:
        d, _, fi = heapq.heappop(heap)
        if d > dist.get(fi, 1 << 30):
            continue
        if fi in target_faces:
            goal = fi
            break
        for edge in face_edges[fi]:
            if u in edge or v in edge:
                continue
            for gi in edge_faces[edge]:
                if gi != fi and d + 1 < dist.get(gi, 1 << 30):
                    dist[gi] = d + 1
                    back[gi] = (fi, edge)
                    counter += 1
                    heapq.heappush(heap, (d + 1, counter, gi))
    if goal is None:
        raise PlanarizeError(f"no dual route between {u} and {v}")
    crossed: list[frozenset] = []
    cur = goal
    while back[cur] is not None:
        prev, edge = back[cur]
        crossed.append(edge)
        cur = prev
    crossed.reverse()
    return crossed


def reference_component_faces(pg) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    """`PlanarizedGraph.component_faces` by a depth-first search from each
    unvisited node in `node_key` order, then one scan of every face walk per
    component."""
    remaining = set(pg.nodes)
    comps = []
    for start in sorted(pg.nodes, key=node_key):
        if start not in remaining:
            continue
        stack, comp = [start], []
        remaining.discard(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in pg.adj.get(cur, []):
                if nxt in remaining:
                    remaining.discard(nxt)
                    stack.append(nxt)
        comps.append(tuple(sorted(comp, key=node_key)))
    faces = reference_faces(pg.adj)
    grouped = []
    for comp in comps:
        comp_set = set(comp)
        grouped.append((comp, tuple(fi for fi, walk in enumerate(faces) if walk[0][0] in comp_set)))
    return tuple(grouped)


def reference_coordinates(mesh) -> dict:
    """`compact._coordinates` by a hand-rolled union-find of the lines and a
    Kahn pass over the constraint arcs that relaxes longest paths."""
    nodes = sorted({n for he in mesh.nxt for n in he}, key=node_key)
    index = {n: k for k, n in enumerate(nodes)}

    def compact_axis(vertical_dirs: tuple[int, int], forward: int) -> dict:
        parent = list(range(len(nodes)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (a, b), d in mesh.dirs.items():
            if d in vertical_dirs:
                ra, rb = find(index[a]), find(index[b])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        arcs: dict[int, set[int]] = {}
        indeg: dict[int, int] = {}
        chains = sorted({find(k) for k in range(len(nodes))})
        for ch in chains:
            arcs[ch] = set()
            indeg[ch] = 0
        for (a, b), d in mesh.dirs.items():
            if d == forward:
                ca, cb = find(index[a]), find(index[b])
                if cb not in arcs[ca]:
                    arcs[ca].add(cb)
                    indeg[cb] += 1
        coord = {ch: 0 for ch in chains}
        queue = sorted(ch for ch in chains if indeg[ch] == 0)
        order = []
        while queue:
            ch = queue.pop(0)
            order.append(ch)
            for other in sorted(arcs[ch]):
                coord[other] = max(coord[other], coord[ch] + 1)
                indeg[other] -= 1
                if indeg[other] == 0:
                    queue.append(other)
        if len(order) != len(chains):
            raise LayoutError("cyclic compaction constraints")
        return {n: coord[find(index[n])] for n in nodes}

    xs = compact_axis((_NORTH, _SOUTH), _EAST)
    ys = compact_axis((_EAST, _WEST), _SOUTH)
    return {n: (xs[n], ys[n]) for n in nodes}
