"""Shared test oracles: exact unitaries, bend-minimum MILP, brute-force and
MILP stage schedules, the interval-count Hall check, networkx's network simplex, the all-pairs dataflow
rule and the set-based exchangeability rule, the full-grid layout text,
hand-rolled face walks, dual routing, component grouping, compaction on a
label-keyed mesh with networkx lines and longest paths, the macroblock
layer with one object per cell (tile, route, simulate, `layout.json`, the
row-wise `layout.txt` and `layout.svg`), simulation by a safe-interval
search and the processing-order bound on it, random inputs, and queries on
pipeline results that only tests ask (reachability, flow-graph degree,
corner angles, the channel graph, a leg's straights and turns)."""

from __future__ import annotations

import heapq
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import itemgetter

import networkx as nx
import numpy as np

from ionpd import orthogonal, planar
from ionpd.artifact import render_json
from ionpd.compact import _EAST, _NORTH, _SOUTH, _WEST, tighten
from ionpd.depgraph import DataflowGraph, exchangeable
from ionpd.drawing import OrthogonalDrawing, Point, validate_drawing
from ionpd.gates import GateKind, Instruction, Netlist, make_netlist
from ionpd.latency import (
    InstructionTiming, LatencyModel, LatencyReport, Movement, candidates, host_sides, lay_out,
    simulate,
)
from ionpd.lrplanarity import planar_rings
from ionpd.macrolayout import (
    DIRS,
    OPPOSITE,
    GridMap,
    LayoutError,
    MacroLayout,
    Macroblock,
    RoutePlan,
    RouteStep,
    _direction,
    place_qubits,
    route,
)
from ionpd.orthogonal import OrthoRep, orthogonalize
from ionpd.planar import Node, PlanarizeError, node_key, planarize
from ionpd.qfg import QubitFlowGraph, build_qfg
from ionpd.solver import Schedule, schedule_netlist

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


def full_pipeline(netlist: Netlist, model: LatencyModel | None = None):
    """`ionpd latency` on `netlist`, simulated under `model`: the schedule,
    flow graph, drawing, layout and latency report."""
    schedule = schedule_netlist(netlist)
    qfg = build_qfg(netlist, schedule)
    drawing, layout = lay_out(netlist, qfg)
    plan = route(qfg, drawing, layout)
    report = simulate(netlist, qfg, layout, plan, place_qubits(qfg, layout), model)
    return schedule, qfg, drawing, layout, report


def lay_out_steps(netlist: Netlist, qfg: QubitFlowGraph):
    """`lay_out` one step at a time up to its choice of drawing, each
    drawing passing `validate_drawing` before and after tightening: the
    planarized graph, the representation `orthogonalize` gives, and
    `latency.candidates` drawn, each as (name, tightened drawing, host
    sides). `lay_out` keeps the first with the least `_critical_path`."""
    pg = planarize(qfg)
    rep = orthogonalize(pg)
    drawn = []
    for name, drawing in candidates(qfg, pg, rep):
        assert validate_drawing(drawing) == []
        sides = host_sides(netlist, qfg, drawing)
        drawing = tighten(drawing, sides)
        assert validate_drawing(drawing) == []
        drawn.append((name, drawing, sides))
    return pg, rep, drawn


def synth_qfg(nodes: list[int], pairs: list[tuple[int, int]]) -> QubitFlowGraph:
    """Flow-graph-shaped test input: stages equal node ids, one qubit per edge."""
    edges = tuple(
        (min(a, b), max(a, b), q) for q, (a, b) in enumerate(pairs)
    )
    first = {q: i for i, _, q in edges}
    return QubitFlowGraph({n: n for n in nodes}, edges, first)


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
    return build_qfg(netlist, Schedule(stage_of, 2 * layers))


def dense_netlist(rng: random.Random, max_qubits: int = 20, max_layers: int = 8) -> Netlist:
    """Random layers on 4 to `max_qubits` qubits, 2 to `max_layers` of them:
    a one-qubit gate on every qubit, then two-qubit gates on a random
    matching that leaves out up to two qubits, and one more at an odd
    count. A qubit left out waits a stage between its one-qubit gates."""
    qubits = rng.randint(4, max_qubits)
    gates = []
    for _ in range(rng.randint(2, max_layers)):
        for q in range(qubits):
            gates.append((rng.choice([GateKind.H, GateKind.T, GateKind.X, GateKind.S]), (), q))
        order = list(range(qubits))
        rng.shuffle(order)
        del order[: rng.randint(0, 2)]
        for a, b in zip(order[::2], order[1::2]):
            gates.append((rng.choice([GateKind.CX, GateKind.CZ]), (a,), b))
    return make_netlist(gates)


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


def random_mixed_netlist(rng: random.Random, max_instr: int = 10, max_qubits: int = 6) -> Netlist:
    """`random_netlist` over every gate kind, Toffoli, Measure and PrepZ
    included, on at least three qubits."""
    kinds = list(GateKind)
    qubits = rng.randint(3, max_qubits)
    gates = []
    for _ in range(rng.randint(1, max_instr)):
        kind = kinds[rng.randrange(len(kinds))]
        *controls, target = rng.sample(range(qubits), kind.arity)
        gates.append((kind, tuple(controls), target))
    return make_netlist(gates)


def chained_netlist(
    rng: random.Random, max_pairs: int = 10, max_qubits: int = 6, max_run: int = 4
) -> Netlist:
    """Random two-qubit gates, each after a run of up to `max_run` one-qubit
    gates on each of its qubits: the flow graph's degree-2 chains are long,
    so faces are long and the planar greedy meets many pendant paths. No
    two neighbours in a run commute, so the runs stay chains and the exact
    scheduler has little to search."""
    qubits = rng.randint(2, max_qubits)
    singles = [kind for kind in _RANDOM_KINDS if kind.arity == 1]
    pairs = [kind for kind in _RANDOM_KINDS if kind.arity == 2]
    gates = []
    for _ in range(rng.randint(1, max_pairs)):
        a, b = rng.sample(range(qubits), 2)
        for q in (a, b):
            prev = None
            for _ in range(rng.randint(0, max_run)):
                prev = rng.choice([
                    kind for kind in singles
                    if prev is None or not (kind is prev or kind.diagonal_1q and prev.diagonal_1q)
                ])
                gates.append((prev, (), q))
        gates.append((rng.choice(pairs), (a,), b))
    return make_netlist(gates)


def all_pairs_dataflow(netlist: Netlist) -> nx.DiGraph:
    """The dependency DAG by its definition: an edge from every earlier
    instruction that shares a qubit and is not exchangeable, implied edges
    included. `build_dataflow` keeps its transitive reduction."""
    instrs = netlist.instructions
    dag = nx.DiGraph()
    dag.add_nodes_from(i.id for i in instrs)
    dag.add_edges_from(
        (a.id, b.id)
        for k, b in enumerate(instrs)
        for a in instrs[:k]
        if set(a.qubits) & set(b.qubits) and not exchangeable(a, b)
    )
    return dag


def reachable(graph: DataflowGraph, src: int, dst: int) -> bool:
    """True iff dst depends (possibly transitively) on src."""
    successors: dict[int, list[int]] = {}
    for j, i in graph.edges:
        successors.setdefault(j, []).append(i)
    stack = [src]
    seen = set()
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        for nxt in successors.get(cur, ()):
            if nxt <= dst and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def bend_minimum_milp(pg, rep) -> int:
    """Exact per-embedding bend minimum (HiGHS MILP over the face equations)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    total = 0
    faces = rep.faces
    for comp, _ in pg.components:
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
        if not res.success:
            raise RuntimeError(f"bend MILP failed: {res.message}")
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


def _stage_milp_rows(netlist: Netlist, graph: DataflowGraph, horizon: int):
    """Variables x[i, l] (instruction i in stage l) and the rows of the stage
    assignment at `horizon`, built from the netlist and the full edge set,
    not from the solver's windows or the ILP export."""
    from scipy.optimize import LinearConstraint

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
    return col, LinearConstraint(np.array(rows), lower, upper)


def stage_milp_status(netlist: Netlist, graph: DataflowGraph, horizon: int) -> int:
    """HiGHS status of the stage assignment at `horizon`: 0 feasible,
    2 infeasible."""
    from scipy.optimize import Bounds, milp

    col, constraints = _stage_milp_rows(netlist, graph, horizon)
    res = milp(
        c=np.zeros(len(col)),
        constraints=constraints,
        bounds=Bounds(0, 1),
        integrality=np.ones(len(col)),
    )
    return res.status


def lexmin_stages_milp(netlist: Netlist, graph: DataflowGraph, horizon: int) -> dict[int, int]:
    """The lexicographically smallest stage vector at `horizon` by HiGHS: in
    id order, minimise each instruction's stage with the earlier ones fixed."""
    from scipy.optimize import Bounds, milp

    col, constraints = _stage_milp_rows(netlist, graph, horizon)
    lower = np.zeros(len(col))
    stage_of: dict[int, int] = {}
    for instr in netlist.instructions:
        cost = np.zeros(len(col))
        for l in range(1, horizon + 1):
            cost[col[instr.id, l]] = l
        res = milp(
            c=cost,
            constraints=constraints,
            bounds=Bounds(lower, 1),
            integrality=np.ones(len(col)),
        )
        if res.status != 0:
            raise RuntimeError(f"lex-min stage MILP failed: {res.message}")
        stage_of[instr.id] = round(res.fun)
        lower[col[instr.id, stage_of[instr.id]]] = 1
    return stage_of


def reference_hall(ws, lo: list[int], hi: list[int], taken: set[int]) -> bool:
    """Hall's condition for the variables `ws` on one qubit by counting: no
    interval [a, b] holds the bounds of more of them than it has free
    stages. A variable whose bounds met counts as a blocked stage instead,
    which is the same condition with fewer intervals to test. Bounds must
    not rest on a taken stage."""
    if len(ws) < 3:
        if len(ws) < 2:
            return True
        v, w = ws
        return not lo[v] == hi[v] == lo[w] == hi[w]
    spans = Counter(zip(map(lo.__getitem__, ws), map(hi.__getitem__, ws)))
    fixed = [a for a, b in spans if a == b]
    for a in fixed:
        if spans.pop((a, a)) > 1:
            return False  # two variables fixed to one stage
    if not spans:
        return True
    blocked = sorted(taken.union(fixed))
    ends = sorted({b for _, b in spans})
    end_index = {b: j for j, b in enumerate(ends)}
    inside = [0] * len(ends)  # variables with lo >= a, by their hi
    for a, group in itertools.groupby(sorted(spans, reverse=True), key=itemgetter(0)):
        for span in group:
            inside[end_index[span[1]]] += spans[span]
        count = 0
        before = bisect_left(blocked, a)
        for j in range(bisect_left(ends, a), len(ends)):
            count += inside[j]
            b = ends[j]
            if count > b - a + 1 - (bisect_right(blocked, b) - before):
                return False
    return True


def networkx_min_cost_flow(
    node_count: int, arcs: list[tuple[int, int, int, int]], demand: list[int]
) -> list[int]:
    """`orthogonal.NetworkSimplex` flows by networkx's network simplex on a
    multigraph keyed by arc index; raises `nx.NetworkXUnfeasible`."""
    network = nx.MultiDiGraph()
    network.add_nodes_from((node, {"demand": demand[node]}) for node in range(node_count))
    for key, (u, v, cap, cost) in enumerate(arcs):
        network.add_edge(u, v, key, capacity=cap, weight=cost)
    _, flow = nx.network_simplex(network)
    return [flow[u][v][key] for key, (u, v, _, _) in enumerate(arcs)]


def planar_rotation(graph) -> dict | None:
    """`lrplanarity.planar_rings` on a graph given as a mapping from each
    node to its neighbours, as an `nx.Graph` is: the clockwise neighbour
    list of every node, in the graph's node order, or None if not planar.
    Self-loops are ignored."""
    labels = list(graph)
    index = {v: k for k, v in enumerate(labels)}
    rings = planar_rings([[index[w] for w in graph[v]] for v in labels])
    if rings is None:
        return None
    return {labels[v]: [labels[w] for w in ring] for v, ring in enumerate(rings)}


def one_sided_bends(rep: OrthoRep) -> bool:
    """No edge bends both ways: of every half-edge and its twin, at most one
    carries bends."""
    return all(min(n, rep.bends.get((v, u), 0)) == 0 for (u, v), n in rep.bends.items())


def flow_costs(pg):
    """The vertex degrees and turn prices `orthogonalize` gives its flow."""
    degree = {v: len(pg.adj.get(v, [])) for v in pg.nodes}
    return degree, orthogonal._wide_costs(pg, degree)


def bend_minimal(pg):
    """The flow's representation, before `orthogonalize` balances its
    rectangles."""
    return orthogonal._AngleFlow(pg, *flow_costs(pg)).rep(0)


def spied_rehangs(monkeypatch):
    """The pendant paths `planar._FaceBook` moves from now on, each as
    (path, face): the list fills as the greedy or a test re-hangs them."""
    rehang = planar._FaceBook._rehang
    moves = []

    def spy(book, path, face):
        if book.face_of[(path[-1], path[-2])] != face:
            moves.append((list(path), face))
        rehang(book, path, face)

    monkeypatch.setattr(planar._FaceBook, "_rehang", spy)
    return moves


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


def straights_and_turns(plan: RoutePlan, edge: tuple) -> tuple[int, int]:
    """Straight-move units (three per block) and turn count of one leg."""
    steps = plan.steps[edge]
    turns = sum(1 for s in steps if s.turn)
    return 3 * (len(steps) - turns), turns


def reference_layout_text(layout: MacroLayout) -> str:
    """`MacroLayout.to_text` by the full bounding-box grid of cells, each
    as wide as the longest gate id and at least two characters, every row
    right-stripped."""
    if not layout.blocks:
        return "(empty layout)\n"
    ids = [str(block.gate_of[0]) for block in layout.blocks.values() if block.gate_of]
    width = max(len(i) for i in ids + ["00"])
    xs = [x for x, _ in layout.blocks]
    ys = [y for _, y in layout.blocks]
    x0, y0 = min(xs), min(ys)
    grid = [[" " * width] * ((max(xs) - x0 + 1) * 3) for _ in range((max(ys) - y0 + 1) * 3)]
    for (bx, by), block in layout.blocks.items():
        cx, cy = (bx - x0) * 3, (by - y0) * 3
        for dy in range(3):
            for dx in range(3):
                grid[cy + dy][cx + dx] = "#" * width
        grid[cy + 1][cx + 1] = "." * width
        for port in block.ports:
            dx, dy = DIRS[port]
            grid[cy + 1 + dy][cx + 1 + dx] = "." * width
        if block.gate_of:
            grid[cy + 1][cx + 1] = str(block.gate_of[0]).rjust(width)
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
    """`PlanarizedGraph.components` by a depth-first search from each
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


class _ReferenceMesh:
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


def _reference_bend_values(rep: OrthoRep, u: Node, v: Node) -> list[int]:
    """Bend angles along (u, v) as seen from the (u, v) walk side."""
    convex = rep.bends.get((u, v), 0)
    reflex = rep.bends.get((v, u), 0)
    if convex and reflex:
        raise LayoutError(f"bends on {u}-{v} are not one-sided")
    return [1] * convex + [3] * reflex


def _reference_build_mesh(
    rep: OrthoRep, face_idx: tuple[int, ...], names: "_ReferenceNames"
) -> tuple[_ReferenceMesh, dict[tuple[Node, Node], list[str]], dict[tuple, int]]:
    """Subdivide bends and link the refined face walks of one component."""
    mesh = _ReferenceMesh()
    bend_nodes: dict[tuple[Node, Node], list[str]] = {}
    angles_after: dict[tuple, int] = {}

    for fi in face_idx:
        walk = rep.faces[fi]
        for u, v in walk:
            canon = (u, v) if node_key(u) <= node_key(v) else (v, u)
            if canon not in bend_nodes:
                count = rep.bends.get((u, v), 0) + rep.bends.get((v, u), 0)
                bend_nodes[canon] = [names.fresh("b") for _ in range(count)]

    for fi in face_idx:
        walk = rep.faces[fi]
        refined: list[tuple] = []
        for ci, (u, v) in enumerate(walk):
            canon = (u, v) if node_key(u) <= node_key(v) else (v, u)
            seq = bend_nodes[canon]
            values = _reference_bend_values(rep, *canon)
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


def _reference_assign_directions(mesh: _ReferenceMesh, angles_after: dict[tuple, int]) -> None:
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


class _ReferenceNames:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"_{prefix}{self.counter}"


def _reference_add_border(mesh: _ReferenceMesh, names: _ReferenceNames) -> None:
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


def _reference_split_edge(mesh: _ReferenceMesh, front: tuple, m: str) -> None:
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


def _reference_refine(mesh: _ReferenceMesh, names: _ReferenceNames) -> None:
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
        _reference_split_edge(mesh, front, m)
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


def networkx_coordinates(mesh: _ReferenceMesh) -> dict[Node, Point]:
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


def _reference_component_positions(
    rep: OrthoRep, comp: tuple[Node, ...], face_idx: tuple[int, ...], names: _ReferenceNames
) -> tuple[dict[Node, Point], dict[tuple[Node, Node], list[str]]]:
    if not face_idx:
        return {comp[0]: (0, 0)}, {}
    mesh, bend_nodes, angles_after = _reference_build_mesh(rep, face_idx, names)
    _reference_assign_directions(mesh, angles_after)
    _reference_add_border(mesh, names)
    _reference_refine(mesh, names)
    coords = networkx_coordinates(mesh)
    keep = {
        n: coords[n]
        for n in coords
        if not (isinstance(n, str) and n.startswith(("_c", "_B", "_r")))
    }
    return keep, bend_nodes


def reference_compact(pg, rep) -> OrthogonalDrawing:
    """`compact.compact` on a mesh keyed by label tuples, sorted through
    `node_key` wherever order matters, with networkx lines and longest paths."""
    names = _ReferenceNames()
    positions: dict[Node, Point] = {}
    bend_map: dict[tuple[Node, Node], list[str]] = {}
    offset = 0
    for comp, face_idx in pg.components:
        local, bends = _reference_component_positions(rep, comp, face_idx, names)
        xs = [p[0] for p in local.values()]
        ys = [p[1] for p in local.values()]
        dx, dy = offset - min(xs), -min(ys)
        for node, (x, y) in local.items():
            positions[node] = (x + dx, y + dy)
        bend_map.update(bends)
        offset = max(p[0] for p in positions.values()) + 2

    routes: dict[tuple[int, int, int], tuple[Point, ...]] = {}
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

    node_pos = {n: positions[n] for n in positions if isinstance(n, int)}
    crossing_pts = tuple(
        positions[c] for c in sorted(pg.crossings) if c in positions
    )
    return OrthogonalDrawing(node_pos, routes, crossing_pts)


def label_mesh(mesh) -> "_ReferenceMesh":
    """A `compact._Mesh` as the label-keyed mesh of `reference_compact`: its
    live half-edges as (tail, head) labels, with their links and directions."""
    ref = _ReferenceMesh()
    for h, after in enumerate(mesh.nxt):
        if after >= 0:
            ref.link(mesh.name(h), mesh.name(after))
            ref.dirs[mesh.name(h)] = mesh.dir[h]
    return ref


def _reference_polyline(points: tuple[Point, ...]) -> tuple[list[Point], list[str]]:
    """A scaled polyline's full cell sequence and the direction from each
    cell to the next."""
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


def _reference_grid(drawing: OrthogonalDrawing, widths: tuple[dict[int, int], dict[int, int]]) -> GridMap:
    """Line g at g blocks, plus width - 1 blocks for each widened gap
    between line 0 and line g, on every line from min(0, lowest used) to the
    highest."""
    maps = []
    for axis in (0, 1):
        used = [p[axis] for p in drawing.node_pos.values()]
        used += [p[axis] for pts in drawing.routes.values() for p in pts]
        if not used:
            maps.append({})
            continue
        extra = sorted(gap for gap, width in widths[axis].items() for _ in range(width - 1))
        maps.append({
            g: g + bisect_left(extra, g) - bisect_left(extra, 0)
            for g in range(min(0, *used), max(used) + 1)
        })
    return GridMap(*maps)


def reference_tile(drawing: OrthogonalDrawing) -> MacroLayout:
    """`macrolayout.tile` with a `set` of port names per cell, one
    `Macroblock` built per cell, and each grid line's block coordinate
    counted from the widened gaps: every gap 1 block wide, and each gap that
    a pass names one block wider, up to 3, until a pass names none."""
    widths: tuple[dict[int, int], dict[int, int]] = ({}, {})
    while True:
        grid = _reference_grid(drawing, widths)
        layout = _reference_tile_on(drawing, grid)
        if isinstance(layout, MacroLayout):
            return layout
        sides, stuck = layout
        grown = False
        for axis, gap in {_reference_gap(drawing, instr, port) for instr, port in sides}:
            if widths[axis].get(gap, 1) < 3:
                widths[axis][gap] = widths[axis].get(gap, 1) + 1
                grown = True
        if not grown:
            x, y = drawing.node_pos[stuck[0]]
            raise LayoutError(f"no free gate block next to junction at {(grid.xs[x], grid.ys[y])}")


def _reference_gap(drawing: OrthogonalDrawing, instr: int, port: str) -> tuple[int, int]:
    """(axis, gap) of the gap that node `instr`'s `port` opens into."""
    x, y = drawing.node_pos[instr]
    return {"E": (0, x), "W": (0, x - 1), "S": (1, y), "N": (1, y - 1)}[port]


def _reference_tile_on(drawing: OrthogonalDrawing, grid: GridMap):
    """The layout at `grid`'s gap widths, or the (instruction, port) sides
    that need a wider gap and the corners and junctions without a free
    straight block beside them: a trap's cap that meets a route cell or
    another node's cell, and every port of a node without a free host."""
    def at(p: Point) -> Point:
        return grid.xs[p[0]], grid.ys[p[1]]

    demands: dict[Point, set[str]] = {}
    for key, pts in sorted(drawing.routes.items()):
        cells, dirs = _reference_polyline(tuple(at(p) for p in pts))
        for a, b, d in zip(cells, cells[1:], dirs):
            demands.setdefault(a, set()).add(d)
            demands.setdefault(b, set()).add(OPPOSITE[d])

    node_cell = {i: at(p) for i, p in drawing.node_pos.items()}
    blocks: dict[Point, set[str]] = {cell: set(ports) for cell, ports in demands.items()}
    gate_cells: dict[int, Point] = {}
    gate_marks: dict[Point, list[int]] = {}
    sides: list[tuple[int, str]] = []
    stuck: list[int] = []

    for instr in sorted(node_cell):
        cell = node_cell[instr]
        ports = blocks.get(cell, set())
        straight = ports in ({"E", "W"}, {"N", "S"})
        if len(ports) <= 1 or straight:
            if not ports:
                trap = {"E", "W"}
            elif len(ports) == 1:
                trap = ports | {OPPOSITE[next(iter(ports))]}
            else:
                trap = ports
            blocks[cell] = trap
            gate_cells[instr] = cell
            gate_marks.setdefault(cell, []).append(instr)
            for cap in sorted(trap - ports):
                dx, dy = DIRS[cap]
                neighbour = (cell[0] + dx, cell[1] + dy)
                if neighbour in demands or neighbour in node_cell.values():
                    sides.append((instr, cap))
                else:
                    blocks.setdefault(neighbour, set()).add(OPPOSITE[cap])
            continue
        hosts = [
            (cell[0] + DIRS[d][0], cell[1] + DIRS[d][1])
            for d in ("E", "S", "W", "N")
            if d in ports
        ]
        free = [
            host for host in hosts
            if blocks.get(host) in ({"E", "W"}, {"N", "S"})
            and host not in gate_marks
            and host not in node_cell.values()
        ]
        if not free:
            stuck.append(instr)
            sides += [(instr, port) for port in ports]
            continue
        gate_cells[instr] = free[0]
        gate_marks.setdefault(free[0], []).append(instr)

    if sides:
        return sides, stuck
    built = {
        cell: Macroblock(frozenset(ports), tuple(gate_marks.get(cell, ())))
        for cell, ports in blocks.items()
    }
    layout = MacroLayout(built, gate_cells, node_cell, grid)
    layout.check_ports()
    return layout


def reference_layout_json(layout: MacroLayout) -> str:
    """`MacroLayout.to_json` as `render_json` of the whole payload, one dict
    per block."""
    payload = {
        "blocks": [
            {
                "x": x,
                "y": y,
                "kind": block.kind,
                "ports": sorted(block.ports),
                "gates": list(block.gate_of),
            }
            for (x, y), block in sorted(layout.blocks.items())
        ],
        "gate_locations": [
            {"instruction": i, "x": x, "y": y}
            for i, (x, y) in sorted(layout.gate_location_of.items())
        ],
    }
    return render_json(payload)


def reference_layout_svg(layout: MacroLayout) -> str:
    """`MacroLayout.to_svg` with a set of open cells and nine `<rect>`
    strings built per block."""
    cell = 10
    if not layout.blocks:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>\n'
    xs = [x for x, _ in layout.blocks]
    ys = [y for _, y in layout.blocks]
    x0, y0 = min(xs), min(ys)
    width = (max(xs) - x0 + 1) * 3 * cell
    height = (max(ys) - y0 + 1) * 3 * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for (bx, by), block in sorted(layout.blocks.items()):
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


def reference_layout_text_rows(layout: MacroLayout) -> str:
    """`MacroLayout.to_text` one block row at a time with glyphs chosen per
    port and a gate field two characters wide: the same text while every
    gate id has at most two digits."""
    if not layout.blocks:
        return "(empty layout)\n"
    x0 = min(x for x, _ in layout.blocks)
    rows: dict[int, list[tuple[int, Macroblock]]] = {}
    for (x, y), block in layout.blocks.items():
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
        for i, (x, y) in sorted(layout.gate_location_of.items())
    ]
    return "\n".join(lines + legend) + "\n"


def reference_route(qfg: QubitFlowGraph, drawing: OrthogonalDrawing, layout: MacroLayout) -> RoutePlan:
    """`macrolayout.route` with a full cell and direction list per edge and
    turn tags from one comparison per step."""
    steps: dict = {}
    for key in qfg.edges:
        i, j, _ = key
        if key not in drawing.routes:
            raise LayoutError(f"edge {key} has no drawn route")
        xs, ys = layout.grid.xs, layout.grid.ys
        cells, dirs = _reference_polyline(tuple((xs[x], ys[y]) for x, y in drawing.routes[key]))
        start = layout.gate_location_of[i]
        end = layout.gate_location_of[j]
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
        turns = [d_in != d_out for d_in, d_out in zip(dirs, dirs[1:])] + [False]
        steps[key] = tuple(RouteStep(c, t) for c, t in zip(cells[1:], turns))
    return RoutePlan(steps)


def reference_simulate(netlist, qfg, layout, routes, placement, model=None):
    """Congestion settled in processing order: each ion waits at a cell
    until every ion processed before it has left it, even one that reaches
    it later. No instruction finishes later under `latency.simulate`. Writes
    both cells of every step into the free times and counts straights and
    turns in a second pass per leg."""
    m = model or LatencyModel()

    qubit_free: dict = {}
    qubit_loc: dict = {}
    cell_free: dict = {}
    gate_free: dict = {}
    last_use: dict = {}
    timings = []
    movements = []
    movement_time: dict = {}
    congestion = 0.0

    order = sorted(netlist.instructions, key=lambda i: (qfg.stage_of[i.id], i.id))
    for instr in order:
        target_cell = layout.gate_location_of.get(instr.id)
        if target_cell is None:
            raise ValueError(f"instruction {instr.id} has no gate location")
        arrivals = []
        for qubit in instr.qubits:
            if qubit not in qubit_loc:
                if qubit not in placement:
                    raise ValueError(f"qubit q{qubit} has no initial placement")
                qubit_loc[qubit] = placement[qubit]
                qubit_free[qubit] = 0.0
            t = qubit_free[qubit]
            if qubit_loc[qubit] != target_cell:
                edge = (last_use.get(qubit, 0), instr.id, qubit)
                leg = routes.steps.get(edge)
                if leg is None:
                    raise ValueError(f"missing route for qubit q{qubit} into {instr.id}")
                delay = 0.0
                prev_cell = qubit_loc[qubit]
                for k, step in enumerate(leg):
                    final = k == len(leg) - 1
                    if not final:
                        ready = cell_free.get(step.cell, 0.0)
                        if ready > t:
                            delay += ready - t
                            t = ready
                    t += m.turn if step.turn else 3 * m.straight_move
                    cell_free[prev_cell] = max(cell_free.get(prev_cell, 0.0), t)
                    if not final:
                        cell_free[step.cell] = max(cell_free.get(step.cell, 0.0), t)
                    prev_cell = step.cell
                straights, turns = straights_and_turns(routes, edge)
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


def _free_intervals(held: list) -> list[tuple[float, float]]:
    """The (from, to) intervals in which no interval of `held` holds a cell."""
    free, since = [], -math.inf
    for start, end, _ in sorted(held):
        if start > since:
            free.append((since, start))
        since = max(since, end)
    free.append((since, math.inf))
    return free


def _safe_interval_entries(free: list, costs: list, ready: float) -> list[float]:
    """Earliest-arrival search over (cell, free interval) states of one leg
    (safe-interval path planning, Phillips & Likhachev 2011): `free[k]` are
    the free intervals of the leg's k-th cell and `costs[k]` the step into
    it. Leaving cell k for cell k + 1 in free interval g2 starts at the
    later of the ion's full entry into k and the start of g2, and must be
    over, the ion fully in k + 1, before either interval ends. States are
    expanded earliest first; returns the start of each step on the path to
    the earliest arrival."""
    last = len(costs) - 1
    best: dict = {}
    parent: dict = {}
    heap: list = []
    for g, (since, until) in enumerate(free[0]):
        t = max(ready, since)
        if t + costs[0] <= until:
            best[0, g] = t
            heapq.heappush(heap, (t, 0, g))
    while heap:
        t, k, g = heapq.heappop(heap)
        if best[k, g] < t:
            continue
        if k == last:
            state, path = (k, g), []
            while state is not None:
                path.append(best[state])
                state = parent.get(state)
            return path[::-1]
        until = free[k][g][1]
        for g2, (since2, until2) in enumerate(free[k + 1]):
            t2 = max(t + costs[k], since2)
            if t2 + costs[k + 1] <= min(until, until2) and t2 < best.get((k + 1, g2), math.inf):
                best[k + 1, g2] = t2
                parent[k + 1, g2] = (k, g)
                heapq.heappush(heap, (t2, k + 1, g2))
    raise RuntimeError("no schedule for a leg")


def _book_checked(held: list, start: float, end: float, kind: str) -> None:
    """Append a stay of `kind` ("pass" or "rest") to a cell's intervals,
    after checking it against every one of them: only rests may overlap,
    where partner ions meet in their gate cell."""
    for other_start, other_end, other_kind in held:
        if start < other_end and other_start < end and "pass" in (kind, other_kind):
            raise RuntimeError(
                f"{kind} {start}..{end} overlaps {other_kind} {other_start}..{other_end}"
            )
    held.append((start, end, kind))


def reference_simulate_in_time(netlist, qfg, layout, routes, placement, model=None):
    """`latency.simulate` by a search per leg over (cell, free interval)
    states on explicit per-cell interval lists, each booking checked
    against every interval of its cell."""
    m = model or LatencyModel()
    order = sorted(netlist.instructions, key=lambda i: (qfg.stage_of[i.id], i.id))
    gate_cell = {instr.id: layout.gate_location(instr.id) for instr in order}
    last_gate_at = {gate_cell[instr.id]: pos for pos, instr in enumerate(order)}

    qubit_free: dict = {}
    qubit_loc: dict = {}
    rest_since: dict = {}
    held: dict = {}
    gate_free: dict = {}
    last_use: dict = {}
    timings = []
    movements = []
    movement_time: dict = {}
    congestion = 0.0

    for pos, instr in enumerate(order):
        target_cell = gate_cell[instr.id]
        arrivals = []
        for qubit in instr.qubits:
            if qubit not in qubit_loc:
                if qubit not in placement:
                    raise LayoutError(f"qubit q{qubit} has no initial placement")
                qubit_loc[qubit] = placement[qubit]
                qubit_free[qubit] = rest_since[qubit] = 0.0
            ready = qubit_free[qubit]
            arrival = ready
            if qubit_loc[qubit] != target_cell:
                edge = (last_use.get(qubit, 0), instr.id, qubit)
                leg = routes.steps.get(edge)
                if leg is None:
                    raise LayoutError(f"missing route for qubit q{qubit} into {instr.id}")
                cells = [step.cell for step in leg]
                for cell in cells[:-1]:
                    resting = any(qubit_loc.get(q, home) == cell for q, home in placement.items())
                    if resting or last_gate_at.get(cell, -1) >= pos:
                        raise LayoutError(f"route for qubit q{qubit} passes through {cell}")
                costs = [m.turn if step.turn else 3 * m.straight_move for step in leg]
                free = [_free_intervals(held.get(cell, [])) for cell in cells[:-1]]
                enter = _safe_interval_entries([*free, [(-math.inf, math.inf)]], costs, ready)
                for k, cell in enumerate(cells[:-1]):
                    stay = (enter[k], enter[k + 1] + costs[k + 1])
                    _book_checked(held.setdefault(cell, []), *stay, "pass")
                _book_checked(
                    held.setdefault(qubit_loc[qubit], []), rest_since[qubit], enter[0] + costs[0], "rest"
                )
                arrival = enter[-1] + costs[-1]
                straights, turns = straights_and_turns(routes, edge)
                moving = straights * m.straight_move + turns * m.turn
                delay = arrival - ready - moving
                movements.append(Movement(qubit, edge, straights, turns, delay))
                movement_time[qubit] = movement_time.get(qubit, 0.0) + moving
                congestion += delay
                qubit_loc[qubit] = target_cell
                rest_since[qubit] = arrival
            arrivals.append(arrival)
        start = max([*arrivals, gate_free.get(target_cell, 0.0)])
        finish = start + m.gate_cost(instr.kind)
        gate_free[target_cell] = finish
        for qubit in instr.qubits:
            qubit_free[qubit] = finish
            last_use[qubit] = instr.id
        timings.append(InstructionTiming(instr.id, start, finish))

    total = max((t.finish for t in timings), default=0.0)
    return LatencyReport(total, tuple(timings), tuple(movements), movement_time, congestion)
