import hashlib
import importlib
import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from helpers import (
    angle_at,
    bend_minimal,
    bend_minimum_milp,
    chained_netlist,
    flow_costs,
    label_mesh,
    layered_flow_graph,
    networkx_coordinates,
    networkx_min_cost_flow,
    one_sided_bends,
    planar_rotation,
    random_degree4_graph,
    random_mixed_netlist,
    reference_compact,
    reference_component_faces,
    reference_coordinates,
    reference_faces,
    reference_route_through_faces,
    spied_rehangs,
    synth_qfg,
)
from ionpd import orthogonal, planar
from ionpd.circuits import generate_cat_circuit
from ionpd.compact import compact, tighten
from ionpd.decompose import Library, decompose
from ionpd.drawing import OrthogonalDrawing, validate_drawing
from ionpd.gates import GateKind
from ionpd.latency import host_sides
from ionpd.lrplanarity import planar_rings
from ionpd.macrolayout import DIRS, LayoutError, room_sides, tile
from ionpd.orthogonal import NetworkSimplex, balance_corners, orthogonalize
from ionpd.planar import PlanarizeError, node_key, planarize
from ionpd.qasm import parse_qasm, render_qasm
from ionpd.qfg import QubitFlowGraph, build_qfg
from ionpd.solver import schedule_netlist

compact_module = importlib.import_module("ionpd.compact")  # `ionpd.compact` is the function
ROOT = Path(__file__).resolve().parent.parent
LAYERED16 = ROOT / "tests" / "fixtures" / "layered16.qasm"
# sha256 of the fixture's planarization (embedding, chains, crossings): it
# changes only if an embedding does
LAYERED16_PLANARIZATION = "8036adbbcde5e6f73d5f26d8e305850adcadcb0fbdd26246f7c737452d36caa2"
# sha256 of the fixture's orthogonal representation (angles and bends): it
# changes only if a min-cost flow does
LAYERED16_ORTHOREP = "ce7f71563404654b2602d34a1c2129309d60cc4ade1fda923695723df2ee1eda"


def draw(qfg):
    pg = planarize(qfg)
    rep = orthogonalize(pg)
    return pg, rep, compact(pg, rep)


def drawn_as_cli(netlist):
    """The flow graph, the drawing `lay_out` compacts before tightening, and
    the host sides it tiles with."""
    qfg = build_qfg(netlist, schedule_netlist(netlist))
    _, _, drawing = draw(qfg)
    return qfg, drawing, host_sides(netlist, qfg, drawing)


def naive_layered_bends(qfg) -> int:
    """Baseline router: stage layers, L-shaped edges, one bend per dogleg."""
    by_stage: dict[int, list[int]] = {}
    for node in sorted(qfg.nodes):
        by_stage.setdefault(qfg.stage_of[node], []).append(node)
    pos = {}
    for stage in sorted(by_stage):
        for idx, node in enumerate(by_stage[stage]):
            pos[node] = (idx, stage)
    return sum(1 for i, j, _ in qfg.edges if pos[i][0] != pos[j][0] and pos[i][1] != pos[j][1])


class TestPlanarize:
    def test_tree_has_no_crossings(self):
        qfg = synth_qfg(list(range(1, 8)), [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)])
        assert planarize(qfg).crossings == frozenset()

    def test_k5_needs_exactly_one_crossing(self):
        # exhaustive: K5 itself is non-planar but removing any edge fixes it
        import networkx as nx

        edges = list(itertools.combinations(range(1, 6), 2))
        assert not nx.check_planarity(nx.Graph(edges))[0]
        for drop in edges:
            rest = [e for e in edges if e != drop]
            assert nx.check_planarity(nx.Graph(rest))[0]
        pg = planarize(synth_qfg(list(range(1, 6)), edges))
        assert len(pg.crossings) == 1

    def test_empty_graph(self):
        pg = planarize(synth_qfg([], []))
        assert pg.nodes == () and pg.chains == {}

    def test_degree_five_rejected(self):
        overloaded = synth_qfg([1, 2, 3, 4, 5, 6], [(1, k) for k in range(2, 7)])
        with pytest.raises(PlanarizeError):
            planarize(overloaded)

    def test_crossing_dummies_have_degree_four(self):
        rng = random.Random(17)
        for _ in range(40):
            pg = planarize(random_degree4_graph(rng))
            for dummy in pg.crossings:
                assert len(pg.adj[dummy]) == 4

    def test_euler_formula_on_random_graphs(self):
        rng = random.Random(18)
        for _ in range(40):
            planarize(random_degree4_graph(rng)).check_euler()  # raises on failure


def networkx_graph(adjacency):
    """The working graph of `planarize` (neighbour dicts over ids) as an
    `nx.Graph` with the same node and neighbour order."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adjacency)))
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            graph._adj[u][v] = {}  # the neighbour order as given, not as edges add it
    return graph


def sequential_greedy(adj, edges, labels):
    """Reference planar subgraph: one networkx planarity test per edge, in
    order."""
    deferred = []
    for a, b in edges:
        adj[a][b] = adj[b][a] = None
        if not nx.check_planarity(networkx_graph(adj))[0]:
            del adj[a][b], adj[b][a]
            deferred.append((a, b))
    return deferred


def planarize_with(qfg, greedy):
    """planarize(qfg) with its greedy planar-subgraph step replaced by
    `greedy`; returns that step's deferred edges and the result."""
    deferred = []

    def spy(adj, edges, labels):
        deferred.extend(greedy(adj, edges, labels))
        return deferred

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planar, "_add_planar_greedy", spy)
        pg = planarize(qfg)
    return deferred, pg


def dense_degree4_graph(rng, n):
    """Every node filled up to degree four where it can be: mostly non-planar."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    deg = dict.fromkeys(range(1, n + 1), 0)
    edges = []
    for a, b in pairs:
        if deg[a] < 4 and deg[b] < 4:
            edges.append((a, b))
            deg[a] += 1
            deg[b] += 1
    return synth_qfg(list(range(1, n + 1)), edges)


class TestGreedyBisection:
    def test_matches_sequential_greedy(self, monkeypatch):
        rng = random.Random(31)
        graphs = [random_degree4_graph(rng) for _ in range(200)]
        graphs += [dense_degree4_graph(rng, rng.randint(6, 16)) for _ in range(40)]
        graphs += [layered_flow_graph(rng) for _ in range(8)]
        graphs.append(synth_qfg(list(range(1, 6)), list(itertools.combinations(range(1, 6), 2))))
        graphs.append(synth_qfg(list(range(1, 7)), [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]))
        # long pendant chains, which the greedy re-hangs instead of testing
        for _ in range(20):
            netlist = chained_netlist(rng, max_pairs=32, max_qubits=10)
            graphs.append(build_qfg(netlist, schedule_netlist(netlist)))
        moves = spied_rehangs(monkeypatch)
        with_crossings = 0
        for qfg in graphs:
            fast_deferred, fast = planarize_with(qfg, planar._add_planar_greedy)
            ref_deferred, ref = planarize_with(qfg, sequential_greedy)
            assert fast_deferred == ref_deferred
            assert list(fast.adj.items()) == list(ref.adj.items())  # neighbour order too
            assert fast.chains == ref.chains and fast.crossings == ref.crossings
            with_crossings += bool(ref_deferred)
        assert with_crossings >= 70  # the edge-by-edge walk is exercised, not only the one-test path
        assert len(moves) >= 180  # 217 paths re-hung, 39 of them on the chained netlists

    def test_planar_cat80_takes_one_planarity_test(self, monkeypatch):
        netlist = generate_cat_circuit(80)
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        calls = []
        check = planar.planar_rings

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(planar, "planar_rings", counted)
        pg = planarize(qfg)
        assert pg.crossings == frozenset()
        assert len(calls) == 1  # the whole-graph test's rotation is the final embedding

    def test_readopted_embeddings_match_sequential_greedy(self):
        # the random graphs of test_matches_sequential_greedy, drawn the same way
        rng = random.Random(31)
        graphs = [random_degree4_graph(rng) for _ in range(200)]
        graphs += [dense_degree4_graph(rng, rng.randint(6, 16)) for _ in range(40)]
        graphs += [layered_flow_graph(rng) for _ in range(8)]
        adopted = []
        adopt = planar._FaceBook.adopt
        add_planar_greedy = planar._add_planar_greedy

        def counted(book, rotation):
            adopted.append(1)
            adopt(book, rotation)

        def greedy(adj, edges, labels):
            # routing books adopt their embedding too; count the greedy's only
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(planar._FaceBook, "adopt", counted)
                return add_planar_greedy(adj, edges, labels)

        graphs_readopting = 0
        for qfg in graphs:
            before = len(adopted)
            fast_deferred, fast = planarize_with(qfg, greedy)
            if len(adopted) - before <= 1:  # only the initial rotation
                continue
            graphs_readopting += 1
            ref_deferred, ref = planarize_with(qfg, sequential_greedy)
            assert fast_deferred == ref_deferred
            assert list(fast.adj.items()) == list(ref.adj.items())
        assert graphs_readopting >= 20

    def test_layered16_planarity_test_count(self, monkeypatch):
        rng = random.Random(5)
        graphs = [layered_flow_graph(rng, qubits=16, layers=6) for _ in range(6)]
        calls = []
        check = planar.planar_rings

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(planar, "planar_rings", counted)
        for qfg in graphs:
            planarize(qfg)
        # 212; 244 without re-hanging pendant paths, 630 with a bisection
        # per rejected edge
        assert len(calls) <= 215

    def test_stale_face_ids_raise(self):
        book = planar._FaceBook({v: [] for v in (1, 2, 3, 4)}, (1, 2, 3, 4))
        assert all(book.place(a, b) for a, b in [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert len(set(book.face_of.values())) == 2  # a 4-cycle: inner and outer face
        book.face_of = dict.fromkeys(book.face_of, 0)
        with pytest.raises(PlanarizeError, match="stale face bookkeeping"):
            book.place(1, 3)

    def test_components_match_networkx_after_random_places(self, monkeypatch):
        # random_embedding (below) mixes int and string nodes; the book's
        # union-find is keyed by node, so tuple labels work too. Its
        # forests with chords hang many pendant paths, so joins swing them;
        # after every join the book's faces are those of its rotation
        rng = random.Random(14)
        moves = spied_rehangs(monkeypatch)
        joined = refused = 0
        for trial in range(300):
            adj = random_embedding(rng)
            if trial % 3 == 0:
                adj = {(v, "t"): [(w, "t") for w in ring] for v, ring in adj.items()}
            book = planar._FaceBook(adj, sorted(adj, key=str))
            nodes = list(adj)
            for _ in range(rng.randint(0, 2 * len(nodes)) if len(nodes) > 1 else 0):
                a, b = rng.sample(nodes, 2)
                if b in book.rotation[a]:
                    continue
                joined += book.components.find(a) != book.components.find(b)
                if book.place(a, b):
                    assert_true_faces(book)
                else:
                    refused += 1
            graph = nx.Graph()
            graph.add_nodes_from(nodes)
            graph.add_edges_from((u, v) for u in nodes for v in book.rotation[u])
            groups: dict = {}
            for v in nodes:
                groups.setdefault(book.components.find(v), set()).add(v)
            expected = {frozenset(c) for c in nx.connected_components(graph)}
            assert {frozenset(g) for g in groups.values()} == expected
        # 149, 1,927 and 340 with this seed
        assert joined >= 100 and refused >= 1000 and len(moves) >= 200


def drawn_book(pos, edges):
    """Face book of the straight-line drawing of `edges` with nodes at
    `pos`: each ring runs clockwise by angle."""
    rings = {v: [] for v in pos}
    for a, b in edges:
        rings[a].append(b)
        rings[b].append(a)
    for v, ring in rings.items():
        x, y = pos[v]
        ring.sort(key=lambda w: -math.atan2(pos[w][1] - y, pos[w][0] - x))
    return planar._FaceBook(rings, sorted(rings))


def face_sets(book):
    """The book's faces as sets of half-edges, whatever their ids."""
    faces: dict = {}
    for half_edge, face in book.face_of.items():
        faces.setdefault(face, set()).add(half_edge)
    return {frozenset(face) for face in faces.values()}


def assert_true_faces(book):
    """The book's faces are those its rotation traces afresh, and the
    rotation is planar (Euler's formula in every component)."""
    rotation = {v: list(ring) for v, ring in book.rotation.items()}
    assert face_sets(book) == face_sets(planar._FaceBook(rotation, book.order))
    embedding = nx.PlanarEmbedding()
    embedding.set_data(rotation)
    embedding.check_structure()  # raises unless planar


def faces_at(book, v):
    return {book.face_of[(v, y)] for y in book.rotation[v]}


# a square 1-2-3-4 with the chord 1-3: faces 1-2-3, 1-3-4 and the outer one
SQUARE = {1: (0, 0), 2: (2, 0), 3: (2, 2), 4: (0, 2)}
SQUARE_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]


class TestPendantSwing:
    def test_one_path_rehangs_at_its_branch_node(self, monkeypatch):
        # the path 6-5-1 hangs inside face 1-3-4, which 2 does not touch
        book = drawn_book({**SQUARE, 5: (0.4, 1.2), 6: (0.3, 1.6)}, SQUARE_EDGES + [(1, 5), (5, 6)])
        at_2 = faces_at(book, 2)
        assert book.face_of[(6, 5)] not in at_2
        moves = spied_rehangs(monkeypatch)
        ring_of_1 = list(book.rotation[1])
        assert book.place(2, 6)
        ((path, face),) = moves
        assert path == [6, 5, 1] and face in at_2
        assert book.rotation[1] != ring_of_1 and sorted(book.rotation[1]) == sorted(ring_of_1)
        assert 6 in book.rotation[2] and book.rotation[6] == [2, 5]
        assert_true_faces(book)

    def test_two_paths_move_into_a_face_of_both_branch_nodes(self, monkeypatch):
        # 6-5-4 hangs inside face 1-3-4 and 8-7-2 inside face 1-2-3; only
        # the outer face touches both 4 and 2
        pos = {**SQUARE, 5: (0.3, 1.7), 6: (0.5, 1.4), 7: (1.7, 0.3), 8: (1.4, 0.5)}
        book = drawn_book(pos, SQUARE_EDGES + [(4, 5), (5, 6), (2, 7), (7, 8)])
        (outer,) = faces_at(book, 4) & faces_at(book, 2)
        moves = spied_rehangs(monkeypatch)
        assert book.place(6, 8)
        assert [path for path, _ in moves] == [[6, 5, 4], [8, 7, 2]]
        assert {face for _, face in moves} == {outer}
        assert_true_faces(book)

    def test_endpoint_that_is_its_own_pivot_stays(self, monkeypatch):
        # 2 carries its own pendant path 2-7-8 but ends none: it stays,
        # with its path, and only 6-5-1 swings to a face at 1 that holds 2
        pos = {**SQUARE, 5: (0.4, 1.2), 6: (0.3, 1.6), 7: (2.6, -0.6), 8: (3.2, -1)}
        book = drawn_book(pos, SQUARE_EDGES + [(1, 5), (5, 6), (2, 7), (7, 8)])
        rings = {v: list(book.rotation[v]) for v in (2, 7, 8)}
        moves = spied_rehangs(monkeypatch)
        assert book.place(2, 6)
        assert [path for path, _ in moves] == [[6, 5, 1]]
        assert book.rotation[7] == rings[7] and book.rotation[8] == rings[8]
        assert [v for v in book.rotation[2] if v != 6] == rings[2]
        assert_true_faces(book)

    def test_no_face_fits_leaves_the_rotation(self, monkeypatch):
        # a cube: node 1 on the outer square, 7 opposite it on the inner
        # one. Their faces are disjoint, so neither the path 10-9-1 nor 11-7
        # can swing to the other; and the cube with 1 joined to 7 is not
        # planar, so no other embedding would help
        pos = {1: (0, 0), 2: (4, 0), 3: (4, 4), 4: (0, 4), 5: (1, 1), 6: (3, 1), 7: (3, 3),
               8: (1, 3), 9: (1.5, 0.4), 10: (2.5, 0.5), 11: (2.5, 2.5)}
        cube = [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
                (1, 5), (2, 6), (3, 7), (4, 8)]
        book = drawn_book(pos, cube + [(1, 9), (9, 10), (7, 11)])
        assert not nx.check_planarity(nx.Graph(cube + [(1, 7)]))[0]
        rotation = {v: list(ring) for v, ring in book.rotation.items()}
        face_of = dict(book.face_of)
        moves = spied_rehangs(monkeypatch)
        for a, b in [(10, 7), (7, 10), (10, 11), (11, 10)]:
            assert not book.place(a, b)
        assert moves == []
        assert book.rotation == rotation and book.face_of == face_of

    def test_stale_faces_after_a_swing_raise(self, monkeypatch):
        # 2's faces and one corner of 1 on the path's face relabelled as one
        # new face: the path swings to that corner, and the edge 2-6 then
        # joins two real faces instead of splitting one
        book = drawn_book({**SQUARE, 5: (0.4, 1.2), 6: (0.3, 1.6)}, SQUARE_EDGES + [(1, 5), (5, 6)])
        stale = book.next_face
        path_face = book.face_of[(6, 5)]
        corner = next(y for y in book.rotation[1] if y != 5 and book.face_of[(1, y)] == path_face)
        for half_edge in [(2, 1), (2, 3), (1, corner)]:
            book.face_of[half_edge] = stale
        moves = spied_rehangs(monkeypatch)
        with pytest.raises(PlanarizeError, match="stale face bookkeeping"):
            book.place(2, 6)
        assert moves == [([6, 5, 1], stale)]


def networkx_rotation(graph):
    """Verdict and rotation of networkx's LR test, as (node, ring) pairs in
    dict order; None if not planar."""
    is_planar, embedding = nx.check_planarity(graph)
    return list(embedding.get_data().items()) if is_planar else None


def kernel_rotation(graph):
    rotation = planar_rotation(graph)
    return None if rotation is None else list(rotation.items())


def random_labelled_graph(rng):
    """Random graph on 0-30 nodes, some named by strings, with nodes and
    edges inserted in shuffled order and random orientation: often
    disconnected, with isolated nodes, sometimes a self-loop, and edge
    counts on both sides of 3n - 6."""
    names = [f"v{k}" if rng.random() < 0.3 else k for k in range(rng.randint(0, 30))]
    rng.shuffle(names)
    graph = nx.Graph()
    graph.add_nodes_from(names[: rng.randint(0, len(names))])  # the rest enter with edges
    pairs = []
    if len(names) > 1:
        pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 3 * len(names)))]
    pairs += [(v, v) for v in names if rng.random() < 0.02]
    rng.shuffle(pairs)
    graph.add_edges_from(pairs)
    graph.add_nodes_from(names)
    return graph


class TestLRPlanarity:
    """`planar_rings`, labelled by `planar_rotation`, against networkx's LR
    test: the same verdict and the same rotation, neighbour order and dict
    order included."""

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(1011)
        stats = dict.fromkeys(
            ("non_planar", "rejected_by_lr", "disconnected", "isolated", "string_named"), 0
        )
        for _ in range(3000):
            graph = random_labelled_graph(rng)
            expected = networkx_rotation(graph)
            assert kernel_rotation(graph) == expected
            n = graph.number_of_nodes()
            stats["non_planar"] += expected is None
            stats["rejected_by_lr"] += expected is None and graph.number_of_edges() <= 3 * n - 6
            stats["disconnected"] += n > 0 and not nx.is_connected(graph)
            stats["isolated"] += any(not graph[v] for v in graph)
            stats["string_named"] += any(isinstance(v, str) for v in graph)
        assert stats["non_planar"] >= 1000 and min(stats.values()) >= 500, stats

    @pytest.mark.parametrize(
        "graph",
        [
            nx.complete_graph(5),
            nx.complete_bipartite_graph(3, 3),
            nx.petersen_graph(),
            nx.grid_2d_graph(20, 20),
            nx.cycle_graph(5000),  # far deeper than the recursion limit: the DFS loops
        ],
        ids=["K5", "K3,3", "Petersen", "grid20x20", "cycle5000"],
    )
    def test_matches_networkx_on_classic_graphs(self, graph):
        assert kernel_rotation(graph) == networkx_rotation(graph)

    def test_matches_networkx_in_planarize(self, monkeypatch):
        tested = []

        def both(adjacency):
            rings = planar_rings(adjacency)
            got = None if rings is None else list(enumerate(rings))
            assert got == networkx_rotation(networkx_graph(adjacency))
            tested.append(rings is None)
            return rings

        monkeypatch.setattr(planar, "planar_rings", both)
        netlist = parse_qasm(LAYERED16.read_text())
        pg = planarize(build_qfg(netlist, schedule_netlist(netlist)))
        assert pg.crossings and len(tested) >= 30 and any(tested) and not all(tested)
        netlist = generate_cat_circuit(80)
        planarize(build_qfg(netlist, schedule_netlist(netlist)))
        assert tested[-1] is False

    def test_layered16_planarization_is_pinned(self):
        netlist = parse_qasm(LAYERED16.read_text())
        pg = planarize(build_qfg(netlist, schedule_netlist(netlist)))
        pinned = repr((list(pg.adj.items()), list(pg.chains.items()), sorted(pg.crossings)))
        assert hashlib.sha256(pinned.encode()).hexdigest() == LAYERED16_PLANARIZATION


def decomposition_graphs():
    """Fuzz graphs, many of them disconnected, and layered drawings with
    crossings."""
    rng = random.Random(77)
    graphs = [random_degree4_graph(rng) for _ in range(150)]
    graphs += [layered_flow_graph(rng) for _ in range(4)]
    graphs.append(layered_flow_graph(rng, qubits=16, layers=6))
    return graphs


class TestDecomposition:
    def test_component_faces_match_reference(self):
        multi_component = 0
        for qfg in decomposition_graphs():
            pg = planarize(qfg)
            expected = reference_component_faces(pg)
            assert pg.components == expected
            assert pg.faces == tuple(map(tuple, reference_faces(pg.adj)))
            multi_component += len(expected) > 1
        assert multi_component >= 40

    def test_coordinates_match_reference(self, monkeypatch):
        coordinates = compact_module._coordinates
        meshes = []

        def both(mesh):
            xs, ys = coordinates(mesh)
            got = {label: (x, y) for label, x, y in zip(mesh.label, xs, ys)}
            labelled = label_mesh(mesh)
            assert got == networkx_coordinates(labelled) == reference_coordinates(labelled)
            meshes.append(len(got))
            return xs, ys

        monkeypatch.setattr(compact_module, "_coordinates", both)
        for qfg in decomposition_graphs():
            draw(qfg)
        assert len(meshes) >= 140  # one per component with an edge
        assert max(meshes) >= 300  # the 16-qubit layered drawing

    def test_cyclic_constraints_raise_layout_error(self):
        # both half-edges of one edge point east: a cycle of constraint arcs
        # between two lines; pointing south, they close one line on itself
        for d in (compact_module._EAST, compact_module._SOUTH):
            mesh = compact_module._Mesh([1, 2])
            h = mesh.pair(0, 1, d)
            mesh.dir[h ^ 1] = d
            mesh.link(h, h ^ 1)
            mesh.link(h ^ 1, h)
            with pytest.raises(LayoutError, match="cyclic"):
                compact_module._coordinates(mesh)
            with pytest.raises(LayoutError, match="cyclic"):
                networkx_coordinates(label_mesh(mesh))

    def test_two_half_edges_one_way_raise_layout_error(self):
        # a vertex with two half-edges pointing south: no maximal run of
        # collinear half-edges is well defined
        mesh = compact_module._Mesh([1, 2, 3])
        down = [mesh.pair(0, v, compact_module._SOUTH) for v in (1, 2)]
        mesh.link(down[0], down[0] ^ 1)
        mesh.link(down[0] ^ 1, down[1])
        mesh.link(down[1], down[1] ^ 1)
        mesh.link(down[1] ^ 1, down[0])
        with pytest.raises(LayoutError, match="direction clash"):
            compact_module._coordinates(mesh)

    def test_faces_are_traced_once_per_graph(self, monkeypatch):
        traced = []
        adopt = planar._FaceBook.adopt

        def counted(book, rotation):
            # the books trace the working graph's ids: keep each as labels
            name = book.labels.__getitem__
            traced.append([(name(v), [name(w) for w in rotation[v]]) for v in book.order])
            adopt(book, rotation)

        monkeypatch.setattr(planar._FaceBook, "adopt", counted)
        pg = planarize(layered_flow_graph(random.Random(5)))
        assert pg.crossings  # routing books traced intermediate embeddings as well
        after_planarize = len(traced)
        rep = orthogonalize(pg)
        compact(pg, rep)
        assert len(traced) == after_planarize
        assert traced.count(list(pg.adj.items())) == 1
        assert rep.faces is pg.faces  # handed on, not traced again


def drawing_items(drawing):
    """A drawing with the order of every dict and tuple in it."""
    return (
        list(drawing.node_pos.items()),
        list(drawing.routes.items()),
        drawing.crossings,
    )


def bundled_flow_graphs():
    """code_9_3_2, toffoli_pair under both libraries and Cat-80."""
    circuits = ROOT / "circuits"
    netlists = [
        parse_qasm((circuits / "code_9_3_2.qasm").read_text()),
        *(
            decompose(parse_qasm((circuits / "toffoli_pair.qasm").read_text()), lib)
            for lib in (Library.CV_LIBRARY, Library.FT_LIBRARY)
        ),
        generate_cat_circuit(80),
    ]
    return [build_qfg(netlist, schedule_netlist(netlist)) for netlist in netlists]


class TestCompactOracle:
    """`compact` against the label-keyed `reference_compact`: the same
    drawing, dict order included."""

    def test_matches_reference_on_decomposition_graphs(self):
        multi_component = 0
        for qfg in decomposition_graphs():
            pg = planarize(qfg)
            rep = orthogonalize(pg)
            assert drawing_items(compact(pg, rep)) == drawing_items(reference_compact(pg, rep))
            multi_component += len(pg.components) > 1
        assert multi_component >= 40

    def test_matches_reference_on_bundled_circuits(self):
        for qfg in bundled_flow_graphs():
            pg = planarize(qfg)
            rep = orthogonalize(pg)
            assert drawing_items(compact(pg, rep)) == drawing_items(reference_compact(pg, rep))


def random_embedding(rng):
    """Rotation system of a random planar graph on 1-30 nodes, some of them
    named by strings: often disconnected, with bridges and isolated nodes."""
    names = [f"v{k}" if rng.random() < 0.3 else k for k in range(rng.randint(1, 30))]
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for k in range(1, len(names)):  # a random forest, then random chords
        if rng.random() < 0.9:
            graph.add_edge(names[k], names[rng.randrange(k)])
    for _ in range(rng.randint(0, len(names)) if len(names) > 1 else 0):
        graph.add_edge(*rng.sample(names, 2))
    while True:
        is_planar, embedding = nx.check_planarity(graph)
        if is_planar:
            return embedding.get_data()
        graph.remove_edge(*rng.choice(list(graph.edges)))


class TestDualRouting:
    def test_walks_and_routes_match_reference(self):
        rng = random.Random(2024)
        routes = crossing_routes = unroutable = bridged = isolated = string_named = 0
        while routes < 5000:
            adj = random_embedding(rng)
            book = planar._FaceBook(adj, sorted(adj, key=node_key))
            assert book.walks() == tuple(map(tuple, reference_faces(adj)))
            bridged += any(book.face_of[(a, b)] == book.face_of[(b, a)] for a, b in book.face_of)
            isolated += any(not ring for ring in adj.values())
            string_named += any(isinstance(v, str) for v in adj)
            nodes = list(adj)
            for _ in range(min(12, len(nodes) * (len(nodes) - 1))):
                u, v = rng.sample(nodes, 2)
                try:
                    expected = reference_route_through_faces(adj, u, v)
                except PlanarizeError:
                    with pytest.raises(PlanarizeError, match="no dual route"):
                        planar._route_through_faces(book, u, v)
                    unroutable += 1
                else:
                    assert planar._route_through_faces(book, u, v) == expected
                    crossing_routes += bool(expected)
                routes += 1
        assert crossing_routes >= 1000 and unroutable >= 300
        assert bridged >= 300 and isolated >= 100 and string_named >= 300

    def test_layered_routes_match_reference(self, monkeypatch):
        route = planar._route_through_faces
        routed = []

        def both(book, u, v):
            got = route(book, u, v)
            # the working graph's ids as their labels
            name = book.labels.__getitem__
            adj = {name(w): [name(x) for x in book.rotation[w]] for w in book.order}
            labelled = [frozenset(map(name, edge)) for edge in got]
            assert labelled == reference_route_through_faces(adj, name(u), name(v))
            routed.append(len(got))
            return got

        monkeypatch.setattr(planar, "_route_through_faces", both)
        for k in range(3):
            planarize(layered_flow_graph(random.Random(k), qubits=16, layers=6))
        assert len(routed) >= 40 and max(routed) >= 3


def random_flow_networks(rng: random.Random, count: int):
    """`count` random feasible flow networks as (nodes, arcs, demand): arcs
    of capacity 0 to 4 and cost -3 to 9 with parallel ones, and the
    demands of a random flow within capacity."""
    for _ in range(count):
        n = rng.randint(2, 7)
        arcs = []
        for _ in range(rng.randint(n, 3 * n)):
            u, v = rng.sample(range(n), 2)
            arcs.append((u, v, rng.randint(0, 4), rng.randint(-3, 9)))
        for u, v, _, _ in rng.sample(arcs, rng.randint(1, 3)):  # parallel arcs
            arcs.append((u, v, rng.randint(1, 4), rng.randint(-3, 9)))
        demand = [0] * n
        for u, v, cap, _ in arcs:
            sent = rng.randint(0, cap)
            demand[u] -= sent
            demand[v] += sent
        yield n, arcs, demand


def assert_flow_within(n, arcs, demand, flows):
    """Every arc within its capacity, and every node's net inflow its demand."""
    net = [0] * n
    for (u, v, cap, _), sent in zip(arcs, flows):
        assert 0 <= sent <= cap
        net[u] -= sent
        net[v] += sent
    assert net == demand


def flow_cost(arcs, flows) -> int:
    return sum(sent * cost for sent, (*_, cost) in zip(flows, arcs))


def milp_flow_cost(n, arcs, demand) -> int | None:
    """The minimum cost of an integral flow by HiGHS, or None if no flow
    meets the demands."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    incidence = np.zeros((n, len(arcs)))
    for k, (u, v, _, _) in enumerate(arcs):
        incidence[u, k] -= 1
        incidence[v, k] += 1
    best = milp(
        c=[cost for *_, cost in arcs],
        constraints=LinearConstraint(incidence, demand, demand),
        bounds=Bounds(0, [cap for _, _, cap, _ in arcs]),
        integrality=np.ones(len(arcs)),
    )
    if best.status == 2:  # infeasible
        return None
    assert best.success, best.message
    return round(best.fun)


class TestOrthogonalize:
    def test_four_cycle_is_a_rectangle(self):
        pg = planarize(synth_qfg([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)]))
        rep = orthogonalize(pg)
        assert rep.total_bends == 0
        for node in (1, 2, 3, 4):
            assert sorted(angle_at(rep, node)) == [1, 3]

    def test_path_is_straight(self):
        pg = planarize(synth_qfg([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]))
        assert orthogonalize(pg).total_bends == 0

    def test_cat4_drawing_beats_naive_router(self):
        netlist = generate_cat_circuit(4)
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        _, rep, _ = draw(qfg)
        assert rep.total_bends <= naive_layered_bends(qfg)

    def test_bend_minimality_small_instances(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 40:
            qfg = random_degree4_graph(rng, max_nodes=8)
            pg = planarize(qfg)
            rep = orthogonalize(pg)
            assert rep.total_bends == bend_minimum_milp(pg, rep)
            checked += 1

    def test_bends_are_one_sided_on_bundled_circuits(self):
        # a minimum-cost flow never bends one edge both ways, so compact's
        # refusal of a two-sided edge stays unreached
        bends = []
        for qfg in bundled_flow_graphs():
            rep = orthogonalize(planarize(qfg))
            assert one_sided_bends(rep)
            bends.append(rep.total_bends)
        assert sum(bends) >= 20, bends  # Cat-80 draws without bends

    def test_min_cost_flow_matches_milp_optimum(self):
        zero_capacity = 0
        for n, arcs, demand in random_flow_networks(random.Random(5150), 100):
            flows = NetworkSimplex(n, arcs, demand).flows()
            assert flows == networkx_min_cost_flow(n, arcs, demand)
            zero_capacity += any(cap == 0 for _, _, cap, _ in arcs)
            assert_flow_within(n, arcs, demand, flows)
            assert flow_cost(arcs, flows) == milp_flow_cost(n, arcs, demand)
        assert zero_capacity >= 50

    def test_warm_move_matches_milp_optimum(self):
        # the same networks, each re-solved warm after k units of one node's
        # demand move to another; a move no flow can carry raises
        rng = random.Random(5151)
        moved = refused = 0
        for n, arcs, demand in random_flow_networks(random.Random(5150), 100):
            u, v = rng.sample(range(n), 2)
            k = rng.randint(1, 4)
            simplex = NetworkSimplex(n, arcs, demand)
            demand = list(demand)
            demand[u] -= k
            demand[v] += k
            best = milp_flow_cost(n, arcs, demand)
            if best is None:
                with pytest.raises(LayoutError, match="infeasible: no flow satisfies the moved"):
                    simplex.move(u, v, k)
                refused += 1
                continue
            simplex.move(u, v, k)
            flows = simplex.flows()
            assert_flow_within(n, arcs, demand, flows)
            assert flow_cost(arcs, flows) == best
            # the added arc and the artificial arcs end empty
            assert not any(simplex.flow[len(simplex.real) :])
            moved += 1
        assert moved >= 50 and refused >= 30  # 61 and 39 with these seeds

    def test_alternate_exactly_when_it_bends_no_more(self):
        # with crossings, each component's second-ranked face goes outside
        # and the warm re-solve bends as little as the bend MILP allows with
        # it there; the alternate is kept exactly when that is no more than
        # the default's bends. A planar graph gets none
        rng = random.Random(30)
        graphs = [layered_flow_graph(rng) for _ in range(12)] + bundled_flow_graphs()
        for name in ("chains", "extra4", "extra8", "layered5", "layered16"):
            netlist = parse_qasm((ROOT / "tests" / "fixtures" / f"{name}.qasm").read_text())
            graphs.append(build_qfg(netlist, schedule_netlist(netlist)))
        kept = refused = 0
        for qfg in graphs:
            pg = planarize(qfg)
            rep = orthogonalize(pg)
            if not pg.crossings:
                assert rep.alternate is None
                continue
            second = {
                sorted(faces, key=lambda fi: (-len(pg.faces[fi]), fi))[min(1, len(faces) - 1)]
                for _, faces in pg.components
                if faces
            }
            least = bend_minimum_milp(pg, replace(rep, ext_face=frozenset(second)))
            other = rep.alternate
            assert (other is not None) == (least <= rep.total_bends)
            if other is None:
                refused += 1
                continue
            assert other.ext_face == second
            assert other.total_bends == least
            assert one_sided_bends(other)
            assert other.alternate is None
            kept += 1
        assert kept >= 10 and refused >= 5  # 12 and 6 with this seed

    def test_min_cost_flow_matches_networkx_on_self_loops(self):
        arcs = [(0, 0, 3, -1), (0, 1, 2, 1), (1, 1, 2, 4), (0, 1, 0, -5), (1, 0, 1, -2)]
        for demand in ([0, 0], [-2, 2], [1, -1]):
            assert NetworkSimplex(2, arcs, demand).flows() == networkx_min_cost_flow(2, arcs, demand)
        assert NetworkSimplex(2, arcs, [0, 0]).flows() == [3, 1, 0, 0, 1]

    def test_min_cost_flow_matches_networkx_in_orthogonalize(self, monkeypatch):
        kernel = orthogonal.NetworkSimplex
        networks = []

        def both(node_count, arcs, demand):
            solved = kernel(node_count, arcs, demand)
            assert solved.flows() == networkx_min_cost_flow(node_count, arcs, demand)
            networks.append(len(arcs))
            return solved

        monkeypatch.setattr(orthogonal, "NetworkSimplex", both)
        for netlist in (parse_qasm(LAYERED16.read_text()), generate_cat_circuit(80)):
            orthogonalize(planarize(build_qfg(netlist, schedule_netlist(netlist))))
        assert len(networks) >= 2 and max(networks) >= 1000

    def test_layered16_orthorep_is_pinned(self):
        netlist = parse_qasm(LAYERED16.read_text())
        rep = orthogonalize(planarize(build_qfg(netlist, schedule_netlist(netlist))))
        pinned = repr((list(rep.angles.items()), list(rep.bends.items())))
        assert hashlib.sha256(pinned.encode()).hexdigest() == LAYERED16_ORTHOREP

    def test_infeasible_flow_raises_layout_error(self):
        with pytest.raises(LayoutError, match="infeasible"):
            NetworkSimplex(2, [(0, 1, 1, 0)], [-2, 2])

    @pytest.mark.parametrize(
        "arcs, demand, reason",
        [
            ([(0, 1, 1, 0)], [-1, 2], "total node demand"),
            ([(0, 1, -1, 0)], [0, 0], "negative arc capacity"),
        ],
        ids=["demand-sum", "negative-capacity"],
    )
    def test_unbalanced_or_negative_network_is_infeasible(self, arcs, demand, reason):
        with pytest.raises(LayoutError, match=f"infeasible: {reason}"):
            NetworkSimplex(2, arcs, demand)
        with pytest.raises(nx.NetworkXUnfeasible):
            networkx_min_cost_flow(2, arcs, demand)


def subdivided_graph(rng: random.Random) -> QubitFlowGraph:
    """A random degree-4 graph whose edges become paths through up to five
    new degree-2 nodes, each path on its edge's one qubit: long faces whose
    turns can sit on many vertices, at both prices of a turn."""
    base = random_degree4_graph(rng, max_nodes=8)
    nodes, edges = list(base.nodes), []
    fresh = max(nodes) + 1
    for i, j, q in base.edges:
        path = [i, *range(fresh, fresh + rng.randint(0, 5)), j]
        fresh += len(path) - 2
        nodes += path[1:-1]
        edges += [(min(a, b), max(a, b), q) for a, b in zip(path, path[1:])]
    return QubitFlowGraph({n: n for n in nodes}, tuple(sorted(edges)), {})


def corner_cost(pg, rep) -> int:
    """The angle part of the flow's cost: each unit past a straight angle
    costs 1, or 2 at a degree-2 vertex whose two edges carry one qubit."""
    qubit = {
        frozenset(pair): q for (_, _, q), chain in pg.chains.items() for pair in zip(chain, chain[1:])
    }
    wide = {
        v: 2 if len(pg.adj[v]) == 2 and len({qubit[frozenset((v, w))] for w in pg.adj[v]}) == 1 else 1
        for v in pg.nodes
        if pg.adj.get(v)
    }
    return sum(
        max(angle - 2, 0) * wide[rep.faces[fi][ci][1]] for (fi, ci), angle in rep.angles.items()
    )


def is_rectangle(rep, fi) -> bool:
    """An internal, simple, bend-free face with four convex corners and all
    others straight."""
    walk = rep.faces[fi]
    angles = sorted(rep.angles[(fi, ci)] for ci in range(len(walk)))
    return (
        fi not in rep.ext_face
        and angles == [1] * 4 + [2] * (len(walk) - 4)
        and len({v for _, v in walk}) == len(walk)
        and not any(rep.bends.get(he) or rep.bends.get(he[::-1]) for he in walk)
    )


def rectangle_sides(rep, fi) -> list[int]:
    """Edges per side of face fi, from its first convex corner on."""
    turns = [ci for ci in range(len(rep.faces[fi])) if rep.angles[(fi, ci)] == 1]
    return [(b - a) % len(rep.faces[fi]) for a, b in zip(turns, turns[1:] + turns[:1])]


def mismatch(sides: list[int]) -> int:
    return abs(sides[0] - sides[2]) + abs(sides[1] - sides[3])


class TestBalanceCorners:
    def test_hand_built_rectangle_gets_matching_sides(self):
        # an 8-cycle with its turns on four neighbours, sides 1, 1, 1 and 5,
        # draws 1 x 5 with one edge stretched to 5. Two corners moving two
        # steps each match every pair of opposite sides, as do four corners
        # moving 1, 0, 1, 2 to the 2 x 2 square; the tie goes to the first
        # by walk position, a 1 x 3 rectangle with unit edges
        pg = planarize(synth_qfg(list(range(1, 9)), [(k, k % 8 + 1) for k in range(1, 9)]))
        rep = bend_minimal(pg)
        (inner,) = set(range(len(rep.faces))) - rep.ext_face
        turned = {v for _, v in rep.faces[inner][:4]}
        hand = replace(rep, angles={
            (fi, ci): (1 if v in turned else 2) if fi == inner else (3 if v in turned else 2)
            for fi, walk in enumerate(rep.faces)
            for ci, (_, v) in enumerate(walk)
        })
        assert rectangle_sides(hand, inner) == [1, 1, 1, 5]
        xs, ys = zip(*compact(pg, hand).node_pos.values())
        assert (max(xs) - min(xs), max(ys) - min(ys)) in {(1, 5), (5, 1)}

        balanced = balance_corners(hand, *flow_costs(pg))
        assert rectangle_sides(balanced, inner) == [1, 3, 1, 3]
        drawing = compact(pg, balanced)
        assert validate_drawing(drawing) == []
        xs, ys = zip(*drawing.node_pos.values())
        assert (max(xs) - min(xs), max(ys) - min(ys)) in {(1, 3), (3, 1)}
        assert balance_corners(balanced, *flow_costs(pg)) is balanced  # nothing left to move

    def test_corners_keep_their_other_face(self):
        # a 12-cycle inside a face G closed by an outer path 1-13-...-18-6;
        # nodes 2-5 border G, nodes 7-12 the external face. By hand, G's
        # side holds two corners, node 6 is straight and node 1 keeps a
        # corner: sides 1, 9, 1, 1. Matching sides would need a corner on
        # node 7, past node 6, which would take a reflex angle from G to the
        # external face; the corners stay on their runs instead
        path = [1, 13, 14, 15, 16, 17, 18, 6]
        pairs = [(k, k % 12 + 1) for k in range(1, 13)] + list(zip(path, path[1:]))
        pg = planarize(synth_qfg(list(range(1, 19)), pairs))
        rep = bend_minimal(pg)
        inner = next(fi for fi, walk in enumerate(rep.faces) if walk[0] == (1, 2))
        outer = next(fi for fi, walk in enumerate(rep.faces) if walk[0] == (1, 13))
        (ext,) = rep.ext_face

        def at(fi, v):
            return fi, next(ci for ci, (_, w) in enumerate(rep.faces[fi]) if w == v)

        edits = [(inner, 6, 2), (ext, 6, 1), (inner, 8, 2), (ext, 8, 2), (inner, 2, 1),
                 (outer, 2, 3), (inner, 3, 1), (outer, 3, 3), (outer, 13, 1), (ext, 13, 3),
                 (outer, 14, 1), (ext, 14, 3)]
        hand = replace(rep, angles={**rep.angles, **{at(fi, v): a for fi, v, a in edits}})
        assert rectangle_sides(hand, inner) == [1, 9, 1, 1]
        balanced = balance_corners(hand, *flow_costs(pg))
        turned = [v for ci, (_, v) in enumerate(rep.faces[inner]) if balanced.angles[(inner, ci)] == 1]
        assert turned == [2, 5, 8, 1]  # sides 3, 3, 5, 1
        for fi, walk in enumerate(rep.faces):
            assert sum(balanced.angles[(fi, ci)] for ci in range(len(walk))) == sum(
                hand.angles[(fi, ci)] for ci in range(len(walk))
            )
        assert validate_drawing(compact(pg, balanced)) == []

    def test_moves_keep_angle_sums_bends_and_flow_cost(self):
        rng = random.Random(7)
        moved = 0
        for _ in range(300):
            qfg = subdivided_graph(rng)
            pg = planarize(qfg)
            rep = bend_minimal(pg)
            balanced = orthogonalize(pg)
            assert balanced == balance_corners(rep, *flow_costs(pg))
            if balanced == rep:
                continue
            moved += 1
            assert balanced.faces == rep.faces and balanced.bends == rep.bends
            assert balanced.total_bends == rep.total_bends
            assert corner_cost(pg, balanced) == corner_cost(pg, rep)
            for v in pg.nodes:
                if pg.adj.get(v):
                    assert sum(angle_at(balanced, v)) == 4
            for fi, walk in enumerate(rep.faces):
                before = [rep.angles[(fi, ci)] for ci in range(len(walk))]
                after = [balanced.angles[(fi, ci)] for ci in range(len(walk))]
                assert sum(after) == sum(before)
                if after != before and is_rectangle(rep, fi):
                    # a rectangle that changed stays one, its sides matched better
                    assert is_rectangle(balanced, fi)
                    assert mismatch(rectangle_sides(balanced, fi)) < mismatch(rectangle_sides(rep, fi))
            drawing = compact(pg, balanced)
            assert validate_drawing(drawing) == []
            assert set(drawing.routes) == set(qfg.edges)
        assert moved > 40

    def test_fuzz_drawings_stay_valid(self):
        # criterion 7's 500 graphs and the end-to-end fuzz's netlists:
        # `orthogonalize` balances the flow's representation, keeping its
        # bends, and the drawing is valid
        rng = random.Random(424242)
        graphs = [random_degree4_graph(rng) for _ in range(500)]
        rng = random.Random(18)
        for _ in range(200):
            netlist = parse_qasm(render_qasm(random_mixed_netlist(rng, max_instr=8, max_qubits=5)))
            if any(instr.kind is GateKind.Toffoli for instr in netlist.instructions):
                netlist = decompose(netlist, rng.choice(list(Library)))
            graphs.append(build_qfg(netlist, schedule_netlist(netlist)))
        for qfg in graphs:
            pg = planarize(qfg)
            rep, balanced = bend_minimal(pg), orthogonalize(pg)
            assert balanced == balance_corners(rep, *flow_costs(pg))
            assert balanced.bends == rep.bends
            assert validate_drawing(compact(pg, balanced)) == []

    def test_cat_faces_balance(self):
        # the Cat cycle is one rectangle: Cat-32's sides go from 17, 6, 2
        # and 8 edges to within one of each other
        netlist = generate_cat_circuit(32)
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        pg = planarize(qfg)
        rep = bend_minimal(pg)
        (inner,) = set(range(len(rep.faces))) - rep.ext_face
        assert sorted(rectangle_sides(rep, inner)) == [2, 6, 8, 17]
        assert mismatch(rectangle_sides(balance_corners(rep, *flow_costs(pg)), inner)) == 1
        assert mismatch(rectangle_sides(orthogonalize(pg), inner)) == 1


class TestCompact:
    def test_single_edge_unit_length(self):
        _, _, drawing = draw(synth_qfg([1, 2], [(1, 2)]))
        (a, b), = [drawing.routes[(1, 2, 0)]]
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_four_cycle_unit_square(self):
        _, _, drawing = draw(synth_qfg([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)]))
        total = sum(
            abs(p[0] - q[0]) + abs(p[1] - q[1])
            for pts in drawing.routes.values()
            for p, q in zip(pts, pts[1:])
        )
        assert total == 4

    def test_cat7_reference_turn_budget(self):
        netlist = generate_cat_circuit(7)
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        _, rep, drawing = draw(qfg)
        assert validate_drawing(drawing) == []
        assert rep.total_bends <= 2  # the published pattern needs two turns

    def test_coordinates_normalized(self):
        _, _, drawing = draw(synth_qfg([1, 2, 3], [(1, 2), (2, 3)]))
        xs = [p[0] for p in drawing.node_pos.values()]
        ys = [p[1] for p in drawing.node_pos.values()]
        assert min(xs) == 0 and min(ys) == 0

    def test_determinism(self):
        qfg = synth_qfg(list(range(1, 9)), [(1, 2), (2, 3), (3, 4), (4, 1), (2, 5), (5, 6), (6, 7), (7, 8), (8, 5)])
        first = draw(qfg)[2]
        second = draw(qfg)[2]
        assert first == second

    def test_broken_representation_raises_layout_error(self):
        pg, rep, _ = draw(synth_qfg([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)]))
        with pytest.raises(LayoutError, match="no external face"):
            compact(pg, replace(rep, angles={corner: 2 for corner in rep.angles}))
        with pytest.raises(LayoutError, match="not one-sided"):
            compact(pg, replace(rep, bends={(1, 2): 1, (2, 1): 1}))

    def test_fuzz_validity(self):
        rng = random.Random(2024)
        for _ in range(120):
            qfg = random_degree4_graph(rng)
            _, _, drawing = draw(qfg)
            assert validate_drawing(drawing) == []
            assert set(drawing.node_pos) == set(qfg.nodes)
            assert set(drawing.routes) == set(qfg.edges)



def line_orders(drawing, axis):
    """Per grid line across `axis` (a y line for 0, an x line for 1), what
    meets it: each node, crossing and route segment with the ranks, among
    the distinct coordinates met on that line, of where it starts and ends."""
    other = 1 - axis
    met: dict[int, list] = {}
    for i, p in drawing.node_pos.items():
        met.setdefault(p[other], []).append((p[axis], p[axis], ("node", i)))
    for k, p in enumerate(drawing.crossings):
        met.setdefault(p[other], []).append((p[axis], p[axis], ("crossing", k)))
    for key, pts in drawing.routes.items():
        for s, (a, b) in enumerate(zip(pts, pts[1:])):
            label = ("segment", key, s)
            if a[other] == b[other]:
                met.setdefault(a[other], []).append((min(a[axis], b[axis]), max(a[axis], b[axis]), label))
            else:
                for line in range(min(a[other], b[other]), max(a[other], b[other]) + 1):
                    met.setdefault(line, []).append((a[axis], a[axis], label))
    orders = {}
    for line, items in met.items():
        rank = {c: r for r, c in enumerate(sorted({c for start, end, _ in items for c in (start, end)}))}
        orders[line] = sorted((rank[start], rank[end], label) for start, end, label in items)
    return orders


def has_room(drawing, node, side) -> bool:
    """Whether the grid point one unit out of `node` on `side` holds no node,
    crossing or route corner, and lies on no route segment but one that
    leaves the node there."""
    p, (dx, dy) = drawing.node_pos[node], DIRS[side]
    out = (p[0] + dx, p[1] + dy)
    if out in drawing.node_pos.values() or out in drawing.crossings:
        return False
    for pts in drawing.routes.values():
        if out in pts:
            return False
        for a, b in zip(pts, pts[1:]):
            on = all(min(u, v) <= w <= max(u, v) for u, v, w in zip(a, b, out))
            if on and p not in (a, b):
                return False
    return True


def check_tighten(drawing, sides):
    """`tighten` pass by pass: each keeps the order on every grid line across
    its axis and the room every node wants along it, and the result is
    valid, with the same nodes, routes and crossings."""
    room = room_sides(drawing, sides)
    across_x = compact_module._tighten_axis(drawing, 0, room)
    tight = compact_module._tighten_axis(across_x, 1, room)
    assert tighten(drawing, sides) == tight
    assert line_orders(across_x, 0) == line_orders(drawing, 0)
    assert line_orders(tight, 1) == line_orders(across_x, 1)
    for node, node_sides in room.items():
        for side in node_sides:
            assert has_room(across_x if side in "EW" else tight, node, side), (node, side)
    assert validate_drawing(tight) == []
    assert set(tight.node_pos) == set(drawing.node_pos)
    assert set(tight.routes) == set(drawing.routes)
    assert len(set(tight.crossings)) == len(drawing.crossings)
    return tight


class TestTighten:
    def test_criterion_7_graphs_stay_valid_and_ordered(self):
        # these small drawings are already tight, so room only moves them apart
        rng = random.Random(424242)
        moved = 0
        for _ in range(500):
            _, _, drawing = draw(random_degree4_graph(rng))
            moved += check_tighten(drawing, {}) != drawing
        assert moved > 100

    def test_fuzz_netlists_stay_valid_and_ordered(self):
        rng = random.Random(18)
        for _ in range(200):
            netlist = parse_qasm(render_qasm(random_mixed_netlist(rng, max_instr=8, max_qubits=5)))
            if any(instr.kind is GateKind.Toffoli for instr in netlist.instructions):
                netlist = decompose(netlist, rng.choice(list(Library)))
            _, drawing, sides = drawn_as_cli(netlist)
            check_tighten(drawing, sides)

    @pytest.mark.parametrize("sides, west, south", [
        (("W", "S"), 2, 1),
        (("S", "W"), 1, 2),
    ])
    def test_corner_keeps_room_on_its_host_side(self, sides, west, south):
        # corner 2 leaves by W and S, 4 units each, so either side can host
        # its trap: the first in its order keeps 2 units, the other pulls
        # in to 1. Ends 1 and 3 want room only where nothing is
        drawing = OrthogonalDrawing(
            {1: (0, 0), 2: (4, 0), 3: (4, 4)},
            {(1, 2, 0): ((0, 0), (4, 0)), (2, 3, 0): ((4, 0), (4, 4))},
        )
        tight = tighten(drawing, {2: sides})
        assert tight.node_pos == {1: (0, 0), 2: (west, 0), 3: (west, south)}
        layout = tile(tight, {2: sides})
        assert layout.grid.xs == {x: x for x in range(west + 1)}
        assert layout.grid.ys == {y: y for y in range(south + 1)}
        host = (1, 0) if sides[0] == "W" else (west, 1)
        assert layout.gate_location_of[2] == host

    def test_tiling_tightened_cat_drawings_widens_no_gap(self):
        for n in (8, 32, 80, 160, 320):
            _, drawing, sides = drawn_as_cli(generate_cat_circuit(n))
            layout = tile(tighten(drawing, sides), sides)
            for axis in (layout.grid.xs, layout.grid.ys):
                assert axis == {g: g for g in range(len(axis))}, n


class TestValidityChecker:
    def test_flags_overlap(self):
        bad = OrthogonalDrawing(
            {1: (0, 0), 2: (2, 0), 3: (1, 0), 4: (3, 0)},
            {(1, 2, 0): ((0, 0), (2, 0)), (3, 4, 1): ((1, 0), (3, 0))},
        )
        assert any("overlap" in p for p in validate_drawing(bad))

    def test_flags_unregistered_crossing(self):
        bad = OrthogonalDrawing(
            {1: (0, 1), 2: (2, 1), 3: (1, 0), 4: (1, 2)},
            {(1, 2, 0): ((0, 1), (2, 1)), (3, 4, 1): ((1, 0), (1, 2))},
        )
        assert any("cross" in p for p in validate_drawing(bad))
        ok = OrthogonalDrawing(
            {1: (0, 1), 2: (2, 1), 3: (1, 0), 4: (1, 2)},
            {(1, 2, 0): ((0, 1), (2, 1)), (3, 4, 1): ((1, 0), (1, 2))},
            crossings=((1, 1),),
        )
        assert validate_drawing(ok) == []

    def test_flags_diagonal_and_detached(self):
        bad = OrthogonalDrawing({1: (0, 0), 2: (1, 1)}, {(1, 2, 0): ((0, 0), (1, 1))})
        assert any("axis" in p for p in validate_drawing(bad))
        detached = OrthogonalDrawing({1: (0, 0), 2: (3, 0)}, {(1, 2, 0): ((0, 0), (2, 0))})
        assert any("join" in p for p in validate_drawing(detached))


def test_drawing_exports():
    _, _, drawing = draw(synth_qfg([1, 2, 3], [(1, 2), (2, 3)]))
    assert '"edges"' in drawing.to_json()
    assert drawing.to_svg().startswith("<svg")
