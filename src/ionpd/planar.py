"""Planarization of the qubit flow graph.

Edges are taken greedily in sorted order into a planar subgraph: an edge is
kept unless it makes the kept graph non-planar. Each rejected edge is routed
afterwards through the face-adjacency dual of the current embedding along a
fewest-crossings path, and every crossing becomes a degree-4 dummy vertex.
Parallel edges are split with a routing dummy first so the working graph
stays simple.

The greedy choice tests planarity only where it must. The kept graph plus
all edges is tested once, and a planar input is taken whole. Otherwise the
edges are walked in order against a rotation system of the kept graph
that knows the face of every half-edge. An edge whose endpoints lie in
different components, or on a common face, can always be drawn without a
crossing, so it joins untested at that face's corners. Any other edge
costs one planarity test of the kept graph plus that edge: if planar, the
edge stays and the test's embedding replaces the rotation; if not, it is
removed without trace and deferred. The kept set is therefore exactly that
of the one-by-one loop, and kept edges enter the graph in input order, so
the adjacency order that feeds every later embedding is the same too.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import networkx as nx

from .qfg import QubitFlowGraph

Node = object  # int for instructions, str for dummies ("x0" crossing, "s0" split)
HalfEdge = tuple  # (tail, head)


class PlanarizeError(ValueError):
    """Input unusable for drawing (node degree above four), or a broken
    planarization invariant."""


def node_key(v: Node):
    """Deterministic sort key over mixed int/str node ids."""
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def faces_from_embedding(adj: dict[Node, list[Node]]) -> list[list[HalfEdge]]:
    """Trace all face walks of a rotation system (clockwise neighbour lists)."""
    faces: list[list[HalfEdge]] = []
    seen: set[HalfEdge] = set()
    for u in sorted(adj, key=node_key):
        for v in adj[u]:
            if (u, v) in seen:
                continue
            walk: list[HalfEdge] = []
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


@dataclass(frozen=True)
class PlanarizedGraph:
    nodes: tuple[Node, ...]
    adj: dict[Node, list[Node]]  # combinatorial embedding
    crossings: frozenset[str]
    splits: frozenset[str]
    chains: dict[tuple[int, int, int], list[Node]]  # QFG edge -> node path

    def faces(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Face walks of the embedding, traced once per graph."""
        return self._faces

    @cached_property
    def _faces(self) -> tuple[tuple[HalfEdge, ...], ...]:
        return tuple(tuple(walk) for walk in faces_from_embedding(self.adj))

    def components(self) -> list[tuple[Node, ...]]:
        return [comp for comp, _ in self.component_faces()]

    def component_faces(self) -> tuple[tuple[tuple[Node, ...], tuple[int, ...]], ...]:
        """Connected components, each with the indices of its faces (a face
        belongs to the tail of its first half-edge), computed once per graph.
        Nodes are sorted by `node_key` and components by their first node."""
        return self._component_faces

    @cached_property
    def _component_faces(self) -> tuple[tuple[tuple[Node, ...], tuple[int, ...]], ...]:
        graph = nx.from_dict_of_lists(self.adj)
        comps = sorted(
            (tuple(sorted(comp, key=node_key)) for comp in nx.connected_components(graph)),
            key=lambda comp: node_key(comp[0]),
        )
        comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
        face_idx: list[list[int]] = [[] for _ in comps]
        for fi, walk in enumerate(self.faces()):
            face_idx[comp_of[walk[0][0]]].append(fi)
        return tuple(zip(comps, map(tuple, face_idx)))

    def check_euler(self) -> None:
        """V - E + F = 2 within every connected component."""
        for comp, face_idx in self.component_faces():
            edge_count = sum(len(self.adj.get(v, [])) for v in comp) // 2
            if edge_count == 0:
                continue
            if len(comp) - edge_count + len(face_idx) != 2:
                raise PlanarizeError(
                    f"Euler check failed: V={len(comp)} E={edge_count} F={len(face_idx)}"
                )


def _fresh_embedding(graph: nx.Graph) -> dict[Node, list[Node]]:
    is_planar, embedding = nx.check_planarity(graph)
    if not is_planar:
        raise PlanarizeError("working graph lost planarity")
    data = embedding.get_data()
    return {v: data.get(v, []) for v in sorted(graph.nodes, key=node_key)}


class _FaceBook:
    """Rotation system of a planar graph, the face id of every half-edge
    (the `faces_from_embedding` walk rule) and a union-find of components.
    It starts with the given nodes and no edges."""

    def __init__(self, nodes: Iterable[Node]):
        self.adopt({v: [] for v in nodes})
        self.components = nx.utils.UnionFind(self.rotation)

    def adopt(self, rotation: dict[Node, list[Node]]) -> None:
        """Replace the rotation (same components) and retrace every face."""
        self.rotation = rotation
        self.face_of: dict[HalfEdge, int] = {}
        self.next_face = 0
        for u, ring in rotation.items():
            for v in ring:
                if (u, v) not in self.face_of:
                    self._trace((u, v))

    def _trace(self, start: HalfEdge) -> int:
        """Give the face walk through `start` a fresh id; return the id."""
        face, self.next_face = self.next_face, self.next_face + 1
        face_of, rotation = self.face_of, self.rotation
        cur = start
        while True:
            face_of[cur] = face
            tail, head = cur
            ring = rotation[head]
            cur = (head, ring[(ring.index(tail) + 1) % len(ring)])
            if cur == start:
                return face

    def place(self, a: Node, b: Node) -> bool:
        """Insert edge a-b if it joins two components or two corners of one
        face; False (rotation unchanged) if neither holds."""
        rotation = self.rotation
        if self.components[a] != self.components[b]:
            self.components.union(a, b)
            at_a = rotation[a][0] if rotation[a] else None
            at_b = rotation[b][0] if rotation[b] else None
            self._insert(a, at_a, b, at_b, split=False)
            return True
        corner_of = {self.face_of[(a, y)]: y for y in reversed(rotation[a])}
        for y in rotation[b]:
            face = self.face_of[(b, y)]
            if face in corner_of:
                self._insert(a, corner_of[face], b, y, split=True)
                return True
        return False

    def _insert(self, a: Node, at_a: Node | None, b: Node, at_b: Node | None, split: bool) -> None:
        """Put b before at_a in a's ring and a before at_b in b's ring (None:
        the ring is empty), then retrace the faces the new edge touches."""
        for u, at, v in ((a, at_a, b), (b, at_b, a)):
            ring = self.rotation[u]
            ring.insert(0 if at is None else ring.index(at), v)
        face = self._trace((a, b))
        if (self.face_of.get((b, a)) == face) == split:
            raise PlanarizeError(
                f"edge {a}-{b} did not {'split' if split else 'merge'} its faces: "
                "stale face bookkeeping"
            )
        if split:
            self._trace((b, a))


def _add_planar_greedy(
    graph: nx.Graph, edges: list[tuple[Node, Node]]
) -> list[tuple[Node, Node]]:
    """Add each edge in order unless it breaks planarity; return the rest.

    Same result as testing edges one at a time, with a test only for an
    edge whose endpoints share no face (see the module docstring). `graph`
    holds every endpoint as a node and no edges yet.
    """
    graph.add_edges_from(edges)
    is_planar = nx.check_planarity(graph)[0]
    graph.remove_edges_from(edges)  # deletes the keys: no trace in adjacency order
    if is_planar:
        graph.add_edges_from(edges)
        return []

    book = _FaceBook(graph.nodes)
    deferred: list[tuple[Node, Node]] = []
    for a, b in edges:
        graph.add_edge(a, b)
        if book.place(a, b):
            continue
        is_planar, embedding = nx.check_planarity(graph)
        if is_planar:
            book.adopt(embedding.get_data())
        else:
            graph.remove_edge(a, b)
            deferred.append((a, b))
    return deferred


def _route_through_faces(
    adj: dict[Node, list[Node]], u: Node, v: Node
) -> list[frozenset]:
    """Edges to cross when inserting (u, v): fewest-crossings dual path."""
    faces = faces_from_embedding(adj)
    incident: dict[Node, list[int]] = {}
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
                continue  # crossing an endpoint-incident edge would double an edge
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


def planarize(qfg: QubitFlowGraph) -> PlanarizedGraph:
    """Planar embedding of the flow graph with crossings as dummy vertices."""
    degree = Counter(v for i, j, _ in qfg.edges for v in (i, j))
    for node, count in sorted(degree.items()):
        if count > 4:
            raise PlanarizeError(
                f"node {node} has degree {count}; orthogonal drawing needs <= 4"
            )

    chains: dict[tuple[int, int, int], list[Node]] = {}
    simple_edges: list[tuple[Node, Node]] = []
    seen_pairs: set[frozenset] = set()
    splits: list[str] = []
    for key in sorted(qfg.edges):
        i, j, _ = key
        pair = frozenset((i, j))
        if pair in seen_pairs:
            dummy = f"s{len(splits)}"
            splits.append(dummy)
            chains[key] = [i, dummy, j]
            simple_edges.append((i, dummy))
            simple_edges.append((dummy, j))
        else:
            seen_pairs.add(pair)
            chains[key] = [i, j]
            simple_edges.append((i, j))

    graph = nx.Graph()
    for node in sorted(qfg.nodes, key=node_key):
        graph.add_node(node)
    for dummy in splits:
        graph.add_node(dummy)

    deferred = _add_planar_greedy(graph, simple_edges)

    crossings: list[str] = []
    for a, b in deferred:
        adj = _fresh_embedding(graph)
        crossed = _route_through_faces(adj, a, b)
        prev = a
        for edge in crossed:
            x, y = sorted(edge, key=node_key)
            dummy = f"x{len(crossings)}"
            crossings.append(dummy)
            graph.remove_edge(x, y)
            graph.add_edge(x, dummy)
            graph.add_edge(dummy, y)
            _splice_chain(chains, x, y, [x, dummy, y])
            graph.add_edge(prev, dummy)
            prev = dummy
        graph.add_edge(prev, b)
        inserted = crossings[len(crossings) - len(crossed):]
        _splice_chain(chains, a, b, [a, *inserted, b])

    adj = _fresh_embedding(graph)
    pg = PlanarizedGraph(
        nodes=tuple(sorted(graph.nodes, key=node_key)),
        adj=adj,
        crossings=frozenset(crossings),
        splits=frozenset(splits),
        chains=chains,
    )
    pg.check_euler()
    return pg


def _splice_chain(chains: dict, a: Node, b: Node, new_path: list[Node]) -> None:
    """Replace the first chain step between a and b, in either direction, by
    `new_path` (which runs from a to b)."""
    for key, path in chains.items():
        for pos in range(len(path) - 1):
            if {path[pos], path[pos + 1]} == {a, b}:
                orientation = new_path if path[pos] == a else list(reversed(new_path))
                chains[key] = path[:pos] + orientation + path[pos + 2:]
                return
    raise PlanarizeError(f"edge {a}-{b} not found in any chain")
