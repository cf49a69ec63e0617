"""Planarization of the qubit flow graph.

Edges are taken greedily in sorted order into a planar subgraph: an edge is
kept unless it makes the kept graph non-planar. Each rejected edge is routed
afterwards through the face-adjacency dual of the current embedding along a
fewest-crossings path, found breadth first, and every crossing becomes a
degree-4 dummy vertex. `_FaceBook` traces the faces of every embedding.
Parallel edges are split with a routing dummy first so the working graph
stays simple.

Planarity tests and embeddings come from `lrplanarity.planar_rotation`.
The graph with all edges is tested first: a planar input is taken whole,
and that test's rotation is the final embedding. Otherwise the greedy
choice tests planarity only where it must: the edges are walked in order
against a rotation system of the kept graph that knows the face of every
half-edge. An edge whose endpoints lie in different components, or on a
common face, can always be drawn without a crossing, so it joins untested
at that face's corners. Any other edge costs one planarity test of the
kept graph plus that edge: if planar, the edge stays and the test's
embedding replaces the rotation; if not, it is removed without trace and
deferred. The kept set is therefore exactly that of the one-by-one loop,
and kept edges enter the graph in input order, so the adjacency order that
feeds every later embedding is the same too.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

import networkx as nx

from .lrplanarity import planar_rotation
from .qfg import QubitFlowGraph

Node = object  # int for instructions, str for dummies ("x0" crossing, "s0" split)
HalfEdge = tuple  # (tail, head)


class PlanarizeError(ValueError):
    """Input unusable for drawing (node degree above four), or a broken
    planarization invariant."""


def node_key(v: Node):
    """Deterministic sort key over mixed int/str node ids."""
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


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
        return _FaceBook(self.adj).walks()

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


def _embedding(rotation: dict[Node, list[Node]] | None) -> dict[Node, list[Node]]:
    """A planarity test's rotation with nodes in `node_key` order."""
    if rotation is None:
        raise PlanarizeError("working graph lost planarity")
    return {v: rotation[v] for v in sorted(rotation, key=node_key)}


class _FaceBook:
    """Rotation system of a planar graph (clockwise neighbour lists) and the
    face id of every half-edge. The face walk leaves half-edge (tail, head)
    along the half-edge that follows tail in head's ring. `place` inserts
    edges, keeping a union-find of the components."""

    def __init__(self, rotation: dict[Node, list[Node]]):
        self.adopt(rotation)

    def adopt(self, rotation: dict[Node, list[Node]]) -> None:
        """Replace the rotation (same components) and retrace every face,
        numbered in `node_key` order of each face's first tail."""
        self.rotation = rotation
        self.face_of: dict[HalfEdge, int] = {}
        self.next_face = 0
        for u in sorted(rotation, key=node_key):
            for v in rotation[u]:
                if (u, v) not in self.face_of:
                    self._trace((u, v))

    def walks(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Face walks by face id, each in trace order. Only `adopt` keeps
        that order: after `place`, ids have gaps and walks are reordered."""
        walks: list[list[HalfEdge]] = [[] for _ in range(self.next_face)]
        for half_edge, face in self.face_of.items():
            walks[face].append(half_edge)
        return tuple(map(tuple, walks))

    @cached_property
    def components(self) -> nx.utils.UnionFind:
        """Connected components, built from the rotation on first use."""
        components = nx.utils.UnionFind(self.rotation)
        for u, ring in self.rotation.items():
            components.union(u, *ring)
        return components

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
    book = _FaceBook({v: [] for v in graph.nodes})
    deferred: list[tuple[Node, Node]] = []
    for a, b in edges:
        graph.add_edge(a, b)
        if book.place(a, b):
            continue
        rotation = planar_rotation(graph)
        if rotation is not None:
            book.adopt(rotation)
        else:
            graph.remove_edge(a, b)
            deferred.append((a, b))
    return deferred


def _route_through_faces(book: _FaceBook, u: Node, v: Node) -> list[frozenset]:
    """Edges to cross when inserting (u, v): a fewest-crossings path through
    the dual of the book's embedding, searched breadth first from u's faces
    in ascending id. The face across half-edge (a, b) is that of (b, a)."""
    face_of, walks = book.face_of, book.walks()
    sources = sorted({face_of[(u, y)] for y in book.rotation[u]})
    targets = {face_of[(v, y)] for y in book.rotation[v]}
    back: dict[int, tuple[int, frozenset] | None] = dict.fromkeys(sources)
    queue = deque(sources)
    while queue:
        face = queue.popleft()
        if face in targets:
            break
        for a, b in walks[face]:
            if u in (a, b) or v in (a, b):
                continue  # crossing an endpoint-incident edge would double an edge
            across = face_of[(b, a)]
            if across not in back:  # a bridge has its own face on both sides
                back[across] = (face, frozenset((a, b)))
                queue.append(across)
    else:
        raise PlanarizeError(f"no dual route between {u} and {v}")
    crossed: list[frozenset] = []
    while back[face] is not None:
        face, edge = back[face]
        crossed.append(edge)
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

    graph.add_edges_from(simple_edges)
    rotation = planar_rotation(graph)  # if planar, the final embedding
    deferred: list[tuple[Node, Node]] = []
    if rotation is None:
        graph.remove_edges_from(simple_edges)  # deletes the keys: no trace in adjacency order
        deferred = _add_planar_greedy(graph, simple_edges)

    crossings: list[str] = []
    # the working graph is simple: each node pair is one step of one chain
    step_key = {
        frozenset(step): key for key, path in chains.items() for step in zip(path, path[1:])
    }
    for a, b in deferred:
        book = _FaceBook(_embedding(planar_rotation(graph)))
        crossed = _route_through_faces(book, a, b)
        prev = a
        for edge in crossed:
            x, y = sorted(edge, key=node_key)
            dummy = f"x{len(crossings)}"
            crossings.append(dummy)
            graph.remove_edge(x, y)
            graph.add_edge(x, dummy)
            graph.add_edge(dummy, y)
            _splice_chain(chains, step_key, x, y, [x, dummy, y])
            graph.add_edge(prev, dummy)
            prev = dummy
        graph.add_edge(prev, b)
        inserted = crossings[len(crossings) - len(crossed):]
        _splice_chain(chains, step_key, a, b, [a, *inserted, b])

    if rotation is None:
        rotation = planar_rotation(graph)
    pg = PlanarizedGraph(
        nodes=tuple(sorted(graph.nodes, key=node_key)),
        adj=_embedding(rotation),
        crossings=frozenset(crossings),
        splits=frozenset(splits),
        chains=chains,
    )
    pg.check_euler()
    return pg


def _splice_chain(
    chains: dict, step_key: dict[frozenset, tuple], a: Node, b: Node, new_path: list[Node]
) -> None:
    """Replace the chain step between a and b, in either direction, by
    `new_path` (which runs from a to b). `step_key` maps the node pair of
    every chain step to its chain and is kept up to date."""
    key = step_key.pop(frozenset((a, b)), None)
    if key is None:
        raise PlanarizeError(f"edge {a}-{b} not found in any chain")
    path = chains[key]
    pos = path.index(a)
    if pos + 1 < len(path) and path[pos + 1] == b:
        chains[key] = path[:pos] + new_path + path[pos + 2:]
    else:  # the step runs from b to a
        chains[key] = path[:pos - 1] + new_path[::-1] + path[pos + 1:]
    for step in zip(new_path, new_path[1:]):
        step_key[frozenset(step)] = key
