"""Planarization of the qubit flow graph.

Edges are taken greedily in sorted order into a planar subgraph: an edge is
kept unless it makes the kept graph non-planar. Each rejected edge is routed
afterwards through the face-adjacency dual of the current embedding along a
fewest-crossings path, found breadth first, and every crossing becomes a
degree-4 dummy vertex. `_FaceBook` traces the faces of every embedding.
Parallel edges are split with a routing dummy first so the working graph
stays simple.

Planarity tests and embeddings come from `lrplanarity.planar_rings`. The
graph with all edges is tested first: a planar input is taken whole,
and that test's rotation is the final embedding. Otherwise the greedy
choice tests planarity only where it must: the edges are walked in order
against a rotation system of the kept graph that knows the face of every
half-edge and a union-find of the components keyed by node. An edge
whose endpoints lie in different components, or on a common face, can
always be drawn without a crossing, so it joins untested at that face's
corners. So can an edge whose endpoint ends a pendant path (degree-2
nodes ending in a degree-1 node) when another corner of the path's branch
node lies on a face with the other endpoint, or, if both endpoints end
such paths, when the two branch nodes share a face: the paths swing to
that face and the edge joins there. Any other edge costs one planarity
test of the kept graph plus that edge: if planar, the edge stays and the
test's embedding replaces the rotation; if not, it is removed without
trace and deferred. The kept set is therefore exactly that of the
one-by-one loop, and kept edges enter the graph in input order, so the
adjacency order that feeds every later embedding is the same too. The
rotation the greedy holds never leaves it: every embedding after it is
taken from `adj` afresh, so which embedding of the kept graph it held
changes nothing downstream.

The working graph lives on integer ids: flow-graph nodes in `node_key`
order, then split and crossing dummies as they are made, each with a
neighbour dict that keeps `nx.Graph`'s insertion order. The LR kernel,
the face books and the chain splicing run on these ids. Where order
decides a result (face numbering, the final embedding) ids go by the
`node_key` of their labels, kept sorted as dummies come: `x10` sorts before
`x2`. Labels return only when the `PlanarizedGraph` is built, with its
faces and components computed on the ids.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .lrplanarity import planar_rings
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
    adj: dict[Node, list[Node]]  # combinatorial embedding, nodes in `node_key` order
    crossings: frozenset[str]
    splits: frozenset[str]
    chains: dict[tuple[int, int, int], list[Node]]  # QFG edge -> node path
    # derived from `adj` once, where it is built. Face walks are numbered in
    # `node_key` order of each face's first tail, each walk in trace order
    faces: tuple[tuple[HalfEdge, ...], ...] = field(repr=False, compare=False)
    # connected components, each with the indices of its faces (a face
    # belongs to the tail of its first half-edge); nodes are sorted by
    # `node_key` and components by their first node
    components: tuple[tuple[tuple[Node, ...], tuple[int, ...]], ...] = field(
        repr=False, compare=False
    )

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self.adj)

    def check_euler(self) -> None:
        """V - E + F = 2 within every connected component."""
        for comp, face_idx in self.components:
            edge_count = sum(len(self.adj.get(v, [])) for v in comp) // 2
            if edge_count == 0:
                continue
            if len(comp) - edge_count + len(face_idx) != 2:
                raise PlanarizeError(
                    f"Euler check failed: V={len(comp)} E={edge_count} F={len(face_idx)}"
                )


def _rings(adj: list[dict[int, None]]) -> list[list[int]]:
    """The rotation of the planar working graph."""
    rings = planar_rings(adj)
    if rings is None:
        raise PlanarizeError("working graph lost planarity")
    return rings


class _UnionFind:
    """Disjoint sets of nodes, keyed by the node itself, with path halving."""

    def __init__(self, nodes: Iterable[Node]) -> None:
        self.parent = {v: v for v in nodes}

    def find(self, v: Node) -> Node:
        """The root of v's set."""
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def union(self, a: Node, b: Node) -> bool:
        """Merge the sets of a and b; False if they were one set already."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        self.parent[root_b] = root_a
        return True


class _FaceBook:
    """Rotation system of a planar graph (clockwise neighbour lists) and the
    face id of every half-edge. The face walk leaves half-edge (tail, head)
    along the half-edge that follows tail in head's ring. `place` inserts
    edges, keeping the components in a `_UnionFind` keyed by node.

    `rotation` maps each node to its ring: a list over `planarize`'s node
    ids, or any mapping. Faces are numbered in `order` of their first tail;
    `labels`, if given, name the ids in messages."""

    def __init__(
        self, rotation, order: Iterable[Node], labels: list[Node] | None = None
    ) -> None:
        self.order = order
        self.labels = labels
        self.adopt(rotation)

    def adopt(self, rotation) -> None:
        """Replace the rotation (same components) and retrace every face,
        numbered in `order` of each face's first tail."""
        self.rotation = rotation
        self.face_of: dict[HalfEdge, int] = {}
        self.next_face = 0
        for u in self.order:
            for v in rotation[u]:
                if (u, v) not in self.face_of:
                    self._trace((u, v))

    def name(self, v) -> Node:
        return v if self.labels is None else self.labels[v]

    def walks(self) -> tuple[tuple[HalfEdge, ...], ...]:
        """Face walks by face id, each in trace order. Only `adopt` keeps
        that order: after `place`, ids have gaps and walks are reordered."""
        walks: list[list[HalfEdge]] = [[] for _ in range(self.next_face)]
        for half_edge, face in self.face_of.items():
            walks[face].append(half_edge)
        return tuple(map(tuple, walks))

    @cached_property
    def components(self) -> _UnionFind:
        """Connected components, built from the rotation on first use."""
        components = _UnionFind(self.order)
        for u in self.order:
            for v in self.rotation[u]:
                components.union(u, v)
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
        """Insert edge a-b if it joins two components, or two corners of one
        face once the pendant paths that a or b end swing there (`_swing`);
        False (rotation unchanged) if neither holds. The rotation may change
        beyond the new edge, but only to another embedding of the same
        graph."""
        rotation = self.rotation
        if self.components.union(a, b):
            at_a = rotation[a][0] if rotation[a] else None
            at_b = rotation[b][0] if rotation[b] else None
            self._insert(a, at_a, b, at_b, split=False)
            return True
        return self._swing(a, b)

    def _pendant(self, v: Node) -> list[Node] | None:
        """The pendant path v ends, from v through degree-2 nodes to its
        branch node; None unless v has degree 1."""
        rotation = self.rotation
        if len(rotation[v]) != 1:
            return None
        path = [v, rotation[v][0]]
        while len(ring := rotation[path[-1]]) == 2:
            path.append(ring[ring[0] == path[-2]])
        return path

    def _swing(self, a: Node, b: Node) -> bool:
        """Insert a-b into a face both endpoints reach, re-hanging the
        pendant paths they end: a pendant path lies inside one face and can
        hang in any corner of its branch node, its pivot. An endpoint that
        ends no path stays, as its own pivot, so with no pendant endpoint
        this is a face shared by a and b. The first face at b's pivot (in
        ring order) that is also at a's pivot takes the edge; False
        (rotation unchanged) if there is none."""
        face_of, rotation = self.face_of, self.rotation
        path_a, path_b = self._pendant(a), self._pendant(b)
        pivot_a = a if path_a is None else path_a[-1]
        pivot_b = b if path_b is None else path_b[-1]
        # each face at a's pivot, with the first neighbour whose half-edge
        # from the pivot lies on it: an edge inserted before it enters the face
        corner_of = {face_of[(pivot_a, y)]: y for y in reversed(rotation[pivot_a])}
        for y in rotation[pivot_b]:
            face = face_of[(pivot_b, y)]
            if face in corner_of:
                break
        else:
            return False
        for path in (path_a, path_b):
            if path is not None:
                self._rehang(path, face)
        # an end has one corner; a staying endpoint's corner still opens
        # onto `face`, even if a path was re-hung there (just before it)
        at_a = corner_of[face] if path_a is None else path_a[1]
        at_b = y if path_b is None else path_b[1]
        self._insert(a, at_a, b, at_b, split=True)
        return True

    def _rehang(self, path: list[Node], face: int) -> None:
        """Move a pendant path (loose end first, branch node last) to the
        first corner of its branch node on `face`, unless it lies there.
        Only the path's half-edges change face, and they keep their old
        face id: the edge `_swing` then inserts retraces all of `face`."""
        pivot, stem = path[-1], path[-2]
        face_of = self.face_of
        if face_of[(pivot, stem)] == face:
            return
        ring = self.rotation[pivot]
        at = next(y for y in ring if face_of[(pivot, y)] == face)  # not the stem
        ring.remove(stem)
        ring.insert(ring.index(at), stem)

    def _insert(self, a: Node, at_a: Node | None, b: Node, at_b: Node | None, split: bool) -> None:
        """Put b before at_a in a's ring and a before at_b in b's ring (None:
        the ring is empty), then retrace the faces the new edge touches."""
        for u, at, v in ((a, at_a, b), (b, at_b, a)):
            ring = self.rotation[u]
            ring.insert(0 if at is None else ring.index(at), v)
        face = self._trace((a, b))
        if (self.face_of.get((b, a)) == face) == split:
            raise PlanarizeError(
                f"edge {self.name(a)}-{self.name(b)} did not {'split' if split else 'merge'} "
                "its faces: stale face bookkeeping"
            )
        if split:
            self._trace((b, a))


def _add_edge(adj: list[dict[int, None]], a: int, b: int) -> None:
    """Add edge a-b at the end of both neighbour dicts, as `nx.Graph` does."""
    adj[a][b] = None
    adj[b][a] = None


def _add_planar_greedy(
    adj: list[dict[int, None]], edges: list[tuple[int, int]], labels: list[Node]
) -> list[tuple[int, int]]:
    """Add each edge in order unless it breaks planarity; return the rest.

    Same result as testing edges one at a time, with a test only for an
    edge whose endpoints share no face (see the module docstring). `adj` is
    the edgeless working graph over every endpoint.
    """
    book = _FaceBook([[] for _ in adj], range(len(adj)), labels)
    deferred: list[tuple[int, int]] = []
    for a, b in edges:
        _add_edge(adj, a, b)
        if book.place(a, b):
            continue
        rings = planar_rings(adj)
        if rings is not None:
            book.adopt(rings)
        else:  # deleting the keys leaves no trace in adjacency order
            del adj[a][b], adj[b][a]
            deferred.append((a, b))
    return deferred


def _route_through_faces(book: _FaceBook, u, v) -> list[frozenset]:
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
        raise PlanarizeError(f"no dual route between {book.name(u)} and {book.name(v)}")
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

    # the working graph: nodes are ids in `nx.Graph` insertion order (flow
    # graph nodes by `node_key`, then split and crossing dummies as they
    # come), `adj` their neighbour dicts in `nx.Graph` adjacency order
    labels: list[Node] = sorted(qfg.nodes, key=node_key)
    ident = {v: k for k, v in enumerate(labels)}
    chains: dict[tuple[int, int, int], list[int]] = {}  # chain paths by id
    edges: list[tuple[int, int]] = []
    seen_pairs: set[frozenset] = set()
    for key in sorted(qfg.edges):
        i, j = ident[key[0]], ident[key[1]]
        pair = frozenset((i, j))
        if pair in seen_pairs:
            dummy = len(labels)
            labels.append(f"s{dummy - len(ident)}")
            chains[key] = [i, dummy, j]
            edges += ((i, dummy), (dummy, j))
        else:
            seen_pairs.add(pair)
            chains[key] = [i, j]
            edges.append((i, j))
    splits = labels[len(ident):]

    keys = [node_key(v) for v in labels]
    order = sorted(range(len(labels)), key=keys.__getitem__)  # ids by node_key
    adj: list[dict[int, None]] = [{} for _ in labels]
    for a, b in edges:
        _add_edge(adj, a, b)
    rotation = planar_rings(adj)  # if planar, the final embedding
    deferred: list[tuple[int, int]] = []
    if rotation is None:
        for nbrs in adj:
            nbrs.clear()
        deferred = _add_planar_greedy(adj, edges, labels)

    crossings: list[int] = []
    # the working graph is simple: each node pair is one step of one chain
    step_key = {
        frozenset(step): key for key, path in chains.items() for step in zip(path, path[1:])
    }
    for a, b in deferred:
        book = _FaceBook(_rings(adj), order, labels)
        crossed = _route_through_faces(book, a, b)
        prev = a
        for edge in crossed:
            x, y = sorted(edge, key=keys.__getitem__)
            dummy = len(labels)
            labels.append(f"x{len(crossings)}")
            keys.append(node_key(labels[dummy]))
            insort(order, dummy, key=keys.__getitem__)
            adj.append({})
            crossings.append(dummy)
            del adj[x][y], adj[y][x]
            _add_edge(adj, x, dummy)
            _add_edge(adj, dummy, y)
            _splice_chain(chains, step_key, x, y, [x, dummy, y], labels)
            _add_edge(adj, prev, dummy)
            prev = dummy
        _add_edge(adj, prev, b)
        inserted = crossings[len(crossings) - len(crossed):]
        _splice_chain(chains, step_key, a, b, [a, *inserted, b], labels)

    if rotation is None:
        rotation = _rings(adj)
    book = _FaceBook(rotation, order, labels)
    walks = book.walks()
    # components by their first node in `order`, each with its nodes in
    # `order` and the faces whose first tail it holds
    find = book.components.find
    comps: dict[int, tuple[list[int], list[int]]] = {}
    for v in order:
        comps.setdefault(find(v), ([], []))[0].append(v)
    for fi, walk in enumerate(walks):
        comps[find(walk[0][0])][1].append(fi)
    name = labels.__getitem__
    pg = PlanarizedGraph(
        adj={labels[v]: list(map(name, rotation[v])) for v in order},
        crossings=frozenset(map(name, crossings)),
        splits=frozenset(splits),
        chains={key: list(map(name, path)) for key, path in chains.items()},
        faces=tuple(tuple((labels[a], labels[b]) for a, b in walk) for walk in walks),
        components=tuple(
            (tuple(map(name, members)), tuple(faces)) for members, faces in comps.values()
        ),
    )
    pg.check_euler()
    return pg


def _splice_chain(
    chains: dict,
    step_key: dict[frozenset, tuple],
    a: int,
    b: int,
    new_path: list[int],
    labels: list[Node],
) -> None:
    """Replace the chain step between a and b, in either direction, by
    `new_path` (which runs from a to b). `step_key` maps the node pair of
    every chain step to its chain and is kept up to date."""
    key = step_key.pop(frozenset((a, b)), None)
    if key is None:
        raise PlanarizeError(f"edge {labels[a]}-{labels[b]} not found in any chain")
    path = chains[key]
    pos = path.index(a)
    if pos + 1 < len(path) and path[pos + 1] == b:
        chains[key] = path[:pos] + new_path + path[pos + 2:]
    else:  # the step runs from b to a
        chains[key] = path[:pos - 1] + new_path[::-1] + path[pos + 1:]
    for step in zip(new_path, new_path[1:]):
        step_key[frozenset(step)] = key
