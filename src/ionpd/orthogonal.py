"""Bend-minimal orthogonal representation via minimum-cost network flow.

Angles and bends are 90-degree units carried as flow: every vertex supplies
four units, each vertex-face corner consumes at least one, and each face
consumes 2*deg - 4 units (external: 2*deg + 4). Routing surplus units across
an edge from one face to the other is one bend. An integral minimum-cost
flow, found by network simplex, therefore encodes an orthogonal
representation of the fixed embedding; feasibility is guaranteed for max
degree four (Tamassia, SIAM J. Comput. 1987).

Costs are lexicographic. Each bend costs more than all other arcs together
can, so the bend count is exactly minimal. Among bend-minimal flows the
rest prefer straight angles: a corner's second unit is free and its third
and fourth cost one each, or two each at a degree-2 vertex whose edges
carry the same qubit. At degree 1, 3 and 4 the angles are forced up to
rotation, so only the choice between a turn and a straight pass at degree-2
vertices is affected, and a qubit passing through a gate is kept straight
first.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .macrolayout import LayoutError
from .planar import HalfEdge, Node, PlanarizedGraph

# Cost of each angle unit a corner takes beyond its second (a straight
# angle); a turn at a degree-2 vertex costs one such unit.
_WIDE_COST = 1
_WIDE_COST_SAME_QUBIT = 2


def min_cost_flow(
    node_count: int,
    arcs: list[tuple[int, int, int, int]],  # (from, to, capacity, cost)
    demand: list[int],  # negative = supply
) -> list[int]:
    """Integral min-cost flow by network simplex; one flow value per arc.

    Arcs may repeat a node pair (two faces sharing several edges), so the
    network is a multigraph keyed by arc index.
    """
    network = nx.MultiDiGraph()
    network.add_nodes_from((node, {"demand": demand[node]}) for node in range(node_count))
    for key, (u, v, cap, cost) in enumerate(arcs):
        network.add_edge(u, v, key, capacity=cap, weight=cost)
    try:
        _, flow = nx.network_simplex(network)
    except nx.NetworkXUnfeasible as exc:
        raise LayoutError(f"flow network infeasible: {exc}") from exc
    return [flow[u][v][key] for key, (u, v, _, _) in enumerate(arcs)]


@dataclass(frozen=True)
class OrthoRep:
    """Faces with per-corner angles and per-half-edge convex bend counts.

    `angles[(face, corner)]` is the 90-degree units at the head vertex of
    `faces[face][corner]` inside that face; `bends[(u, v)]` counts bends
    drawn convex on the walk side of half-edge (u, v).
    """

    faces: tuple[tuple[HalfEdge, ...], ...]
    ext_face: frozenset[int]
    angles: dict[tuple[int, int], int]
    bends: dict[HalfEdge, int]

    @property
    def total_bends(self) -> int:
        return sum(self.bends.values())

    def edge_bends(self, u: Node, v: Node) -> int:
        return self.bends.get((u, v), 0) + self.bends.get((v, u), 0)

    def angle_at(self, vertex: Node) -> list[int]:
        out = []
        for fi, walk in enumerate(self.faces):
            for ci, (_, head) in enumerate(walk):
                if head == vertex:
                    out.append(self.angles[(fi, ci)])
        return out


def _wide_costs(pg: PlanarizedGraph, degree: dict[Node, int]) -> dict[Node, int]:
    """Per-vertex cost of each angle unit beyond a straight angle."""
    qubit_of = {
        frozenset(pair): key[2]
        for key, chain in pg.chains.items()
        for pair in zip(chain, chain[1:])
    }
    costs = {}
    for v, d in degree.items():
        through = d == 2 and len({qubit_of[frozenset((v, w))] for w in pg.adj[v]}) == 1
        costs[v] = _WIDE_COST_SAME_QUBIT if through else _WIDE_COST
    return costs


def orthogonalize(pg: PlanarizedGraph) -> OrthoRep:
    """Minimum-bend representation of the embedding, per component."""
    faces = pg.faces()
    degree = {v: len(pg.adj.get(v, [])) for v in pg.nodes}
    wide_cost = _wide_costs(pg, degree)
    angles: dict[tuple[int, int], int] = {}
    bends: dict[HalfEdge, int] = {}
    ext_faces: set[int] = set()

    for comp, face_idx in pg.component_faces():
        if not face_idx:
            continue  # isolated node: no angles to assign
        # the external face is the longest walk (ties: smallest index)
        ext = max(face_idx, key=lambda fi: (len(faces[fi]), -fi))
        ext_faces.add(ext)

        ids: dict[object, int] = {}

        def nid(key: object) -> int:
            if key not in ids:
                ids[key] = len(ids)
            return ids[key]

        arcs: list[tuple[int, int, int, int]] = []
        corner_arcs: list[tuple[int, int]] = []
        bend_arcs: list[HalfEdge] = []
        demand_map: dict[int, int] = {}

        for v in comp:
            if degree[v]:
                demand_map[nid(("v", v))] = degree[v] - 4
        half_edge_face = {}
        for fi in face_idx:
            walk = faces[fi]
            d = len(walk)
            demand_map[nid(("f", fi))] = (d + 4) if fi == ext else (d - 4)
            for ci, he in enumerate(walk):
                half_edge_face[he] = fi
                corner_arcs.append((fi, ci))
                v, f = nid(("v", he[1])), nid(("f", fi))
                arcs.append((v, f, 1, 0))
                arcs.append((v, f, 2, wide_cost[he[1]]))
        # one bend outweighs every corner cost of the component together
        bend_cost = 4 * len(corner_arcs) + 1
        for fi in face_idx:
            for he in faces[fi]:
                twin = (he[1], he[0])
                gi = half_edge_face[twin]
                if gi == fi:
                    continue  # bridge: bends cancel inside one face
                bend_arcs.append(he)
                arcs.append((nid(("f", fi)), nid(("f", gi)), 1 << 20, bend_cost))

        demand = [0] * len(ids)
        for node, d in demand_map.items():
            demand[node] = d
        flows = min_cost_flow(len(ids), arcs, demand)

        for k, corner in enumerate(corner_arcs):
            angles[corner] = 1 + flows[2 * k] + flows[2 * k + 1]
        pos = 2 * len(corner_arcs)
        for k, he in enumerate(bend_arcs):
            bends[he] = flows[pos + k]

    # cancel opposite-direction bends on one edge: a convex/reflex pair is
    # never optimal and a one-sided string keeps downstream bookkeeping simple
    for he in list(bends):
        twin = (he[1], he[0])
        common = min(bends.get(he, 0), bends.get(twin, 0))
        if common:
            bends[he] -= common
            bends[twin] -= common

    around: dict[Node, int] = {}
    for fi, walk in enumerate(faces):
        for ci, (_, head) in enumerate(walk):
            around[head] = around.get(head, 0) + angles[(fi, ci)]
    for v, total in around.items():
        if total != 4:
            raise LayoutError(f"angles around {v} sum to {total}")

    return OrthoRep(
        faces=faces,
        ext_face=frozenset(ext_faces),
        angles=angles,
        bends=bends,
    )
