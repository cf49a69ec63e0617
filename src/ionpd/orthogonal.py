"""Bend-minimal orthogonal representation via minimum-cost network flow.

Angles and bends are 90-degree units carried as flow: every vertex supplies
four units, each vertex-face corner consumes at least one, and each face
consumes 2*deg - 4 units (external: 2*deg + 4). Routing surplus units across
an edge from one face to the other is one bend. An integral minimum-cost
flow therefore encodes an orthogonal representation of the fixed
embedding; feasibility is guaranteed for max degree four (Tamassia, SIAM J.
Comput. 1987). The flow comes from `NetworkSimplex`, an in-tree port of
networkx 3.6.1's network simplex over plain lists that makes the same
pivots, so the bends do not depend on the installed networkx.

Costs are lexicographic. Each bend costs more than all other arcs together
can, so the bend count is exactly minimal. Among bend-minimal flows the
rest prefer straight angles: a corner's second unit is free and its third
and fourth cost one each, or two each at a degree-2 vertex whose edges
carry the same qubit. At degree 1, 3 and 4 the angles are forced up to
rotation, so only the choice between a turn and a straight pass at degree-2
vertices is affected, and a qubit passing through a gate is kept straight
first.

Those prices do not say where along a chain a turn goes, so a face drawn
as a rectangle may get one long side opposite a short one, which the
compaction then stretches. The last step of `orthogonalize`,
`balance_corners`, moves the corners of each such face (internal, a simple
cycle, no bends, four convex corners and all others straight) so that
opposite sides match in edge count as well as they can, each corner only
onto a vertex with the same other face and the same turn price, so the
flow cost and the bends stay minimal.

Any face may be the external one. `orthogonalize` puts each component's
longest walk outside. If the graph has crossings, it also draws
`OrthoRep.alternate`, with the second walk of that ranking outside, and
keeps it only if it bends no more. The network simplex is resumable for
that: the move sends the external face's 8 extra angle units on from the
old face to the new one over an added arc that costs as much as an
artificial arc, and the simplex pivots on from the old optimum until that
arc is empty, in a fraction of a cold solve's pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from math import ceil, sqrt

from .macrolayout import LayoutError
from .planar import HalfEdge, Node, PlanarizedGraph

# Cost of each angle unit a corner takes beyond its second (a straight
# angle); a turn at a degree-2 vertex costs one such unit.
_WIDE_COST = 1
_WIDE_COST_SAME_QUBIT = 2


class NetworkSimplex:
    """An integral min-cost flow by network simplex that can be re-solved
    warm after moving demand between two nodes.

    The cold solve is a port of networkx 3.6.1's `network_simplex` on plain
    lists that pivots exactly as networkx does on a `MultiDiGraph` with
    nodes 0..n-1 and arc k added as edge key k, so `flows` returns the same
    optimal flow among ties:

    - arcs are ordered as networkx enumerates that graph: by source node,
      then by the first appearance of each (from, to) pair, then by index;
      zero-capacity arcs and self-loops are left out (a self-loop is
      saturated if its cost is negative);
    - every node is joined to the root by an artificial arc that starts out
      carrying its demand, with cost and capacity 3 * max(total capacity,
      total |cost|, total |demand|);
    - the artificial root is index -1, the last entry of the n+1-long tree
      lists; potentials are n long, so there -1 aliases node n-1, an entry
      no pivot reads;
    - entering arcs: the first minimum reduced cost of each block of
      ceil(sqrt(priced arcs)) arcs, blocks wrapping around the arc list;
      leaving arc: the first minimum residual capacity walking the cycle
      backwards.

    `move` keeps the optimal spanning tree and its flow, which stay feasible
    once the moved units travel on an added arc (see there), so a re-solve
    takes a fraction of a cold solve's pivots.
    """

    def __init__(
        self,
        node_count: int,
        arcs: list[tuple[int, int, int, int]],  # (from, to, capacity, cost)
        demand: list[int],  # negative = supply
    ) -> None:
        if sum(demand) != 0:
            raise LayoutError("flow network infeasible: total node demand is not zero")
        if any(cap < 0 for _, _, cap, _ in arcs):
            raise LayoutError("flow network infeasible: negative arc capacity")
        first: dict[tuple[int, int], int] = {}
        for k, (u, v, _, _) in enumerate(arcs):
            first.setdefault((u, v), k)
        real = sorted(
            (k for k, (u, v, cap, _) in enumerate(arcs) if cap and u != v),
            key=lambda k: (arcs[k][0], first[arcs[k][:2]], k),
        )
        n = node_count
        self.arcs, self.real = arcs, real
        # priced arcs: the real ones, then those `move` adds
        self.priced = edge_count = len(real)
        self.source = source = [arcs[k][0] for k in real]
        self.target = target = [arcs[k][1] for k in real]
        capacity = [arcs[k][2] for k in real]
        weight = [arcs[k][3] for k in real]
        self.faux_inf = faux_inf = (
            3 * max(sum(capacity), sum(map(abs, weight)), sum(map(abs, demand))) or 1
        )
        for node, d in enumerate(demand):  # artificial arcs to and from the root
            source.append(-1 if d > 0 else node)
            target.append(node if d > 0 else -1)
        self.capacity = capacity + [faux_inf] * n
        self.weight = weight + [faux_inf] * n
        self.flow = [0] * edge_count + [abs(d) for d in demand]
        self.potential = [faux_inf if d <= 0 else -faux_inf for d in demand]
        # spanning tree rooted at -1 (index n), threaded in depth-first order
        self.parent: list[int | None] = [-1] * n + [None]
        self.parent_edge: list[int | None] = list(range(edge_count, edge_count + n))
        self.size = [1] * n + [n + 1]
        self.next_dft = list(range(1, n)) + [-1, 0]
        self.prev_dft = list(range(-1, n))
        self.last_dft = list(range(n)) + [n - 1]
        self._pivot()
        if any(self.flow[edge_count:]):
            raise LayoutError("flow network infeasible: no flow satisfies all node demands")

    def flows(self) -> list[int]:
        """The optimal flow, one value per arc given to the constructor."""
        out = [cap if u == v and cost < 0 else 0 for u, v, cap, cost in self.arcs]
        for pos, k in enumerate(self.real):
            out[k] = self.flow[pos]
        return out

    def move(self, u: int, v: int, units: int) -> None:
        """Re-solve with `units` of node u's demand moved to node v; `flows`
        then gives the new optimum.

        The optimal flow stays feasible for the moved demands once `units`
        travel from u to v on a new arc, appended after the priced arcs,
        with capacity `units`, the artificial arcs' cost and its `units` at
        that bound. Pricing then restarts at arc 0 under the cold solve's
        rules. If that arc or an artificial arc ends with flow, no flow
        meets the moved demands, and `LayoutError` is raised.
        """
        e = self.priced
        for values, value in (
            (self.source, u),
            (self.target, v),
            (self.capacity, units),
            (self.weight, self.faux_inf),
            (self.flow, units),
        ):
            values.insert(e, value)
        self.parent_edge = [a + 1 if a is not None and a >= e else a for a in self.parent_edge]
        self.priced = e + 1
        self._pivot()
        if any(self.flow[len(self.real) :]):
            raise LayoutError("flow network infeasible: no flow satisfies the moved demands")

    def _pivot(self) -> None:
        """Pivot to an optimal spanning tree from the current feasible one."""
        edge_count = self.priced
        source, target, capacity, weight = self.source, self.target, self.capacity, self.weight
        flow, potential, parent, parent_edge = self.flow, self.potential, self.parent, self.parent_edge
        size, next_dft, prev_dft, last_dft = self.size, self.next_dft, self.prev_dft, self.last_dft

        block = ceil(sqrt(edge_count))
        blocks = (edge_count + block - 1) // block if edge_count else 0
        idle = 0  # consecutive blocks without an entering arc
        f = 0  # first arc of the next block
        while idle < blocks:
            stop = f + block
            if stop <= edge_count:
                scan = range(f, stop)
            else:
                stop -= edge_count
                scan = chain(range(f, edge_count), range(stop))
            f = stop
            i, best = -1, 0
            for e in scan:
                c = weight[e] - potential[source[e]] + potential[target[e]]
                if flow[e]:
                    c = -c
                if c < best:
                    i, best = e, c
            if i < 0:
                idle += 1
                continue
            idle = 0
            p, q = (source[i], target[i]) if flow[i] == 0 else (target[i], source[i])

            # the cycle the entering arc closes, oriented from p to q
            a, b = p, q
            while a != b:
                if size[a] < size[b]:
                    a = parent[a]
                elif size[a] > size[b]:
                    b = parent[b]
                else:
                    a, b = parent[a], parent[b]
            cycle_nodes, cycle_arcs = [p], []
            x = p
            while x != a:
                cycle_arcs.append(parent_edge[x])
                x = parent[x]
                cycle_nodes.append(x)
            cycle_nodes.reverse()
            cycle_arcs.reverse()
            if cycle_arcs != [i]:
                cycle_arcs.append(i)
            x = q
            while x != a:
                cycle_nodes.append(x)
                cycle_arcs.append(parent_edge[x])
                x = parent[x]

            # leaving arc: the least residual capacity, last cycle arc first
            j, s, least = -1, -1, None
            for e, x in zip(reversed(cycle_arcs), reversed(cycle_nodes)):
                residual = capacity[e] - flow[e] if source[e] == x else flow[e]
                if least is None or residual < least:
                    j, s, least = e, x, residual
            for e, x in zip(cycle_arcs, cycle_nodes):
                flow[e] += least if source[e] == x else -least
            if i == j:
                continue
            t = target[j] if source[j] == s else source[j]
            if parent[t] != s:
                s, t = t, s
            if cycle_arcs.index(i) > cycle_arcs.index(j):
                p, q = q, p

            # cut the tree arc from s to its child t
            size_t, prev_t, last_t = size[t], prev_dft[t], last_dft[t]
            next_last_t = next_dft[last_t]
            parent[t] = parent_edge[t] = None
            next_dft[prev_t], prev_dft[next_last_t] = next_last_t, prev_t
            next_dft[last_t], prev_dft[t] = t, last_t
            x = s
            while x is not None:
                size[x] -= size_t
                if last_dft[x] == last_t:
                    last_dft[x] = prev_t
                x = parent[x]

            # re-root the cut subtree at q
            path = []
            x = q
            while x is not None:
                path.append(x)
                x = parent[x]
            path.reverse()
            for x, y in zip(path, path[1:]):
                size_x, last_x = size[x], last_dft[x]
                prev_y, last_y = prev_dft[y], last_dft[y]
                next_last_y = next_dft[last_y]
                parent[x], parent[y] = y, None
                parent_edge[x], parent_edge[y] = parent_edge[y], None
                size[x], size[y] = size_x - size[y], size_x
                next_dft[prev_y], prev_dft[next_last_y] = next_last_y, prev_y
                next_dft[last_y], prev_dft[y] = y, last_y
                if last_x == last_y:
                    last_dft[x] = last_x = prev_y
                prev_dft[x], next_dft[last_y] = last_y, x
                next_dft[last_x], prev_dft[y] = y, last_x
                last_dft[y] = last_x

            # hang it from p through the entering arc
            last_p, size_q, last_q = last_dft[p], size[q], last_dft[q]
            next_last_p = next_dft[last_p]
            parent[q], parent_edge[q] = p, i
            next_dft[last_p], prev_dft[q] = q, last_p
            prev_dft[next_last_p], next_dft[last_q] = last_q, next_last_p
            x = p
            while x is not None:
                size[x] += size_q
                if last_dft[x] == last_p:
                    last_dft[x] = last_q
                x = parent[x]

            # shift the potentials of q's new subtree
            sign = -1 if q == target[i] else 1
            shift = potential[p] + sign * weight[i] - potential[q]
            x = q
            while True:
                potential[x] += shift
                if x == last_q:
                    break
                x = next_dft[x]


# An external face takes 2 * deg + 4 angle units and an internal one
# 2 * deg - 4, so moving the external face moves this many.
_OUTER_UNITS = 8


@dataclass(frozen=True)
class OrthoRep:
    """Faces with per-corner angles and per-half-edge convex bend counts.

    `angles[(face, corner)]` is the 90-degree units at the head vertex of
    `faces[face][corner]` inside that face; `bends[(u, v)]` counts bends
    drawn convex on the walk side of half-edge (u, v). At most one of
    `bends[(u, v)]` and `bends[(v, u)]` is nonzero: a flow bending one edge
    both ways stays balanced with both arcs lowered by one, two bends
    cheaper, so a minimum-cost flow never does.
    """

    faces: tuple[tuple[HalfEdge, ...], ...]
    ext_face: frozenset[int]
    angles: dict[tuple[int, int], int]
    bends: dict[HalfEdge, int]
    # with each component's second-ranked face outside, if `orthogonalize`
    # kept one; equality compares the representation itself
    alternate: OrthoRep | None = field(default=None, compare=False)

    @property
    def total_bends(self) -> int:
        return sum(self.bends.values())


def _wide_costs(pg: PlanarizedGraph, degree: dict[Node, int]) -> dict[Node, int]:
    """Per-vertex cost of each angle unit beyond a straight angle.

    Every edge lies on exactly one chain, so the qubits of the chains
    through a vertex are the qubits of its edges."""
    qubits: dict[Node, set[int]] = {}
    for (_, _, q), chain in pg.chains.items():
        for v in chain:
            qubits.setdefault(v, set()).add(q)
    return {
        v: _WIDE_COST_SAME_QUBIT if d == 2 and len(qubits[v]) == 1 else _WIDE_COST
        for v, d in degree.items()
    }


def orthogonalize(pg: PlanarizedGraph) -> OrthoRep:
    """Minimum-bend representation of the embedding, per component, with
    the corners of its rectangular faces balanced.

    If the graph has crossings, each component's flow is re-solved warm
    (`NetworkSimplex.move`) with the second face of its ranking outside (a
    component with one face keeps it). That representation, balanced
    alike, is the result's `alternate` if it has no more bends."""
    degree = {v: len(pg.adj.get(v, [])) for v in pg.nodes}
    wide_cost = _wide_costs(pg, degree)
    flow = _AngleFlow(pg, degree, wide_cost)
    rep = flow.rep(0)
    alternate = None
    if pg.crossings:
        for simplex, fid, ranked, _, _ in flow.components:
            if len(ranked) > 1:
                simplex.move(fid[ranked[0]], fid[ranked[1]], _OUTER_UNITS)
        other = flow.rep(-1)
        if other.total_bends <= rep.total_bends:
            alternate = balance_corners(other, degree, wide_cost)
    return replace(balance_corners(rep, degree, wide_cost), alternate=alternate)


class _AngleFlow:
    """The angle flow network of each component with faces, solved cold
    with its longest walk as the external face, with vertex degrees
    `degree` and turn prices `wide_cost` (`_wide_costs`)."""

    def __init__(
        self, pg: PlanarizedGraph, degree: dict[Node, int], wide_cost: dict[Node, int]
    ) -> None:
        self.faces = faces = pg.faces
        # per component: the solved network, the flow node of each face, the
        # first two faces ranked for the outside (longest walk first, ties
        # to the lower index), and the corners (two arcs each) and
        # half-edges (one bend arc each, after the corner arcs) its arcs
        # stand for
        self.components: list[
            tuple[NetworkSimplex, dict[int, int], list[int], list[tuple[int, int]], list[HalfEdge]]
        ] = []
        for comp, face_idx in pg.components:
            if not face_idx:
                continue  # isolated node: no angles to assign
            ranked = sorted(face_idx, key=lambda fi: (-len(faces[fi]), fi))[:2]
            ext = ranked[0]

            # flow nodes: the component's vertices (each has an edge, since
            # the component has faces), then its faces
            vid = {v: k for k, v in enumerate(comp)}
            fid = {fi: len(comp) + k for k, fi in enumerate(face_idx)}
            demand = [degree[v] - 4 for v in comp]
            demand += [len(faces[fi]) + (4 if fi == ext else -4) for fi in face_idx]
            arcs: list[tuple[int, int, int, int]] = []
            corner_arcs: list[tuple[int, int]] = []
            bend_arcs: list[HalfEdge] = []
            half_edge_face = {}
            for fi in face_idx:
                for ci, he in enumerate(faces[fi]):
                    half_edge_face[he] = fi
                    corner_arcs.append((fi, ci))
                    v, f = vid[he[1]], fid[fi]
                    arcs.append((v, f, 1, 0))
                    arcs.append((v, f, 2, wide_cost[he[1]]))
            # one bend outweighs every corner cost of the component together
            bend_cost = 4 * len(corner_arcs) + 1
            for fi in face_idx:
                for he in faces[fi]:
                    gi = half_edge_face[(he[1], he[0])]
                    if gi == fi:
                        continue  # bridge: bends cancel inside one face
                    bend_arcs.append(he)
                    arcs.append((fid[fi], fid[gi], 1 << 20, bend_cost))
            simplex = NetworkSimplex(len(demand), arcs, demand)
            self.components.append((simplex, fid, ranked, corner_arcs, bend_arcs))

    def rep(self, place: int) -> OrthoRep:
        """The representation of each component's current flow, with face
        `ranked[place]` outside: 0 for the first-ranked face, -1 for the
        second (the only one, if the component has one face)."""
        angles: dict[tuple[int, int], int] = {}
        bends: dict[HalfEdge, int] = {}
        outer = set()
        for simplex, _, ranked, corner_arcs, bend_arcs in self.components:
            outer.add(ranked[place])
            flow = simplex.flows()
            for k, corner in enumerate(corner_arcs):
                angles[corner] = 1 + flow[2 * k] + flow[2 * k + 1]
            pos = 2 * len(corner_arcs)
            for k, he in enumerate(bend_arcs):
                bends[he] = flow[pos + k]

        around: dict[Node, int] = {}
        for fi, walk in enumerate(self.faces):
            for ci, (_, head) in enumerate(walk):
                around[head] = around.get(head, 0) + angles[(fi, ci)]
        for v, total in around.items():
            if total != 4:
                raise LayoutError(f"angles around {v} sum to {total}")

        return OrthoRep(faces=self.faces, ext_face=frozenset(outer), angles=angles, bends=bends)


def _moves(k: int, a: int, b: int) -> int:
    """Steps between walk positions a and b of a k-cycle."""
    return min((a - b) % k, (b - a) % k)


def _place_pair(k: int, cur: list[int], allowed: list[set[int]], j: int, turns: list[int]) -> None:
    """Put corners j and j+2 as near half a walk apart as corners j+1 and
    j+3, held at `cur`, allow; ties go to the least moved from `turns`,
    then to the first by position. One scan of corner j's arc, with a
    pointer into its partner's arc, on positions counted from corner j+3."""
    lo, mid = cur[(j + 3) % 4], cur[j + 1]
    split = (mid - lo) % k
    first = [d for d in range(1, split) if (lo + d) % k in allowed[j]]
    second = [d for d in range(split + 1, k) if (lo + d) % k in allowed[j + 2]]
    best, t = None, 0
    for a in first:
        while t < len(second) and 2 * (second[t] - a) < k:
            t += 1
        for b in second[max(t - 1, 0) : t + 1]:
            pa, pb = (lo + a) % k, (lo + b) % k
            moved = _moves(k, pa, turns[j]) + _moves(k, pb, turns[j + 2])
            key = (abs(2 * (b - a) - k), moved, pa, pb)
            best = key if best is None else min(best, key)
    cur[j], cur[j + 2] = best[2:]


def _mismatch(k: int, c: list[int]) -> int:
    """How far the sides between corners c of a k-cycle are from matching
    their opposite sides, in edges."""
    sides = [(b - a) % k for a, b in zip(c, c[1:] + c[:1])]
    return abs(sides[0] - sides[2]) + abs(sides[1] - sides[3])


def _balanced(k: int, turns: list[int], allowed: list[set[int]]) -> list[int]:
    """New walk positions of a rectangle's four corners. Each pair of
    opposite corners is placed once in each order of the two pairs, always
    inside the arcs the other pair leaves it, so the cyclic order holds.
    The better outcome, or the corners as they are, is taken by the sides'
    mismatch, then the least movement, then walk position."""

    def rank(c: list[int]) -> tuple:
        return _mismatch(k, c), sum(_moves(k, a, b) for a, b in zip(c, turns)), c

    options = [turns]
    for order in ((0, 1), (1, 0)):
        cur = list(turns)
        for j in order:
            _place_pair(k, cur, allowed, j, turns)
        options.append(cur)
    return min(options, key=rank)


def _rectangle(rep: OrthoRep, fi: int) -> list[int] | None:
    """The walk positions of the four convex corners of an internal face
    that is a simple cycle without bends and has no other turn; None for
    any other face."""
    walk = rep.faces[fi]
    if fi in rep.ext_face or any(rep.bends.get(he) or rep.bends.get(he[::-1]) for he in walk):
        return None
    values = [rep.angles[(fi, ci)] for ci in range(len(walk))]
    if values.count(1) != 4 or values.count(2) != len(walk) - 4:
        return None
    if len({v for _, v in walk}) != len(walk):
        return None
    return [ci for ci, value in enumerate(values) if value == 1]


def balance_corners(
    rep: OrthoRep, degree: dict[Node, int], wide_cost: dict[Node, int]
) -> OrthoRep:
    """Move the turns of each rectangular face so opposite sides match;
    `degree` and `wide_cost` are the flow's, as in `_AngleFlow`.

    A face qualifies if it is internal, a simple cycle and free of bends,
    with four convex corners and every other corner straight. A corner on a
    degree-2 vertex may move to any degree-2 vertex of the walk with the
    same other face and the same `_wide_costs` entry: the angle units then
    pass between the same flow nodes at the same price, so the flow cost
    and the bends stay as they were. That other face has a reflex corner,
    so it never qualifies itself, and the faces are balanced independently.
    Corners on higher degrees stay, and the four keep their cyclic order
    (see `_balanced`). Returns `rep` itself if no corner moves.
    """
    faces = rep.faces
    # rectangles whose sides could match better (an odd walk leaves 1) and
    # that have a corner on a degree-2 vertex
    rectangles = {
        fi: turns
        for fi in range(len(faces))
        if (turns := _rectangle(rep, fi))
        and _mismatch(len(faces[fi]), turns) > len(faces[fi]) % 2
        and any(degree[faces[fi][c][1]] == 2 for c in turns)
    }
    if not rectangles:
        return rep
    where = {he: (fi, ci) for fi, walk in enumerate(faces) for ci, he in enumerate(walk)}
    angles = dict(rep.angles)
    moved = False
    for fi, turns in rectangles.items():
        walk = faces[fi]
        k = len(walk)
        # the other corner at each degree-2 vertex of the walk
        other = {
            ci: where[(walk[(ci + 1) % k][1], v)]
            for ci, (_, v) in enumerate(walk)
            if degree[v] == 2
        }
        # a corner's allowed positions: those of its other face and turn price
        kind = {ci: (other[ci][0], wide_cost[walk[ci][1]]) for ci in other}
        alike: dict[tuple[int, int], set[int]] = {}
        for ci, key in kind.items():
            alike.setdefault(key, set()).add(ci)
        allowed = [alike[kind[c]] if c in kind else {c} for c in turns]
        best = _balanced(k, turns, allowed)
        if best == turns:
            continue
        moved = True
        for old in turns:
            if old in other:
                angles[(fi, old)] = angles[other[old]] = 2
        for new in best:
            if new in other:
                angles[(fi, new)], angles[other[new]] = 1, 3
    return replace(rep, angles=angles) if moved else rep
