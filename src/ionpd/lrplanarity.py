"""Left-Right planarity test with a clockwise rotation system.

A port of the non-recursive `LRPlanarity.lr_planarity` of networkx 3.6.1
(Brandes, "The Left-Right Planarity Test", 2009) without its containers:

- nodes are numbered 0..n-1 in the graph's node order, and the working copy
  keeps networkx's edge order (edge (i, j) is added when j > i, walking the
  adjacency), so every DFS visits neighbours in the same order;
- lowpoints, nesting depths, `ref` and `side` are dicts keyed by (v, w);
- a conflict pair is a list [left_low, left_high, right_low, right_high],
  compared by identity with the stack bottom, as networkx compares its
  `ConflictPair` objects;
- the embedding is a clockwise and a counterclockwise neighbour map per
  node plus its leftmost neighbour, which networkx keeps as the last key of
  `PlanarEmbedding._succ[v]`: the head of the first half-edge, replaced
  only by a half-edge inserted clockwise-before it. The rotation is read
  out from it, clockwise.

`planar_rotation(graph)` therefore returns exactly
`nx.check_planarity(graph)[1].get_data()`, neighbour and dict order
included, so every embedding ionpd draws depends on this module alone.
"""

from __future__ import annotations

from collections.abc import Hashable

import networkx as nx

Edge = tuple[int, int]
# [left_low, left_high, right_low, right_high]: two intervals of return
# edges, each empty when both of its ends are None
ConflictPair = list


def planar_rotation(graph: nx.Graph) -> dict[Hashable, list[Hashable]] | None:
    """Clockwise neighbour list of every node, in the graph's node order, of
    a planar embedding; None if the graph is not planar. Self-loops are
    ignored."""
    labels = list(graph)
    n = len(labels)
    index = {v: k for k, v in enumerate(labels)}
    adjs: list[list[int]] = [[] for _ in range(n)]
    size = 0
    for i, nbrs in enumerate(graph.adj.values()):
        for w in nbrs:
            j = index[w]
            if j > i:
                adjs[i].append(j)
                adjs[j].append(i)
                size += 1
    if n > 2 and size > 3 * n - 6:
        return None

    lr = _LeftRight(n)
    for v in range(n):
        if lr.height[v] is None:
            lr.height[v] = 0
            lr.roots.append(v)
            lr.orient(v, adjs)
    if not lr.test():
        return None
    return lr.embed(labels)


class _LeftRight:
    """State of one run: DFS orientation, LR partition, embedding."""

    def __init__(self, n: int):
        self.n = n
        self.roots: list[int] = []
        self.height: list[int | None] = [None] * n  # distance from the DFS root
        self.parent_edge: list[Edge | None] = [None] * n
        self.out: list[list[int]] = [[] for _ in range(n)]  # oriented DFS graph
        self.lowpt: dict[Edge, int] = {}  # height of the lowest return point
        self.nesting_depth: dict[Edge, int] = {}
        self.ref: dict[Edge | None, Edge | None] = {}
        self.side: dict[Edge, int] = {}  # missing: 1
        self.stack: list[ConflictPair] = []
        self.stack_bottom: dict[Edge, ConflictPair | None] = {}
        self.lowpt_edge: dict[Edge, Edge] = {}

    def orient(self, root: int, adjs: list[list[int]]) -> None:
        """Orient the component of `root` by DFS; compute lowpoints and
        nesting depths."""
        height, parent_edge, out = self.height, self.parent_edge, self.out
        lowpt, nesting_depth = self.lowpt, self.nesting_depth
        lowpt2: dict[Edge, int] = {}  # height of the second lowest return point
        ind = {}  # next position in each node's adjacency
        descended: set[Edge] = set()  # tree edges whose subtree is done
        dfs = [root]
        while dfs:
            v = dfs.pop()
            e = parent_edge[v]
            nbrs = adjs[v]
            hv = height[v]
            k = ind.get(v, 0)
            while k < len(nbrs):
                w = nbrs[k]
                vw = (v, w)
                if vw not in descended:
                    if vw in lowpt or (w, v) in lowpt:
                        k += 1
                        continue  # the edge was already oriented
                    out[v].append(w)
                    lowpt[vw] = lowpt2[vw] = hv
                    if height[w] is None:  # tree edge: visit w, then revisit v
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = k
                        dfs.append(v)
                        dfs.append(w)
                        descended.add(vw)
                        break
                    lowpt[vw] = height[w]  # back edge
                nesting_depth[vw] = 2 * lowpt[vw] + (lowpt2[vw] < hv)  # +1 if chordal
                if e is not None:
                    if lowpt[vw] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = lowpt[vw]
                    elif lowpt[vw] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[vw])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                k += 1

    def _by_nesting_depth(self) -> list[list[int]]:
        depth = self.nesting_depth
        return [sorted(ws, key=lambda w: depth[(v, w)]) for v, ws in enumerate(self.out)]

    def test(self) -> bool:
        """Find an LR partition; False if there is none (not planar)."""
        ordered = self._by_nesting_depth()
        height, parent_edge, lowpt = self.height, self.parent_edge, self.lowpt
        stack, stack_bottom, lowpt_edge = self.stack, self.stack_bottom, self.lowpt_edge
        ind = [0] * self.n
        descended: set[Edge] = set()
        for root in self.roots:
            dfs = [root]
            while dfs:
                v = dfs.pop()
                e = parent_edge[v]
                nbrs = ordered[v]
                k = ind[v]
                while k < len(nbrs):
                    w = nbrs[k]
                    ei = (v, w)
                    if ei not in descended:
                        stack_bottom[ei] = stack[-1] if stack else None
                        if ei == parent_edge[w]:  # tree edge: visit w, then revisit v
                            ind[v] = k
                            dfs.append(v)
                            dfs.append(w)
                            descended.add(ei)
                            break
                        lowpt_edge[ei] = ei  # back edge
                        stack.append([None, None, ei, ei])
                    if lowpt[ei] < height[v]:  # e_i has a return edge
                        if w == nbrs[0]:
                            lowpt_edge[e] = lowpt_edge[ei]
                        elif not self._add_constraints(ei, e):
                            return False
                    k += 1
                else:  # v is done: remove the back edges returning to its parent
                    if e is not None:
                        self._remove_back_edges(e)
        for v, ws in enumerate(self.out):
            for w in ws:
                self.nesting_depth[(v, w)] *= self._sign((v, w))
        return True

    def _conflicting(self, low: Edge | None, high: Edge | None, b: Edge) -> bool:
        """True if the interval [low, high] conflicts with edge b."""
        return (low is not None or high is not None) and self.lowpt[high] > self.lowpt[b]

    def _add_constraints(self, ei: Edge, e: Edge) -> bool:
        lowpt, ref, stack = self.lowpt, self.ref, self.stack
        p = [None, None, None, None]
        # merge the return edges of e_i into p's right interval
        while True:
            q = stack.pop()
            if q[0] is not None or q[1] is not None:
                q[:] = q[2], q[3], q[0], q[1]
            if q[0] is not None or q[1] is not None:
                return False  # not planar
            if lowpt[q[2]] > lowpt[e]:  # merge intervals
                if p[2] is None and p[3] is None:  # topmost interval
                    p[2], p[3] = q[2], q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align
                ref[q[2]] = self.lowpt_edge[e]
            if (stack[-1] if stack else None) is self.stack_bottom[ei]:
                break
        # merge the conflicting return edges of e_1..e_i-1 into p's left interval
        conflicting = self._conflicting
        while conflicting(stack[-1][0], stack[-1][1], ei) or conflicting(
            stack[-1][2], stack[-1][3], ei
        ):
            q = stack.pop()
            if conflicting(q[2], q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
            if conflicting(q[2], q[3], ei):
                return False  # not planar
            # merge the interval below lowpt(e_i) into p's right interval
            ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:  # topmost interval
                p[0], p[1] = q[0], q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if any(end is not None for end in p):
            stack.append(p)
        return True

    def _lowest(self, pair: ConflictPair) -> int:
        """Lowest lowpoint of a conflict pair."""
        lowpt = self.lowpt
        if pair[0] is None and pair[1] is None:
            return lowpt[pair[2]]
        if pair[2] is None and pair[3] is None:
            return lowpt[pair[0]]
        return min(lowpt[pair[0]], lowpt[pair[2]])

    def _remove_back_edges(self, e: Edge) -> None:
        u = e[0]
        hu = self.height[u]
        ref, side, stack = self.ref, self.side, self.stack
        # trim back edges ending at the parent u: drop whole conflict pairs
        while stack and self._lowest(stack[-1]) == hu:
            pair = stack.pop()
            if pair[0] is not None:
                side[pair[0]] = -1
        if stack:  # one more conflict pair to consider
            pair = stack[-1]
            # trim the left interval
            while pair[1] is not None and pair[1][1] == u:
                pair[1] = ref.get(pair[1])
            if pair[1] is None and pair[0] is not None:  # just emptied
                ref[pair[0]] = pair[2]
                side[pair[0]] = -1
                pair[0] = None
            # trim the right interval
            while pair[3] is not None and pair[3][1] == u:
                pair[3] = ref.get(pair[3])
            if pair[3] is None and pair[2] is not None:  # just emptied
                ref[pair[2]] = pair[0]
                side[pair[2]] = -1
                pair[2] = None
        # the side of e is the side of a highest return edge
        if self.lowpt[e] < hu:
            high_left, high_right = stack[-1][1], stack[-1][3]
            if high_left is not None and (
                high_right is None or self.lowpt[high_left] > self.lowpt[high_right]
            ):
                ref[e] = high_left
            else:
                ref[e] = high_right

    def _sign(self, e: Edge) -> int:
        """Resolve the side of e relative to its reference to an absolute
        side."""
        ref, side = self.ref, self.side
        dfs = [e]
        old_ref: dict[Edge, Edge] = {}
        while dfs:
            e = dfs.pop()
            r = ref.get(e)
            if r is not None:
                dfs.append(e)  # revisit e after resolving r
                dfs.append(r)
                old_ref[e] = r
                ref[e] = None
            else:
                side[e] = side.get(e, 1) * side.get(old_ref.get(e), 1)
        return side[e]

    def embed(self, labels: list[Hashable]) -> dict[Hashable, list[Hashable]]:
        """Clockwise rotation of every node, each ring starting at the
        leftmost neighbour, as `PlanarEmbedding.get_data` reads it."""
        ordered = self._by_nesting_depth()
        parent_edge, side = self.parent_edge, self.side
        n = self.n
        leftmost: list[int | None] = [None] * n
        cw: list[dict[int, int]] = [{} for _ in range(n)]
        ccw: list[dict[int, int]] = [{} for _ in range(n)]

        def insert_cw_of(v: int, w: int, ref: int) -> None:
            """Half-edge (v, w) right after `ref`, clockwise."""
            after = cw[v][ref]
            cw[v][w], ccw[v][w] = after, ref
            ccw[v][after] = cw[v][ref] = w

        def insert_ccw_of(v: int, w: int, ref: int | None) -> None:
            """Half-edge (v, w) right before `ref`, clockwise (None: v has
            no half-edge yet). Before the leftmost, w becomes leftmost."""
            if ref is None:
                cw[v][w] = ccw[v][w] = leftmost[v] = w
                return
            before = ccw[v][ref]
            cw[v][w], ccw[v][w] = ref, before
            cw[v][before] = ccw[v][ref] = w
            if ref == leftmost[v]:
                leftmost[v] = w

        for v, ws in enumerate(ordered):
            if ws:
                insert_ccw_of(v, ws[0], None)
            for previous, w in zip(ws, ws[1:]):
                insert_cw_of(v, w, previous)

        left_ref: dict[int, int] = {}
        right_ref: dict[int, int] = {}
        ind = [0] * n
        for root in self.roots:
            dfs = [root]
            while dfs:
                v = dfs.pop()
                nbrs = ordered[v]
                while ind[v] < len(nbrs):
                    w = nbrs[ind[v]]
                    ind[v] += 1
                    ei = (v, w)
                    if ei == parent_edge[w]:  # tree edge: v becomes w's leftmost neighbour
                        insert_ccw_of(w, v, leftmost[w])
                        left_ref[v] = right_ref[v] = w
                        dfs.append(v)  # revisit v after finishing w
                        dfs.append(w)
                        break
                    if side.get(ei, 1) == 1:
                        insert_cw_of(w, v, right_ref[w])
                    else:
                        insert_ccw_of(w, v, left_ref[w])
                        left_ref[w] = v

        rotation = {}
        for v, start in enumerate(leftmost):
            ring = []
            w = start
            while w is not None:
                ring.append(labels[w])
                w = cw[v][w]
                if w == start:
                    break
            rotation[labels[v]] = ring
        return rotation
