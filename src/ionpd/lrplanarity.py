"""Left-Right planarity test with a clockwise rotation system.

A port of the non-recursive `LRPlanarity.lr_planarity` of networkx 3.6.1
(Brandes, "The Left-Right Planarity Test", 2009) over flat integer data:

- nodes are numbered 0..n-1 in the graph's node order, and every undirected
  edge gets an id as the adjacency is built in networkx's edge order (edge
  (i, j) when j > i, walking the adjacency), so every DFS visits neighbours
  in the same order; `tail` and `head` record each edge's orientation;
- lowpoints, nesting depths, `ref`, `side`, stack bottoms and lowpoint
  edges are lists indexed by edge id;
- a conflict pair is a list [left_low, left_high, right_low, right_high] of
  edge ids, compared by identity with the stack bottom, as networkx
  compares its `ConflictPair` objects;
- sides are resolved to absolute ones in one pass over the `ref` chains;
- the embedding is one clockwise ring per node, a list that starts at the
  leftmost neighbour, which networkx keeps as the last key of
  `PlanarEmbedding._succ[v]`: the head of the first half-edge, replaced
  only by a half-edge inserted clockwise-before it. Inserting next to a
  reference neighbour costs a scan of the ring, at most four long in the
  graphs ionpd draws.

`planar_rings(adjacency)` takes a graph numbered 0..n-1 in its node order,
given as neighbour lists in adjacency order, as `planarize` keeps its
working graph. Its rings, named back by node, are exactly
`nx.check_planarity(graph)[1].get_data()`, neighbour and dict order
included, so every embedding ionpd draws depends on this module alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

# [left_low, left_high, right_low, right_high]: two intervals of return
# edges (edge ids), each empty when both of its ends are None
ConflictPair = list


def planar_rings(adjacency: Sequence[Iterable[int]]) -> list[list[int]] | None:
    """Clockwise neighbour ring of every node of a planar embedding of the
    graph on nodes 0..n-1 whose node v has the neighbours `adjacency[v]`, in
    that order (each edge listed at both ends; self-loops are ignored), or
    None if the graph is not planar."""
    n = len(adjacency)
    adjs: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbour, edge id)
    size = 0
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            if j > i:
                adjs[i].append((j, size))
                adjs[j].append((i, size))
                size += 1
    if n > 2 and size > 3 * n - 6:
        return None

    lr = _LeftRight(n, size)
    lr.orient(adjs)
    if not lr.test():
        return None
    return lr.embed()


class _LeftRight:
    """State of one run: DFS orientation, LR partition, embedding."""

    def __init__(self, n: int, m: int):
        self.n = n
        self.roots: list[int] = []
        self.height: list[int | None] = [None] * n  # distance from the DFS root
        self.parent_edge: list[int | None] = [None] * n
        self.out: list[list[int]] = [[] for _ in range(n)]  # oriented DFS graph
        self.tail: list[int | None] = [None] * m  # None: not yet oriented
        self.head: list[int | None] = [None] * m
        self.lowpt: list[int] = [0] * m  # height of the lowest return point
        self.nesting_depth: list[int] = [0] * m
        self.ref: list[int | None] = [None] * m
        self.side: list[int] = [1] * m
        self.stack: list[ConflictPair] = []
        self.stack_bottom: list[ConflictPair | None] = [None] * m
        self.lowpt_edge: list[int | None] = [None] * m

    def orient(self, adjs: list[list[tuple[int, int]]]) -> None:
        """Orient every component by DFS from its first node; compute
        lowpoints and nesting depths."""
        height, parent_edge, out = self.height, self.parent_edge, self.out
        tail, head = self.tail, self.head
        lowpt, nesting_depth = self.lowpt, self.nesting_depth
        lowpt2 = [0] * len(lowpt)  # height of the second lowest return point
        ind = [0] * self.n  # next position in each node's adjacency
        descended = set()  # tree edges whose subtree is done
        for root in range(self.n):
            if height[root] is not None:
                continue
            height[root] = 0
            self.roots.append(root)
            dfs = [root]
            while dfs:
                v = dfs.pop()
                e = parent_edge[v]
                nbrs = adjs[v]
                hv = height[v]
                k = ind[v]
                while k < len(nbrs):
                    w, vw = nbrs[k]
                    if vw not in descended:
                        if tail[vw] is not None:
                            k += 1
                            continue  # the edge was already oriented
                        tail[vw], head[vw] = v, w
                        out[v].append(vw)
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
                    low, low2 = lowpt[vw], lowpt2[vw]
                    nesting_depth[vw] = 2 * low + (low2 < hv)  # +1 if chordal
                    if e is not None:
                        low_e = lowpt[e]
                        if low < low_e:
                            lowpt2[e] = low_e if low_e < low2 else low2
                            lowpt[e] = low
                        else:
                            if low > low_e:
                                low2 = low
                            if low2 < lowpt2[e]:
                                lowpt2[e] = low2
                    k += 1

    def _by_nesting_depth(self) -> list[list[int]]:
        """Each node's out-edges by nesting depth; a list of fewer than two
        edges is shared with `out`, not copied (no caller mutates it)."""
        key = self.nesting_depth.__getitem__
        return [sorted(edges, key=key) if len(edges) > 1 else edges for edges in self.out]

    def test(self) -> bool:
        """Find an LR partition; False if there is none (not planar)."""
        ordered = self._by_nesting_depth()
        height, parent_edge, lowpt, head = self.height, self.parent_edge, self.lowpt, self.head
        stack, stack_bottom, lowpt_edge = self.stack, self.stack_bottom, self.lowpt_edge
        ind = [0] * self.n
        descended = set()
        for root in self.roots:
            dfs = [root]
            while dfs:
                v = dfs.pop()
                e = parent_edge[v]
                nbrs = ordered[v]
                hv = height[v]
                k = ind[v]
                while k < len(nbrs):
                    ei = nbrs[k]
                    if ei not in descended:
                        stack_bottom[ei] = stack[-1] if stack else None
                        w = head[ei]
                        if ei == parent_edge[w]:  # tree edge: visit w, then revisit v
                            ind[v] = k
                            dfs.append(v)
                            dfs.append(w)
                            descended.add(ei)
                            break
                        lowpt_edge[ei] = ei  # back edge
                        stack.append([None, None, ei, ei])
                    if lowpt[ei] < hv:  # e_i has a return edge
                        if k == 0:
                            lowpt_edge[e] = lowpt_edge[ei]
                        elif not self._add_constraints(ei, e):
                            return False
                    k += 1
                else:  # v is done: remove the back edges returning to its parent
                    if e is not None:
                        self._remove_back_edges(e)
        self._resolve_sides()
        return True

    def _conflicting(self, low: int | None, high: int | None, b: int) -> bool:
        """True if the interval [low, high] conflicts with edge b."""
        return (low is not None or high is not None) and self.lowpt[high] > self.lowpt[b]

    def _add_constraints(self, ei: int, e: int) -> bool:
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
            if p[2] is not None:  # networkx writes ref[None] here, never read
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
        left, right = lowpt[pair[0]], lowpt[pair[2]]
        return left if left < right else right

    def _remove_back_edges(self, e: int) -> None:
        u = self.tail[e]
        hu = self.height[u]
        ref, side, stack, head = self.ref, self.side, self.stack, self.head
        # trim back edges ending at the parent u: drop whole conflict pairs
        while stack and self._lowest(stack[-1]) == hu:
            pair = stack.pop()
            if pair[0] is not None:
                side[pair[0]] = -1
        if stack:  # one more conflict pair to consider
            pair = stack[-1]
            # trim the left interval
            while pair[1] is not None and head[pair[1]] == u:
                pair[1] = ref[pair[1]]
            if pair[1] is None and pair[0] is not None:  # just emptied
                ref[pair[0]] = pair[2]
                side[pair[0]] = -1
                pair[0] = None
            # trim the right interval
            while pair[3] is not None and head[pair[3]] == u:
                pair[3] = ref[pair[3]]
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

    def _resolve_sides(self) -> None:
        """Turn every side relative to its `ref` chain into an absolute side
        (the product of the sides along the chain) and sign the nesting
        depths with it."""
        ref, side, depth = self.ref, self.side, self.nesting_depth
        for e in range(len(ref)):
            chain = []
            while ref[e] is not None:
                chain.append(e)
                e = ref[e]
            sign = side[e]
            for x in reversed(chain):
                sign = side[x] = side[x] * sign
                ref[x] = None
        for e, sign in enumerate(side):
            depth[e] *= sign

    def embed(self) -> list[list[int]]:
        """Clockwise rotation of every node, each ring starting at the
        leftmost neighbour, as `PlanarEmbedding.get_data` reads it."""
        ordered = self._by_nesting_depth()
        parent_edge, side, head = self.parent_edge, self.side, self.head
        # ring[0] is the leftmost neighbour; a node's own out-edges come first
        rings = [[head[e] for e in edges] for edges in ordered]
        left_ref: dict[int, int] = {}
        right_ref: dict[int, int] = {}
        ind = [0] * self.n
        for root in self.roots:
            dfs = [root]
            while dfs:
                v = dfs.pop()
                nbrs = ordered[v]
                while ind[v] < len(nbrs):
                    ei = nbrs[ind[v]]
                    w = head[ei]
                    ind[v] += 1
                    ring = rings[w]
                    if ei == parent_edge[w]:  # tree edge: v becomes w's leftmost neighbour
                        ring.insert(0, v)
                        left_ref[v] = right_ref[v] = w
                        dfs.append(v)  # revisit v after finishing w
                        dfs.append(w)
                        break
                    if side[ei] == 1:  # clockwise right after w's right reference
                        ring.insert(ring.index(right_ref[w]) + 1, v)
                    else:  # right before the left reference: leftmost if that was
                        ring.insert(ring.index(left_ref[w]), v)
                        left_ref[w] = v
        return rings
