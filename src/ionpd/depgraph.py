"""Gate exchangeability, dataflow graph and scheduling windows.

Two gates that touch no common qubit can always be swapped. For gates that
share a qubit the control/target rule applies: same-kind gates exchange iff
neither target lies in the other's control set; different kinds additionally
require distinct targets. Single-qubit gates on one wire exchange iff their
matrices commute (identical kinds, or both diagonal phase gates); Measure
and PrepZ are ordered against everything on their wire.

An instruction depends on every earlier one that shares a qubit with it and
is not exchangeable with it. The dataflow DAG keeps only the transitive
reduction of those dependencies, which is the edge set `dataflow.json` and
`dataflow.dot` list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .artifact import render_json
from .gates import Instruction, Netlist


def exchangeable(a: Instruction, b: Instruction) -> bool:
    return set(a.qubits).isdisjoint(b.qubits) or _exchangeable_sharing(a, b)


def _exchangeable_sharing(a: Instruction, b: Instruction) -> bool:
    """`exchangeable` for two instructions known to share a qubit."""
    if a.kind.non_unitary or b.kind.non_unitary:
        return False
    if a.kind.arity == 1 and b.kind.arity == 1:
        # same wire: exchange only if the matrices commute
        return a.kind is b.kind or (a.kind.diagonal_1q and b.kind.diagonal_1q)
    if a.target in b.controls or b.target in a.controls:
        return False
    if a.kind is not b.kind and a.target == b.target:
        return False
    return True


def common_qubit_table(netlist: Netlist) -> dict[int, list[int]]:
    """Qubit -> ids of the instructions touching it, in netlist order."""
    table: dict[int, list[int]] = {}
    for instr in netlist.instructions:
        for q in instr.qubits:
            table.setdefault(q, []).append(instr.id)
    return {q: table[q] for q in sorted(table)}


class InfeasibleHorizon(ValueError):
    """Horizon shorter than the graph's critical path."""


@dataclass(frozen=True)
class DataflowGraph:
    """DAG over instruction ids; an edge j -> i means i depends on j.

    `edges` is the transitive reduction of the all-pairs rule (j -> i for
    every earlier, qubit-sharing, non-exchangeable j), in ascending order:
    an edge implied by a chain of others is left out, as reachability, not
    the edge set, is the semantic contract.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    _succs: dict[int, list[int]] = field(repr=False, hash=False, compare=False, default_factory=dict)
    _preds: dict[int, list[int]] = field(repr=False, hash=False, compare=False, default_factory=dict)
    # [netlist, its common-qubit table] once `qubit_table` was asked
    _qubit_table: list = field(repr=False, hash=False, compare=False, default_factory=list)

    def __post_init__(self) -> None:
        for node in self.nodes:
            self._succs[node] = []
            self._preds[node] = []
        for j, i in self.edges:
            if j >= i:
                raise ValueError(f"dependency edge must point forward, got {j} -> {i}")
            self._succs[j].append(i)
            self._preds[i].append(j)

    def qubit_table(self, netlist: Netlist) -> dict[int, list[int]]:
        """`common_qubit_table(netlist)`, computed once per graph for the
        netlist it was built from (`build_dataflow` hands its table over)."""
        held = self._qubit_table
        if not held or held[0] is not netlist:
            held[:] = (netlist, common_qubit_table(netlist))
        return held[1]

    def predecessors(self, node: int) -> list[int]:
        return self._preds[node]

    def critical_path_length(self) -> int:
        """Longest dependency chain, counted in instructions, computed once
        per graph."""
        return self._critical_path

    @cached_property
    def _critical_path(self) -> int:
        return max(self._depths.values(), default=0)

    # longest chain ending (_depths) and starting (_heights, in descending
    # node order) at each node, counted in instructions; `asap_alap` copies
    # them for every horizon
    @cached_property
    def _depths(self) -> dict[int, int]:
        depth: dict[int, int] = {}
        for node in self.nodes:  # node ids ascend, so predecessors are done
            depth[node] = 1 + max((depth[p] for p in self._preds[node]), default=0)
        return depth

    @cached_property
    def _heights(self) -> dict[int, int]:
        height: dict[int, int] = {}
        for node in reversed(self.nodes):
            height[node] = 1 + max((height[s] for s in self._succs[node]), default=0)
        return height

    def to_json(self) -> str:
        return render_json({"nodes": list(self.nodes), "edges": self.edges})

    def to_dot(self) -> str:
        lines = ["digraph dataflow {"]
        for node in self.nodes:
            lines.append(f"  n{node} [label=\"{node}\"];")
        for j, i in self.edges:
            lines.append(f"  n{j} -> n{i};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_dataflow(netlist: Netlist) -> DataflowGraph:
    """The transitive reduction of the all-pairs rule, built directly.

    The candidates for i are the ids before it in the common-qubit rows of
    its qubits, scanned latest first across its rows. Each instruction keeps
    its ancestors as an int bitset over ids; a candidate already among the
    ancestors of the edges kept so far is implied and skipped untested, and
    the rest are kept if they are not exchangeable with i. A dependency
    implied by a later one is among those ancestors by the time the scan
    reaches it.

    Each row entry also records whether every earlier entry of its row is
    among its ancestors. A row's scan stops at such an entry once the entry
    is among the kept candidates or their ancestors, as the rest of the row
    then is too: a chain of gates that order pairwise scans one candidate
    per gate.

    Each row also keeps its trailing run of one-qubit gates that are
    pairwise exchangeable, with one gate of each kind in it: on one wire
    exchangeability of one-qubit gates depends on their kinds alone, so a
    one-qubit gate exchangeable with those is exchangeable with the whole
    run, which it skips untested and joins. Otherwise it starts a new run.
    """
    instrs = netlist.instructions
    table = common_qubit_table(netlist)
    passed = dict.fromkeys(table, 0)  # qubit -> ids in its row before b
    # qubit -> (row index where its run starts, a gate of each kind in it)
    runs: dict[int, tuple[int, dict]] = {q: (0, {}) for q in table}
    row_ids = dict.fromkeys(table, 0)  # qubit -> bitset of the ids before b
    # qubit -> per row entry: are all earlier entries among its ancestors?
    covers: dict[int, list[bool]] = {q: [] for q in table}
    ancestors = [0]  # by id, which counts from 1
    edges = []
    for b in instrs:
        qubits = b.qubits
        scans = []  # per row: [row, index of its next candidate, its covers]
        for q in qubits:
            end = passed[q]
            start, run = runs[q]
            if len(qubits) > 1:
                runs[q] = (end + 1, {})
            elif run and all(_exchangeable_sharing(a, b) for a in run.values()):
                run.setdefault(b.kind, b)
                end = start
            else:
                runs[q] = (end, {b.kind: b})
            if end:
                scans.append([table[q], end - 1, covers[q]])
            passed[q] += 1
        above = 0
        while scans:
            j = max([row[k] for row, k, _ in scans])
            if not above >> j & 1 and not _exchangeable_sharing(instrs[j - 1], b):
                above |= ancestors[j] | 1 << j
                edges.append((j, b.id))
            implied = above >> j & 1
            for scan in scans[:]:  # a pair sharing two qubits is in both rows
                row, k, row_covers = scan
                if row[k] != j:
                    continue
                if k == 0 or implied and row_covers[k]:
                    scans.remove(scan)
                else:
                    scan[1] = k - 1
        ancestors.append(above)
        bit = 1 << b.id
        for q in qubits:
            covers[q].append(not row_ids[q] & ~above)
            row_ids[q] |= bit
    edges.sort()
    return DataflowGraph(
        tuple(i.id for i in instrs), tuple(edges), _qubit_table=[netlist, table]
    )


@dataclass(frozen=True)
class ScheduleWindow:
    """Per-instruction feasible stage interval [t_asap, t_alap] at a horizon."""

    horizon: int
    asap: dict[int, int]
    alap: dict[int, int]

    def slack(self, instr_id: int) -> int:
        return self.alap[instr_id] - self.asap[instr_id]

    def stages(self, instr_id: int) -> range:
        return range(self.asap[instr_id], self.alap[instr_id] + 1)


def asap_alap(graph: DataflowGraph, horizon: int) -> ScheduleWindow:
    """Earliest/latest stages from the graph's longest chains: a node can
    start no earlier than its depth and must leave room for its height."""
    cp = graph.critical_path_length()
    if horizon < cp:
        raise InfeasibleHorizon(
            f"horizon {horizon} below critical path length {cp}"
        )
    last = horizon + 1
    alap = {node: last - height for node, height in graph._heights.items()}
    return ScheduleWindow(horizon, dict(graph._depths), alap)


def stage_lower_bound(netlist: Netlist, graph: DataflowGraph) -> int:
    """Stages needed at least: busiest qubit vs. longest dependency chain."""
    busiest = max((len(ids) for ids in graph.qubit_table(netlist).values()), default=0)
    return max(busiest, graph.critical_path_length())
