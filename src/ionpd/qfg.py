"""Qubit flow graph: where each qubit travels between scheduled gates.

Nodes are instructions annotated with their stage; an edge (i, j, q) says
qubit q leaves instruction i and is next used by instruction j. Per qubit
the edges form a simple path, so node degree never exceeds four for one-
and two-qubit gates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artifact import render_json
from .depgraph import DataflowGraph, build_dataflow
from .gates import Netlist
from .solver import Schedule, validate


@dataclass(frozen=True)
class QubitFlowGraph:
    stage_of: dict[int, int]
    edges: tuple[tuple[int, int, int], ...]  # (from id, to id, qubit)
    first_use: dict[int, int]  # qubit -> instruction id

    @property
    def nodes(self) -> list[int]:
        return sorted(self.stage_of)

    def to_json(self) -> str:
        payload = {
            "nodes": [{"id": i, "stage": self.stage_of[i]} for i in self.nodes],
            "edges": [
                {"from": i, "to": j, "qubit": q} for i, j, q in self.edges
            ],
        }
        return render_json(payload)

    def to_dot(self) -> str:
        lines = ["digraph qfg {", "  rankdir=TB;"]
        by_stage: dict[int, list[int]] = {}
        for node, stage in self.stage_of.items():
            by_stage.setdefault(stage, []).append(node)
        for stage in sorted(by_stage):
            members = " ".join(f"n{i};" for i in sorted(by_stage[stage]))
            lines.append(f"  {{ rank=same; {members} }}")
        for node in self.nodes:
            lines.append(f"  n{node} [label=\"{node}\"];")
        for i, j, q in self.edges:
            lines.append(f"  n{i} -> n{j} [label=\"q{q}\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_qfg(
    netlist: Netlist, schedule: Schedule, graph: DataflowGraph | None = None
) -> QubitFlowGraph:
    if graph is None:
        graph = build_dataflow(netlist)
    violations = validate(netlist, graph, schedule)
    if violations:
        raise ValueError(f"invalid schedule: {violations[0].message}")
    stage_of = {i.id: schedule.stage_of[i.id] for i in netlist.instructions}
    edges: list[tuple[int, int, int]] = []
    first_use: dict[int, int] = {}
    for qubit, ids in graph.qubit_table(netlist).items():
        timeline = sorted(ids, key=lambda i: stage_of[i])
        first_use[qubit] = timeline[0]
        edges.extend(
            (i, j, qubit) for i, j in zip(timeline, timeline[1:])
        )
    edges.sort()
    return QubitFlowGraph(stage_of, tuple(edges), first_use)
