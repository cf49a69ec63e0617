"""Branch-and-bound stage solver, schedule validation and brute-force oracle.

The solver performs a complete depth-first search over per-instruction stage
domains with forward checking on all three constraint series. Branching
follows ascending instruction id with ascending stage values, so the first
solution found is the lexicographically smallest feasible stage vector; that
makes the output canonical and runs independent of each other.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .depgraph import (
    DataflowGraph,
    ScheduleWindow,
    asap_alap,
    build_dataflow,
    common_qubit_table,
    stage_lower_bound,
)
from .gates import Netlist

INFEASIBLE = None


class SolverError(RuntimeError):
    """No valid schedule: the search gave up or broke its own invariant."""


class SolverBudgetExceeded(SolverError):
    """Search aborted; carries the number of explored nodes."""

    def __init__(self, explored: int, reason: str):
        super().__init__(f"solver budget exhausted after {explored} nodes ({reason})")
        self.explored = explored


@dataclass(frozen=True)
class Schedule:
    stage_of: dict[int, int]
    stage_count: int
    horizon: int

    def stages(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for instr_id in sorted(self.stage_of):
            out.setdefault(self.stage_of[instr_id], []).append(instr_id)
        return {stage: out[stage] for stage in sorted(out)}

    def to_json(self) -> str:
        payload = {
            "horizon": self.horizon,
            "stages": [
                {"stage": stage, "instruction_ids": ids}
                for stage, ids in self.stages().items()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Schedule":
        payload = json.loads(text)
        stage_of = {
            instr_id: entry["stage"]
            for entry in payload["stages"]
            for instr_id in entry["instruction_ids"]
        }
        stage_count = max(stage_of.values(), default=0)
        return Schedule(stage_of, stage_count, payload.get("horizon", stage_count))


@dataclass(frozen=True)
class Violation:
    series: int
    instructions: tuple[int, ...]
    message: str


class _Budget:
    """Nodes and seconds one scheduling run may spend, over every pass of
    every horizon it tries."""

    def __init__(self, node_budget: int | None, time_budget: float | None):
        self.node_budget = node_budget
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.explored = 0


def _search(
    order: list[int],
    domains: dict[int, list[int]],
    conflicts: dict[int, list[int]],
    preds: dict[int, list[int]],
    succs: dict[int, list[int]],
    budget: _Budget,
) -> dict[int, int] | None:
    """DFS with forward checking; `order` fixes both branch and value order.

    Iterative, with one value iterator per depth, so the search depth is not
    bounded by the recursion limit. Every value tried is one node.
    """
    if not order:
        return {}
    assignment: dict[int, int] = {}

    def feasible(instr: int, stage: int) -> bool:
        for other in conflicts[instr]:
            if assignment.get(other) == stage:
                return False
        for p in preds[instr]:
            if p in assignment and assignment[p] >= stage:
                return False
        for s in succs[instr]:
            if s in assignment and assignment[s] <= stage:
                return False
        return True

    explored, limit, deadline = budget.explored, budget.node_budget, budget.deadline
    pending: list = []  # value iterators of the shallower depths, resumed on backtrack
    depth, last = 0, len(order) - 1
    instr = order[0]
    values = iter(domains[instr])
    try:
        while True:
            for stage in values:
                explored += 1
                if limit is not None and explored > limit:
                    raise SolverBudgetExceeded(explored, "node budget")
                if deadline is not None and time.monotonic() > deadline:
                    raise SolverBudgetExceeded(explored, "time budget")
                if not feasible(instr, stage):
                    continue
                assignment[instr] = stage
                if depth == last:
                    return dict(assignment)
                pending.append(values)
                depth += 1
                instr = order[depth]
                values = iter(domains[instr])
                break
            else:  # every value at this depth failed: backtrack
                if depth == 0:
                    return None
                depth -= 1
                instr = order[depth]
                values = pending.pop()
                del assignment[instr]
    finally:
        budget.explored = explored


def _tables(
    netlist: Netlist, graph: DataflowGraph, windows: ScheduleWindow
) -> tuple[dict[int, list[int]], dict[int, list[int]], dict[int, list[int]], dict[int, list[int]]]:
    """Stage domains, conflicts, and reduced-dependency preds/succs.

    Two instructions conflict when they share a qubit and their windows
    overlap; these are exactly the pairs the LP export writes series-2 rows
    for.
    """
    domains = {i: list(windows.stages(i)) for i in graph.nodes}
    conflicts: dict[int, set[int]] = {i: set() for i in domains}
    for ids in common_qubit_table(netlist).values():
        for k, b in enumerate(ids):
            for a in ids[:k]:
                if max(windows.asap[a], windows.asap[b]) <= min(windows.alap[a], windows.alap[b]):
                    conflicts[a].add(b)
                    conflicts[b].add(a)
    preds: dict[int, list[int]] = {i: [] for i in domains}
    succs: dict[int, list[int]] = {i: [] for i in domains}
    for j, i in graph.reduced_edges():
        preds[i].append(j)
        succs[j].append(i)
    return domains, {i: sorted(c) for i, c in conflicts.items()}, preds, succs


def solve(
    netlist: Netlist,
    graph: DataflowGraph,
    windows: ScheduleWindow,
    node_budget: int | None = None,
    time_budget: float | None = None,
    *,
    budget: _Budget | None = None,
) -> Schedule | None:
    """Deterministic assignment within `windows`, or INFEASIBLE (None).

    The search spends `budget` when given (`schedule_netlist` shares one
    over all its horizons), else a fresh one of `node_budget` nodes and
    `time_budget` seconds.
    """
    domains, conflicts, preds, succs = _tables(netlist, graph, windows)
    if budget is None:
        budget = _Budget(node_budget, time_budget)
    ids = sorted(domains)

    # Refutation pass branching on tight windows first, then the canonical
    # id-ordered pass; both are complete, the first merely fails faster.
    by_slack = sorted(ids, key=lambda i: (len(domains[i]), i))
    if _search(by_slack, domains, conflicts, preds, succs, budget) is None:
        return INFEASIBLE
    assignment = _search(ids, domains, conflicts, preds, succs, budget)
    if assignment is None:
        raise SolverError("canonical pass found no assignment the refutation pass found")
    stage_count = max(assignment.values(), default=0)
    return Schedule(assignment, stage_count, windows.horizon)


def schedule_netlist(
    netlist: Netlist,
    node_budget: int | None = None,
    time_budget: float | None = None,
    graph: DataflowGraph | None = None,
) -> Schedule:
    """Minimal-stage schedule: grow the horizon from the lower bound.

    `node_budget` and `time_budget` bound the whole run, every horizon
    tried included.
    """
    if graph is None:
        graph = build_dataflow(netlist)
    if not netlist.instructions:
        return Schedule({}, 0, 0)
    budget = _Budget(node_budget, time_budget)
    horizon = max(1, stage_lower_bound(netlist, graph))
    while True:
        schedule = solve(netlist, graph, asap_alap(graph, horizon), budget=budget)
        if schedule is not None:
            return schedule
        horizon += 1  # horizon = n is always feasible, so this terminates


def validate(netlist: Netlist, graph: DataflowGraph, schedule: Schedule) -> list[Violation]:
    """Empty list iff the schedule is total, resource- and dependency-valid."""
    violations: list[Violation] = []
    stage_of = schedule.stage_of
    limit = schedule.horizon if schedule.horizon > 0 else None
    for instr in netlist.instructions:
        stage = stage_of.get(instr.id)
        if stage is None or stage < 1 or (limit is not None and stage > limit):
            violations.append(
                Violation(1, (instr.id,), f"instruction {instr.id} has no valid stage")
            )
    extras = sorted(set(stage_of) - {i.id for i in netlist.instructions})
    for instr_id in extras:
        violations.append(
            Violation(1, (instr_id,), f"stage assigned to unknown instruction {instr_id}")
        )
    for qubit, ids in common_qubit_table(netlist).items():
        staged = [(stage_of[i], i) for i in ids if i in stage_of]
        by_stage: dict[int, list[int]] = {}
        for stage, i in staged:
            by_stage.setdefault(stage, []).append(i)
        for stage, clashing in sorted(by_stage.items()):
            if len(clashing) > 1:
                violations.append(
                    Violation(
                        2,
                        tuple(clashing),
                        f"instructions {clashing} share q{qubit} in stage {stage}",
                    )
                )
    for j, i in sorted(graph.edges):
        if j in stage_of and i in stage_of and stage_of[j] >= stage_of[i]:
            violations.append(
                Violation(3, (j, i), f"instruction {i} depends on {j} but is not later")
            )
    return violations


def oracle_min_stages(netlist: Netlist, graph: DataflowGraph) -> int:
    """Exhaustive minimum stage count; independent of the ILP machinery."""
    n = len(netlist)
    if n > 12:
        raise ValueError(f"oracle limited to 12 instructions, got {n}")
    if n == 0:
        return 0
    qubits_of = {i.id: set(i.qubits) for i in netlist.instructions}
    preds = {i.id: graph.predecessors(i.id) for i in netlist.instructions}
    ids = [i.id for i in netlist.instructions]

    def assignable(horizon: int) -> bool:
        stage_of: dict[int, int] = {}

        def place(idx: int) -> bool:
            if idx == n:
                return True
            instr = ids[idx]
            for stage in range(1, horizon + 1):
                if any(stage_of[p] >= stage for p in preds[instr]):
                    continue
                if any(
                    stage_of.get(other) == stage and qubits_of[other] & qubits_of[instr]
                    for other in stage_of
                ):
                    continue
                stage_of[instr] = stage
                if place(idx + 1):
                    return True
                del stage_of[instr]
            return False

        return place(0)

    horizon = 1
    while not assignable(horizon):
        horizon += 1
    return horizon
