"""Stage solver, schedule validation and brute-force oracle.

`solve` gives every instruction a stage inside its `[asap, alap]` window at
one horizon, so that instructions sharing a qubit get distinct stages and
each dependency edge j -> i puts j strictly before i. It runs a complete
depth-first search with bounds propagation, `_search`:

- Every instruction has stage bounds [lo, hi], first its window. Placing an
  instruction narrows the bounds of the others; a trail records each change
  and a backtrack undoes it.
- Precedence: the successors' lo moves above the stage and the
  predecessors' hi below it, transitively over the dependency edges.
- Occupancy: a per-qubit set of occupied stages tells in one lookup per
  qubit whether a stage is free. The bounds of unplaced instructions on the
  qubit step past occupied stages.
- Hall check (Puget, AAAI 1998): on each qubit whose bounds moved, the
  unplaced instructions must fit distinct free stages inside their bounds.
  Their bounds are intervals, so this is a convex bipartite matching, which
  a greedy pass decides exactly (Glover 1967): in order of (hi, lo), each
  takes the lowest free stage at or above its lo that no earlier one took.

A node fails as soon as some bounds cross or a Hall check fails. Every value
tried is one node.

`solve` runs that search with the tightest windows branched on first, so
an infeasible horizon is refuted fast, and takes the solution it finds as a
certificate. It then probes for the lexicographically smallest stage
vector in ascending instruction id: each instruction tries, in ascending
order, the stages below its certificate stage that are after its
predecessors' and free on its qubits, one search per stage with the
instructions before it fixed. The first stage that a search completes is
the instruction's lex-min stage and that search's solution the new
certificate; if none does, the certificate's stage is the lowest left. The
lex-min vector is unique, so the output is canonical and runs are
independent of each other.

`schedule_netlist` grows the horizon from a lower bound. An id-order list
schedule (each instruction in the first stage after its predecessors that
is free on all its qubits) fits every horizon of at least its length L, so
below L each horizon is refuted or solved by `solve`. Once every horizon
below L is refuted, the list schedule itself is returned, because it is the
lex-min vector at L: every predecessor of an instruction has a smaller id,
so with the earlier instructions at their lex-min stages the lowest stage
left to it is the list schedule's choice, and the list schedule's own
continuation completes that choice within L.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Collection
from dataclasses import dataclass

from .artifact import json_field, json_ints, render_json
from .depgraph import (
    DataflowGraph,
    ScheduleWindow,
    asap_alap,
    build_dataflow,
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
    horizon: int

    @property
    def stage_count(self) -> int:
        """The last stage in use, 0 for an empty schedule."""
        return max(self.stage_of.values(), default=0)

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
        return render_json(payload)

    @staticmethod
    def from_json(text: str) -> "Schedule":
        """The schedule `to_json` wrote; `ValueError` names a missing or
        mistyped field, a horizon below 1 beside listed stages, or an
        instruction listed twice."""
        payload = json.loads(text)
        stages = json_field(payload, "stages", list)
        stage_of: dict[int, int] = {}
        for entry in stages:
            stage = json_field(entry, "stage", int)
            for instr_id in json_ints(entry, "instruction_ids"):
                if instr_id in stage_of:
                    raise ValueError(
                        f"instruction {instr_id} is scheduled twice, in stages "
                        f"{stage_of[instr_id]} and {stage}"
                    )
                stage_of[instr_id] = stage
        stage_count = max(stage_of.values(), default=0)
        horizon = json_field(payload, "horizon", int) if "horizon" in payload else stage_count
        if stages and horizon < 1:
            raise ValueError(f"field 'horizon' must be at least 1 beside listed stages, got {horizon}")
        return Schedule(stage_of, horizon)


@dataclass(frozen=True)
class Violation:
    series: int
    instructions: tuple[int, ...]
    message: str


def check_budget(name: str, value: float | None) -> None:
    """Raise `ValueError` naming the budget `name` unless `value` is None
    (no limit) or finite and at least 0; NaN is neither."""
    if value is not None and not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and at least 0, got {value!r}")


class _Budget:
    """Nodes and seconds one scheduling run may spend, over every search of
    every horizon it tries, probes included."""

    def __init__(self, node_budget: int | None, time_budget: float | None):
        check_budget("node_budget", node_budget)
        check_budget("time_budget", time_budget)
        self.node_budget = node_budget
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.explored = 0


def _hall(ws: Collection[int], lo: list[int], hi: list[int], taken: set[int]) -> bool:
    """Hall's condition for the unplaced variables `ws` on one qubit with
    occupied stages `taken`: they fit distinct free stages within their
    bounds. In order of (hi, lo), each takes the lowest free stage at or
    above its lo that no earlier one took, which finds such a matching
    whenever one exists (Glover 1967)."""
    if len(ws) < 3:
        # bounds never rest on an occupied stage, so with one or two
        # variables only two fixed to the same stage break the condition
        if len(ws) < 2:
            return True
        v, w = ws
        return not lo[v] == hi[v] == lo[w] == hi[w]
    skip: dict[int, int] = {}  # taken or matched stage -> a higher stage to try
    for b, a in sorted(zip(map(hi.__getitem__, ws), map(lo.__getitem__, ws))):
        passed = []
        while True:
            if a in skip:
                passed.append(a)
                a = skip[a]
            elif a in taken:
                passed.append(a)
                a += 1
            else:
                break
        if a > b:
            return False
        skip[a] = a + 1
        for s in passed:  # path compression: all of them lie below a + 1
            skip[s] = a + 1
    return True


def _search(
    netlist: Netlist, graph: DataflowGraph, windows: ScheduleWindow, budget: _Budget
) -> dict[int, int] | None:
    """Some assignment within `windows`, or None if there is none: a DFS
    with bounds propagation that branches on the tightest windows first, so
    an infeasible problem fails fast, and tries each variable's stages in
    ascending order.

    Variables are the positions in that order, so the variable branched on
    at depth d is d and every variable below it is placed. Each placement
    narrows the stage bounds of the others (`place`); the changes are logged
    on a trail and undone on backtrack. Iterative, with one value iterator
    per depth, so the search depth is not bounded by the recursion limit.
    Every value tried is one node.
    """
    order = sorted(windows.asap, key=lambda i: (windows.slack(i), i))
    if not order:
        return {}
    position = {instr: k for k, instr in enumerate(order)}
    qubits_of = {instr.id: instr.qubits for instr in netlist.instructions}
    qubits = [qubits_of[instr] for instr in order]
    lo = [windows.asap[instr] for instr in order]
    hi = [windows.alap[instr] for instr in order]
    succs: list[list[int]] = [[] for _ in order]
    preds: list[list[int]] = [[] for _ in order]
    for j, i in graph.edges:
        succs[position[j]].append(position[i])
        preds[position[i]].append(position[j])
    linked = [bool(succs[k] or preds[k]) for k in range(len(order))]
    unplaced: dict[int, set[int]] = {}  # qubit -> unplaced variables on it
    for k, qs in enumerate(qubits):
        for q in qs:
            unplaced.setdefault(q, set()).add(k)
    taken: dict[int, set[int]] = {q: set() for q in unplaced}  # qubit -> occupied stages
    occupied = [tuple(taken[q] for q in qs) for qs in qubits]  # variable -> its qubits' sets
    trail: list[int] = []  # (variable, old lo, old hi) triples, flattened

    def place(k: int, stage: int) -> bool:
        """Put variable k in `stage` and narrow what that implies; False as
        soon as some bounds cross or a qubit fails `_hall`. The caller undoes
        the changes either way through `undo`."""
        # placing a variable whose bounds already met changes no Hall count
        moved = set() if lo[k] == hi[k] else set(qubits[k])
        queue = [k]

        def tighten(w: int, a: int, b: int) -> bool:
            sets = occupied[w]
            if len(sets) == 1:
                t = sets[0]
                while a in t:
                    a += 1
                while b in t:
                    b -= 1
            elif len(sets) == 2:
                t, u = sets
                while a in t or a in u:
                    a += 1
                while b in t or b in u:
                    b -= 1
            else:
                while any(a in t for t in sets):
                    a += 1
                while any(b in t for t in sets):
                    b -= 1
            if a > b:
                return False
            trail.extend((w, lo[w], hi[w]))
            lo[w], hi[w] = a, b
            moved.update(qubits[w])
            if linked[w]:
                queue.append(w)
            return True

        trail.extend((k, lo[k], hi[k]))
        lo[k] = hi[k] = stage
        for q in qubits[k]:
            taken[q].add(stage)
            unplaced[q].discard(k)
        # occupancy: a bound on the newly occupied stage steps past it. A
        # one-qubit variable steps to the qubit's nearest free stage, found
        # once per qubit, because in a long run of one-qubit gates every
        # unplaced gate steps at every placement.
        for q in qubits[k]:
            t = taken[q]
            up, down = stage + 1, stage - 1
            while up in t:
                up += 1
            while down in t:
                down -= 1
            for w in unplaced[q]:
                a, b = lo[w], hi[w]
                if a != stage and b != stage:
                    continue
                if len(occupied[w]) > 1:
                    if not tighten(w, a, b):
                        return False
                    continue
                trail.extend((w, a, b))
                if a == stage:
                    lo[w] = a = up
                if b == stage:
                    hi[w] = b = down
                if a > b:
                    return False
                moved.add(q)
                if linked[w]:
                    queue.append(w)
        # precedence, transitively over the dependency edges; a placed
        # variable cannot move, so a bound that would move it fails
        while queue:
            v = queue.pop()
            a = lo[v] + 1
            for w in succs[v]:
                if lo[w] < a and (w <= k or not tighten(w, a, hi[w])):
                    return False
            b = hi[v] - 1
            for w in preds[v]:
                if hi[w] > b and (w <= k or not tighten(w, lo[w], b)):
                    return False
        return all(_hall(unplaced[q], lo, hi, taken[q]) for q in moved)

    def undo(k: int, mark: int) -> None:
        """Take variable k out of its stage and restore the bounds of `mark`."""
        for q in qubits[k]:
            taken[q].discard(lo[k])
            unplaced[q].add(k)
        while len(trail) > mark:
            hi_w, lo_w, w = trail.pop(), trail.pop(), trail.pop()
            lo[w], hi[w] = lo_w, hi_w

    limit, deadline = budget.node_budget, budget.deadline
    explored = budget.explored
    pending: list = []  # value iterators of the shallower depths, resumed on backtrack
    marks: list[int] = []  # trail length before each shallower depth's placement
    depth, last = 0, len(order) - 1
    values = iter(range(lo[0], hi[0] + 1))
    sets = occupied[0]
    try:
        while True:
            for stage in values:
                explored += 1
                if limit is not None and explored > limit:
                    raise SolverBudgetExceeded(explored, "node budget")
                if deadline is not None and time.monotonic() > deadline:
                    raise SolverBudgetExceeded(explored, "time budget")
                if len(sets) == 1:
                    if stage in sets[0]:
                        continue
                elif len(sets) == 2:
                    if stage in sets[0] or stage in sets[1]:
                        continue
                elif any(stage in t for t in sets):
                    continue
                mark = len(trail)
                if not place(depth, stage):
                    undo(depth, mark)
                    continue
                if depth == last:
                    return {instr: lo[k] for k, instr in enumerate(order)}
                pending.append(values)
                marks.append(mark)
                depth += 1
                values = iter(range(lo[depth], hi[depth] + 1))
                sets = occupied[depth]
                break
            else:  # every value at this depth failed: backtrack
                if depth == 0:
                    return None
                depth -= 1
                values = pending.pop()
                undo(depth, marks.pop())
                sets = occupied[depth]
    finally:
        budget.explored = explored


def solve(
    netlist: Netlist,
    graph: DataflowGraph,
    windows: ScheduleWindow,
    budget: _Budget | None = None,
) -> Schedule | None:
    """The lex-min assignment within `windows`, or INFEASIBLE (None): one
    search finds a certificate, then each instruction in id order probes the
    stages below its certificate stage with the earlier ones fixed.

    Every search spends `budget`, the run's shared budget that
    `schedule_netlist` builds once for all its horizons; None sets no limit.
    """
    budget = budget or _Budget(None, None)
    found = _search(netlist, graph, windows, budget)
    if found is None:
        return INFEASIBLE
    asap, alap = dict(windows.asap), dict(windows.alap)
    fixed = ScheduleWindow(windows.horizon, asap, alap)  # earlier instructions at asap = alap
    busy: dict[int, set[int]] = {}  # qubit -> stages of the fixed instructions
    for instr in netlist.instructions:
        i = instr.id
        sets = [busy.setdefault(q, set()) for q in instr.qubits]
        start = max([asap[i]] + [found[j] + 1 for j in graph.predecessors(i)])
        for stage in range(start, found[i]):
            if any(stage in t for t in sets):
                continue
            asap[i] = alap[i] = stage
            probe = _search(netlist, graph, fixed, budget)
            if probe is not None:
                found = probe
                break
        asap[i] = alap[i] = found[i]
        for t in sets:
            t.add(found[i])
    return Schedule(found, windows.horizon)


def list_schedule(netlist: Netlist, graph: DataflowGraph) -> dict[int, int]:
    """The id-order list schedule: each instruction goes to the first stage
    after its predecessors that is free on all its qubits. The schedule is
    valid, so every horizon from its length on is feasible."""
    reach = dict.fromkeys(graph.nodes, 1)  # first stage after the predecessors placed so far
    busy: dict[int, set[int]] = {}  # qubit -> occupied stages
    edges = iter(graph.edges)  # (j, i) ascending, so j is placed first
    edge = next(edges, None)
    stage_of: dict[int, int] = {}
    for instr in netlist.instructions:
        stage = reach[instr.id]
        sets = [busy.setdefault(q, set()) for q in instr.qubits]
        while any(stage in t for t in sets):
            stage += 1
        for t in sets:
            t.add(stage)
        while edge is not None and edge[0] == instr.id:
            if reach[edge[1]] <= stage:
                reach[edge[1]] = stage + 1
            edge = next(edges, None)
        stage_of[instr.id] = stage
    return stage_of


def schedule_netlist(
    netlist: Netlist,
    node_budget: int | None = None,
    time_budget: float | None = None,
    graph: DataflowGraph | None = None,
) -> Schedule:
    """Minimal-stage schedule: grow the horizon from the lower bound.

    Below the list schedule's length each horizon is refuted or solved by
    `solve`; once all of them are refuted, the list schedule is the lex-min
    schedule at its own length and is returned without a search.
    `node_budget` and `time_budget` bound the whole run, every horizon
    tried included; a negative, infinite or NaN budget raises `ValueError`.
    """
    budget = _Budget(node_budget, time_budget)
    if graph is None:
        graph = build_dataflow(netlist)
    greedy = list_schedule(netlist, graph)
    length = max(greedy.values(), default=0)
    for horizon in range(max(1, stage_lower_bound(netlist, graph)), length):
        schedule = solve(netlist, graph, asap_alap(graph, horizon), budget=budget)
        if schedule is not None:
            return schedule
    return Schedule(greedy, length)


def validate(netlist: Netlist, graph: DataflowGraph, schedule: Schedule) -> list[Violation]:
    """Empty list iff the schedule is total, inside its horizon, resource-
    and dependency-valid."""
    violations: list[Violation] = []
    stage_of = schedule.stage_of
    horizon = schedule.horizon
    for instr in netlist.instructions:
        stage = stage_of.get(instr.id)
        if stage is None or not 1 <= stage <= horizon:
            violations.append(
                Violation(1, (instr.id,), f"instruction {instr.id} has no valid stage")
            )
    extras = sorted(set(stage_of) - {i.id for i in netlist.instructions})
    for instr_id in extras:
        violations.append(
            Violation(1, (instr_id,), f"stage assigned to unknown instruction {instr_id}")
        )
    for qubit, ids in graph.qubit_table(netlist).items():
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
    for j, i in graph.edges:
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
