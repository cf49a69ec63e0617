"""0/1 ILP formulation of the stage-assignment problem, as an LP export.

Binary variable x_i(l) is 1 when instruction i runs in stage l of its
ASAP/ALAP window. Three constraint series are emitted:

  series 1 - each instruction executes in exactly one stage of its window,
  series 2 - two instructions sharing a qubit never occupy the same stage,
  series 3 - for each edge j -> i of the dataflow graph (a transitive
             reduction), the stage of j is strictly below the stage of i,
             written as
             sum(l * x_j(l)) + 1 <= sum(l * x_i(l)).

The solver does not read this model; it is written out so that external
solvers can cross-check the schedule. Series 1, the objective and the
`Binary` list come from the windows alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .depgraph import DataflowGraph, ScheduleWindow
from .gates import Netlist


@dataclass(frozen=True)
class IlpModel:
    windows: ScheduleWindow
    exclusions: tuple[tuple[int, int, int], ...]  # (a, b, stage) with a < b
    orders: tuple[tuple[int, int], ...]  # the dataflow graph's edges (j, i)


def emit_ilp(netlist: Netlist, graph: DataflowGraph, windows: ScheduleWindow) -> IlpModel:
    """The model at `windows.horizon`. Exclusion rows go by b, then a, then
    stage; each qubit-sharing pair is one pair even when it shares two qubits."""
    pairs = {
        (b, a)
        for row in graph.qubit_table(netlist).values()
        for k, b in enumerate(row)
        for a in row[:k]
    }
    asap, alap = windows.asap, windows.alap
    exclusions = tuple(
        (a, b, l)
        for b, a in sorted(pairs)
        for l in range(max(asap[a], asap[b]), min(alap[a], alap[b]) + 1)
    )
    return IlpModel(windows, exclusions, graph.edges)


def _weighted_terms(instr: int, stages: range, sign: str) -> list[str]:
    """`sign` l x_instr_l for every stage l (stages count from 1)."""
    return [f"{sign} x_{instr}_{l}" if l == 1 else f"{sign} {l} x_{instr}_{l}" for l in stages]


def to_lp_text(model: IlpModel) -> str:
    """Render in LP format so external solvers can cross-check the model."""
    windows = model.windows
    domains = {i: windows.stages(i) for i in sorted(windows.asap)}
    lines = [f"\\ stage assignment at horizon {windows.horizon}", "Minimize"]
    obj = " ".join(t for i, stages in domains.items() for t in _weighted_terms(i, stages, "+"))
    lines.append(f" obj: {obj.lstrip('+ ')}")
    lines.append("Subject To")
    lines.append("\\ series 1: each instruction executes exactly once")
    for i, stages in domains.items():
        expr = " + ".join(f"x_{i}_{l}" for l in stages)
        lines.append(f" s1_{i}: {expr} = 1")
    lines.append("\\ series 2: instructions sharing a qubit are exclusive per stage")
    for a, b, l in model.exclusions:
        lines.append(f" s2_{a}_{b}_{l}: x_{a}_{l} + x_{b}_{l} <= 1")
    lines.append("\\ series 3: dependency order")
    for j, i in model.orders:
        terms = _weighted_terms(j, domains[j], "+") + _weighted_terms(i, domains[i], "-")
        expr = " ".join(terms).lstrip("+ ")
        lines.append(f" s3_{j}_{i}: {expr} <= -1")
    lines.append("Binary")
    lines.extend(f" x_{i}_{l}" for i, stages in domains.items() for l in stages)
    lines.append("End")
    return "\n".join(lines) + "\n"
