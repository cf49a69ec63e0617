"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces every public layer function wherever an `ionpd.*`
module namespace binds it (so nested calls such as `build_qfg` ->
`build_dataflow` become child spans) and counts `networkx.check_planarity`
calls. `uninstall()` puts the original functions back. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import networkx

# public function -> span name "<module>.<layer>"; the module part is the
# ionpd module that defines the function
LAYERS = {
    "parse_qasm": "qasm.parse",
    "decompose": "decompose.decompose",
    "build_dataflow": "depgraph.build_dataflow",
    "asap_alap": "depgraph.asap_alap",
    "emit_ilp": "ilp.emit",
    "to_lp_text": "ilp.to_lp_text",
    "schedule_netlist": "solver.schedule",
    "solve": "solver.solve",
    "validate": "solver.validate",
    "build_qfg": "qfg.build",
    "planarize": "planar.planarize",
    "orthogonalize": "orthogonal.orthogonalize",
    "compact": "compact.compact",
    "validate_drawing": "drawing.validate",
    "tile": "macrolayout.tile",
    "route": "macrolayout.route",
    "place_qubits": "macrolayout.place",
    "simulate": "latency.simulate",
}

# the span around one whole `cli.main` call; its self time is the CLI's own
# work: argument parsing, serialization and artifact writes
ROOT_SPAN = "cli"

# span name -> name of its self-time metric
LAYER_TIMES = {span: f"{span}_s" for span in LAYERS.values()} | {ROOT_SPAN: "cli.self_s"}


def _bbox_cells(drawing) -> int:
    points = list(drawing.node_pos.values())
    for pts in drawing.routes.values():
        points.extend(pts)
    if not points:
        return 0
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


def _edge_length(drawing) -> int:
    return sum(
        abs(b[0] - a[0]) + abs(b[1] - a[1])
        for pts in drawing.routes.values()
        for a, b in zip(pts, pts[1:])
    )


def _count_result(name: str, result, counts: Counter) -> None:
    """Size counts taken from a layer function's return value."""
    if name == "solver.solve" and result is None:
        counts["solver.infeasible_horizons"] += 1
    elif name == "ilp.emit":
        counts["ilp.exclusions"] += len(result.exclusions)
        counts["ilp.orders"] += len(result.orders)
    elif name == "planar.planarize":
        counts["planar.crossings"] += len(result.crossings)
        counts["planar.splits"] += len(result.splits)
    elif name == "orthogonal.orthogonalize":
        counts["orthogonal.faces"] += len(result.faces)
        counts["orthogonal.bends"] += result.total_bends
    elif name == "compact.compact":
        counts["compact.area"] += _bbox_cells(result)
        counts["compact.edge_length"] += _edge_length(result)
    elif name == "drawing.validate":
        counts["drawing.problems"] += len(result)
    elif name == "macrolayout.tile":
        counts["macrolayout.blocks"] += len(result.blocks)
        counts["macrolayout.displaced_gates"] += sum(
            1 for i, cell in result.gate_location_of.items() if cell != result.node_cell.get(i)
        )
    elif name == "macrolayout.route":
        counts["macrolayout.route_cells"] += sum(len(steps) for steps in result.steps.values())
        counts["macrolayout.route_turns"] += sum(
            1 for steps in result.steps.values() for step in steps if step.turn
        )
    elif name == "qfg.build":
        counts["qfg.edges"] += len(result.edges)
    elif name == "decompose.decompose":
        counts["decompose.gates_out"] += len(result)
    elif name == "latency.simulate":
        counts["latency.congestion_us"] += result.congestion_delay
        counts["latency.movement_us"] += sum(result.movement_time.values())


class Tracer:
    def __init__(self) -> None:
        # one row per span: [name, start, end, parent span id or None, circuit]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.circuit: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.circuit])
        self._stack.append(span_id)
        self.counts[f"{name}_calls"] += 1
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")

    def _wrap(self, name: str, fn):
        from ionpd.solver import SolverBudgetExceeded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except SolverBudgetExceeded as exc:
                if name == "solver.solve":
                    self.counts["solver.budget_exhausted"] += 1
                    self.counts["solver.nodes_at_exhaustion"] += exc.explored
                raise
            finally:
                self.close(span_id)
            _count_result(name, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "ionpd" or n.startswith("ionpd.")]
        for fname, span in LAYERS.items():
            original = getattr(sys.modules[f"ionpd.{span.split('.')[0]}"], fname)
            wrapper = self._wrap(span, original)
            for module in modules:
                if getattr(module, fname, None) is original:
                    self._patched.append((module, fname, original))
                    setattr(module, fname, wrapper)
        check = networkx.check_planarity

        @functools.wraps(check)
        def counted(*args, **kwargs):
            self.counts["planar.planarity_checks"] += 1
            return check(*args, **kwargs)

        self._patched.append((networkx, "check_planarity", check))
        networkx.check_planarity = counted

    def uninstall(self) -> None:
        while self._patched:
            module, fname, original = self._patched.pop()
            setattr(module, fname, original)

    def self_times(self, first: int) -> dict[str, float]:
        """Seconds per span name over spans[first:], minus child span time."""
        child = defaultdict(float)
        rows = self.spans[first:]
        for name, start, end, parent, _ in rows:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, _, _) in enumerate(rows):
            totals[name] += (end - start) - child[first + offset]
        return dict(totals)

    def records(self) -> list[dict]:
        return [
            {"id": k, "name": n, "start": s, "end": e, "parent": p, "circuit": c}
            for k, (n, s, e, p, c) in enumerate(self.spans)
        ]
