#!/usr/bin/env python3
"""ionpd benchmark: compile a workload's corpus through `ionpd.cli.main`.

    python3 perfbench/run.py --workload cat|layered|sched --seed N --seconds S --trace 0|1

Each circuit is compiled in process with
`ionpd.cli.main(["latency", <file>.qasm, "--library", ..., "--node-budget",
"1000000", "--out", <dir>])`, one circuit at a time, in passes over the
corpus until `--seconds` are used (at least two passes, so artifacts can be
compared byte for byte). Outputs are checked after each pass, outside the
timed calls. Every wall time is divided by the host's slowdown at the time,
which `hostspeed.probe` measures between compiles, so times read in seconds
of a reference host. With `--trace 0` the last stdout line carries the end-to-end
metrics; with `--trace 1`, passes alternate untraced and traced and the last
line carries the per-layer metrics (see tracer.py). Everything the run
writes stays under `.perfbench/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("cat", "layered", "sched")
NODE_BUDGET = "1000000"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60
BUDGET_MESSAGE = "solver budget exhausted"

LAYER_COUNTS = {
    "solver.solve_calls": "count",
    "solver.infeasible_horizons": "count",
    "solver.budget_exhausted": "count",
    "solver.nodes_at_exhaustion": "count",
    "solver.validate_calls": "count",
    "depgraph.build_dataflow_calls": "count",
    "ilp.emit_calls": "count",
    "ilp.exclusions": "count",
    "ilp.orders": "count",
    "planar.planarity_checks": "count",
    "planar.crossings": "count",
    "planar.splits": "count",
    "orthogonal.faces": "count",
    "orthogonal.bends": "count",
    "compact.area": "cells",
    "compact.edge_length": "grid_units",
    "drawing.problems": "count",
    "macrolayout.blocks": "count",
    "macrolayout.displaced_gates": "count",
    "macrolayout.route_cells": "count",
    "macrolayout.route_turns": "count",
    "qfg.edges": "count",
    "decompose.gates_out": "count",
    "latency.congestion_us": "sim_us",
    "latency.movement_us": "sim_us",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import ionpd from this checkout's sources, never from elsewhere."""
    if not (SRC / "ionpd" / "__init__.py").is_file():
        raise BenchError(f"no ionpd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ionpd

    if Path(ionpd.__file__).resolve().parent != (SRC / "ionpd").resolve():
        raise BenchError(f"imported ionpd from {ionpd.__file__}, not from {SRC}")
    return ionpd


def setup(workload: str, seed: int, inputs: Path):
    """Import the program, build the corpus and write its QASM files."""
    start = time.perf_counter()
    ionpd = load_program()
    from corpus import build_corpus

    corpus = build_corpus(workload, seed, ROOT / "circuits")
    inputs.mkdir(parents=True, exist_ok=True)
    for circuit in corpus:
        (inputs / f"{circuit.name}.qasm").write_text(
            ionpd.render_qasm(circuit.netlist), encoding="utf-8"
        )
    return corpus, time.perf_counter() - start


def setup_seconds(args, run_dir: Path, first_s: float) -> float:
    """Median set-up time in seconds of the reference host.

    The run's own set-up is repeated in fresh interpreters, one after
    another. Each time is divided by the host's slowdown around it: the mean
    of the probes taken just before and just after it."""
    from hostspeed import probe

    times = [first_s]
    slowdowns = [probe()]
    for k in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--inputs", str(run_dir / f"setup{k}")],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        slowdowns.append(probe())
    around = [slowdowns[0]] + [(a + b) / 2 for a, b in zip(slowdowns, slowdowns[1:])]
    return statistics.median(t / f for t, f in zip(times, around))


@dataclass
class Outcome:
    """What is known about one circuit after the passes."""

    codes: list = field(default_factory=list)
    times: list = field(default_factory=list)  # untraced compile seconds
    traced_times: list = field(default_factory=list)
    digest: dict | None = None
    problems: list = field(default_factory=list)
    stages: int | None = None
    latency: float | None = None
    blocks: int | None = None
    reference: float | None = None


def compile_circuit(cli_main, circuit, qasm: Path, out: Path):
    argv = ["latency", str(qasm), "--library", circuit.library,
            "--node-budget", NODE_BUDGET, "--out", str(out)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
    except Exception as exc:  # an escaped exception is a failed compile, not a crash of the run
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - start, sink.getvalue()


def digest_dir(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def gate_time_bound(ionpd, netlist) -> float:
    """Latency if every move were free: the longest chain of dependent gate
    costs, or the busiest qubit's total gate cost, whichever is larger."""
    model = ionpd.LatencyModel()
    graph = ionpd.build_dataflow(netlist)
    finish: dict[int, float] = {}
    busy: dict[int, float] = defaultdict(float)
    for instr in netlist.instructions:
        cost = model.gate_cost(instr.kind)
        finish[instr.id] = cost + max((finish[p] for p in graph.predecessors(instr.id)), default=0.0)
        for q in instr.qubits:
            busy[q] += cost
    return max(max(finish.values()), max(busy.values()))


def check_artifacts(ionpd, circuit, out: Path, result: Outcome) -> None:
    """Check one compiled circuit's artifacts against independent references."""
    from ionpd.drawing import OrthogonalDrawing

    def load(name):
        return (out / name).read_text(encoding="utf-8")

    netlist = ionpd.Netlist.from_json(load("netlist.json"))
    if circuit.library == "none" and netlist != circuit.netlist:
        result.problems.append("netlist.json differs from the input circuit")
    schedule = ionpd.Schedule.from_json(load("schedule.json"))
    graph = ionpd.build_dataflow(netlist)
    violations = ionpd.validate(netlist, graph, schedule)
    if violations:
        result.problems.append(f"schedule: {violations[0].message}")
    result.stages = schedule.stage_count
    if circuit.certified_stages is not None:
        if schedule.stage_count != circuit.certified_stages:
            result.problems.append(
                f"{schedule.stage_count} stages, certified minimum {circuit.certified_stages}"
            )
    elif schedule.stage_count < ionpd.stage_lower_bound(netlist, graph):
        result.problems.append(f"{schedule.stage_count} stages, below the lower bound")

    payload = json.loads(load("drawing.json"))
    drawing = OrthogonalDrawing(
        {n["id"]: (n["x"], n["y"]) for n in payload["nodes"]},
        {(e["from"], e["to"], e["qubit"]): tuple(map(tuple, e["points"])) for e in payload["edges"]},
        tuple(map(tuple, payload["crossings"])),
    )
    problems = ionpd.validate_drawing(drawing)
    if problems:
        result.problems.append(f"drawing: {problems[0]}")
    ids = {i.id for i in netlist.instructions}
    if set(drawing.node_pos) != ids:
        result.problems.append("drawing nodes differ from the instructions")

    layout = json.loads(load("layout.json"))
    if {g["instruction"] for g in layout["gate_locations"]} != ids:
        result.problems.append("layout gate locations differ from the instructions")
    result.blocks = len(layout["blocks"])
    result.latency = json.loads(load("latency.json"))["total_us"]
    if not (math.isfinite(result.latency) and result.latency > 0):
        result.problems.append(f"latency {result.latency} is not a positive number")
    result.reference = (
        ionpd.cat_latency_formula(circuit.cat_n)
        if circuit.cat_n is not None
        else gate_time_bound(ionpd, netlist)
    )


def record_pass(ionpd, corpus, outcomes, pass_dir: Path, codes_and_logs) -> None:
    """Compare one pass with the first; check artifacts on the first."""
    for circuit, (code, log) in zip(corpus, codes_and_logs):
        result = outcomes[circuit.name]
        out = pass_dir / circuit.name
        digest = digest_dir(out)
        first = result.digest is None
        result.codes.append(code)
        if first:
            result.digest = digest
            if code == 0:
                try:
                    check_artifacts(ionpd, circuit, out, result)
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    result.problems.append(f"unreadable artifacts: {exc!r}")
            elif not (code == 3 and BUDGET_MESSAGE in log):
                result.problems.append(f"exit {code}: {log.strip()[-200:]}")
        else:
            if code != result.codes[0]:
                result.problems.append(f"exit {code} after exit {result.codes[0]}")
            if digest != result.digest:
                changed = sorted(k for k in digest.keys() | result.digest.keys()
                                 if digest.get(k) != result.digest.get(k))
                result.problems.append(f"artifacts differ between passes: {changed}")
    shutil.rmtree(pass_dir, ignore_errors=True)


def run_passes(args, ionpd, corpus, inputs: Path, run_dir: Path):
    from hostspeed import probe, probe_after
    from ionpd.cli import main as cli_main
    from tracer import ROOT_SPAN, Tracer

    tracer = Tracer()
    outcomes = {c.name: Outcome() for c in corpus}
    traced_self: list[dict[str, float]] = []
    traced_counts: list[Counter] = []
    pass_seconds: list[float] = []
    passes: list[tuple[float, float]] = []  # (wall seconds compiling, host slowdown)
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        pass_dir = run_dir / f"pass{k}"
        first_span = len(tracer.spans)
        if traced:
            tracer.counts = Counter()
        pass_start = time.perf_counter()
        logs, seconds, slowdowns = [], [], [probe()]
        for circuit in corpus:
            if traced:
                tracer.install()
                tracer.circuit = f"{k}:{circuit.name}"
                span = tracer.open(ROOT_SPAN)
            try:
                code, wall, log = compile_circuit(
                    cli_main, circuit, inputs / f"{circuit.name}.qasm",
                    pass_dir / circuit.name,
                )
            finally:
                if traced:
                    tracer.close(span)
                    tracer.uninstall()
            logs.append((code, log))
            seconds.append(wall)
            slowdowns += probe_after(wall)
        slowdown = statistics.fmean(slowdowns)
        passes.append((sum(seconds), slowdown))
        for circuit, wall in zip(corpus, seconds):
            result = outcomes[circuit.name]
            (result.traced_times if traced else result.times).append(wall / slowdown)
        if traced:
            traced_self.append({
                span: t / slowdown for span, t in tracer.self_times(first_span).items()
            })
            traced_counts.append(tracer.counts)
        pass_seconds.append(time.perf_counter() - pass_start)
        record_pass(ionpd, corpus, outcomes, pass_dir, logs)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= 2 and elapsed + statistics.median(pass_seconds) > args.seconds:
            break
    return outcomes, tracer, traced_self, traced_counts, passes


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def summarize(corpus, outcomes) -> tuple[dict, int, int]:
    attempted = sum(len(o.codes) for o in outcomes.values())
    failed = sum(len(o.codes) for o in outcomes.values() if o.problems)
    solved = {n for n, o in outcomes.items() if not o.problems and all(c == 0 for c in o.codes)}
    scored = [outcomes[c.name] for c in corpus if c.scored and c.name in solved]
    metrics = {
        "compile_s": (sum(statistics.median(o.times) for o in outcomes.values()), "s"),
        "solved_share": (len(solved) / len(corpus), "ratio"),
        "circuit_latency": (geomean([o.latency for o in scored]), "sim_us"),
        "macroblocks": (geomean([o.blocks for o in scored]), "count"),
        "latency_ratio": (geomean([o.latency / o.reference for o in scored]), "ratio"),
    }
    return metrics, attempted, failed


def per_layer(outcomes, untraced_s, traced_self, traced_counts, passes) -> dict:
    """Self seconds per layer, counts per pass, and the tracing overhead."""
    from tracer import LAYER_TIMES

    metrics = {}
    for span, name in LAYER_TIMES.items():
        metrics[name] = (statistics.median(s.get(span, 0.0) for s in traced_self), "s")
    counts = traced_counts[0]
    for name, unit in LAYER_COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    traced_s = sum(statistics.median(o.traced_times) for o in outcomes.values())
    metrics["trace.compile_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["host.slowdown"] = (statistics.median(f for _, f in passes), "ratio")
    return metrics


def print_report(args, corpus, outcomes, metrics, passes) -> None:
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# passes: wall seconds compiling / host slowdown = "
          + ", ".join(f"{wall:.3f}/{f:.3f}" for wall, f in passes))
    print(f"# {'circuit':<18}{'exit':>6}{'compile_s':>11}{'stages':>8}{'latency':>10}{'blocks':>8}  problems")
    for circuit in corpus:
        o = outcomes[circuit.name]
        print(
            f"  {circuit.name:<18}{str(o.codes[0]):>6}{statistics.median(o.times):>11.4f}"
            f"{str(o.stages):>8}{str(o.latency):>10}{str(o.blocks):>8}  {'; '.join(o.problems)}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed, args.inputs)
        print(json.dumps({"setup_s": seconds}))
        return 0
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        corpus, setup_s = setup(args.workload, args.seed, run_dir / "inputs")
        import ionpd

        if not args.trace:
            setup_s = setup_seconds(args, run_dir, setup_s)
        outcomes, tracer, traced_self, traced_counts, passes = run_passes(
            args, ionpd, corpus, run_dir / "inputs", run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics, attempted, failed = summarize(corpus, outcomes)
    if args.trace:
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{args.workload}-{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in tracer.records())
        metrics = per_layer(outcomes, metrics["compile_s"][0], traced_self, traced_counts, passes)
    else:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print_report(args, corpus, outcomes, metrics, passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
