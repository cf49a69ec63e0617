"""Command-line pipeline: parse, schedule, draw, tile, route, simulate.

Every stage writes its artifact as a file so intermediate results can be
inspected or fed to external tools. Outputs are byte-stable across runs.

Exit codes: 0 success, 2 parse/input error, 3 infeasible or solver budget
exhausted, 4 layout error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from functools import cache
from pathlib import Path

from .circuits import generate_cat_circuit
from .decompose import DecomposeError, Library, decompose
from .depgraph import asap_alap, build_dataflow, stage_lower_bound
from .gates import Netlist, NetlistError
from .ilp import emit_ilp, to_lp_text
from .latency import LatencyConfigError, LatencyModel, lay_out, load_latency_model, simulate
from .macrolayout import LayoutError, place_qubits, route
from .planar import PlanarizeError
from .qasm import QasmError, parse_qasm
from .qfg import build_qfg
from .solver import (
    Schedule,
    SolverError,
    check_budget,
    oracle_min_stages,
    schedule_netlist,
    validate,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_LAYOUT = 4
EXIT_IO = 5

EMIT_FORMATS = ("dot", "svg", "lp", "json")


class _Emitter:
    def __init__(self, out_dir: str, emit: str):
        """`emit` is the comma list of `--emit`; an unknown name is an input error."""
        self.formats = set(emit.split(","))
        unknown = sorted(self.formats.difference(EMIT_FORMATS, ("",)))
        if unknown:
            raise ValueError(
                f"unknown --emit format {', '.join(unknown)}; choose from {', '.join(EMIT_FORMATS)}"
            )
        self.dir = Path(out_dir)
        self.made = False

    def write(self, name: str, render: Callable[[], str], fmt: str = "json") -> None:
        """Render and write one artifact, only if its format is requested;
        the directory is made at the first write."""
        if fmt != "json" and fmt not in self.formats:
            return
        if not self.made:
            self.dir.mkdir(parents=True, exist_ok=True)
            self.made = True
        (self.dir / name).write_text(render(), encoding="utf-8")


def _read_netlist(path: str) -> Netlist:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".json"):
        netlist = Netlist.from_json(text)
    else:
        netlist = parse_qasm(text)
    if not netlist.instructions:
        raise QasmError("empty netlist", 1)
    return netlist


def _require_gate_costs(netlist: Netlist, model: LatencyModel) -> None:
    """Reject, before any work, a gate kind the latency model cannot cost."""
    for kind in dict.fromkeys(instr.kind for instr in netlist.instructions):
        try:
            model.gate_cost(kind)
        except ValueError as exc:
            raise ValueError(
                f"{kind.label} gates have no latency cost; decompose them with --library cv|ft"
            ) from exc


def _pipeline(netlist: Netlist, args, emit: _Emitter, upto: str) -> int:
    if args.library != "none":
        netlist = decompose(netlist, Library(args.library))
    if upto == "latency":
        model = load_latency_model(args.latency_config)
        _require_gate_costs(netlist, model)
    emit.write("netlist.json", netlist.to_json)
    if upto == "parse":
        print(f"parsed {len(netlist)} instructions on {netlist.qubit_count} qubits")
        return EXIT_OK

    graph = build_dataflow(netlist)
    emit.write("dataflow.json", graph.to_json)
    emit.write("dataflow.dot", graph.to_dot, "dot")
    schedule = schedule_netlist(
        netlist, node_budget=args.node_budget, time_budget=args.time_budget, graph=graph
    )
    emit.write("schedule.json", schedule.to_json)
    h = schedule.horizon
    emit.write("model.lp", lambda: to_lp_text(emit_ilp(netlist, graph, asap_alap(graph, h))), "lp")
    violations = validate(netlist, graph, schedule)
    if violations:
        raise SolverError(f"scheduler produced an invalid schedule: {violations[0].message}")
    print(f"scheduled in {schedule.stage_count} stages (lower bound {stage_lower_bound(netlist, graph)})")
    if upto == "schedule":
        return EXIT_OK

    qfg = build_qfg(netlist, schedule, graph)
    emit.write("qfg.json", qfg.to_json)
    emit.write("qfg.dot", qfg.to_dot, "dot")
    drawing, layout = lay_out(netlist, qfg)
    emit.write("drawing.json", drawing.to_json)
    emit.write("drawing.svg", drawing.to_svg, "svg")
    emit.write("layout.json", layout.to_json)
    emit.write("layout.txt", layout.to_text)
    emit.write("layout.svg", layout.to_svg, "svg")
    if upto == "layout":
        print(f"layout: {len(layout.blocks)} macroblocks, {len(layout.gate_location_of)} gate locations")
        return EXIT_OK

    plan = route(qfg, drawing, layout)
    placement = place_qubits(qfg, layout)
    report = simulate(netlist, qfg, layout, plan, placement, model)
    emit.write("latency.json", report.to_json)
    print(f"total latency: {report.total} us over {schedule.stage_count} stages")
    return EXIT_OK


def _cmd_verify(args) -> int:
    netlist = _read_netlist(args.netlist)
    schedule = Schedule.from_json(Path(args.schedule).read_text(encoding="utf-8"))
    graph = build_dataflow(netlist)
    violations = validate(netlist, graph, schedule)
    if not violations:
        print("OK, 0 violations")
        return EXIT_OK
    for v in violations:
        print(f"series-{v.series} violation: {v.message}")
    return EXIT_SOLVER


def _cmd_oracle(args) -> int:
    netlist = _read_netlist(args.netlist)
    graph = build_dataflow(netlist)
    stages = oracle_min_stages(netlist, graph)
    print(f"{stages} stages")
    return EXIT_OK


def _budget(kind: type, name: str) -> Callable[[str], float]:
    """An argparse type: a `kind` that `check_budget` accepts as budget `name`."""
    def convert(text: str) -> float:
        value = kind(text)
        try:
            check_budget(name, value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--library", choices=["cv", "ft", "none"], default="none",
                        help="decompose Toffoli gates into this gate library")
    parser.add_argument("--latency-config", default=None, metavar="PATH")
    parser.add_argument("--emit", default="json", metavar="FMTS",
                        help=f"comma list of extra outputs: {','.join(EMIT_FORMATS)}")
    parser.add_argument("--node-budget", type=_budget(int, "node_budget"), default=None, metavar="N")
    parser.add_argument("--time-budget", type=_budget(float, "time_budget"), default=None, metavar="SECS")
    parser.add_argument("--out", default="out", metavar="DIR")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so no option carries over from one `main` call to the next."""
    parser = argparse.ArgumentParser(
        prog="ionpd",
        description="Ion-trap physical design: ILP scheduling, layout generation and latency simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("parse", "parse a netlist and write canonical JSON"),
        ("schedule", "run through ILP scheduling"),
        ("layout", "run through macroblock layout generation"),
        ("latency", "run the full pipeline including timing simulation"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="netlist file (.qasm text or canonical .json)")
        _add_common(p)
    p = sub.add_parser("cat-gen", help="generate an n-qubit Cat-state circuit, then run the full pipeline")
    p.add_argument("n", type=int)
    _add_common(p)
    p = sub.add_parser("verify", help="validate a schedule file against a netlist")
    p.add_argument("netlist")
    p.add_argument("schedule")
    p = sub.add_parser("oracle", help="exhaustive minimal stage count (small netlists)")
    p.add_argument("netlist")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        emit = _Emitter(args.out, args.emit)
        if args.command == "cat-gen":
            return _pipeline(generate_cat_circuit(args.n), args, emit, "latency")
        netlist = _read_netlist(args.input)
        return _pipeline(netlist, args, emit, args.command)
    except (PlanarizeError, LayoutError) as exc:  # both are ValueErrors, so catch them first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LAYOUT
    except (QasmError, NetlistError, DecomposeError, LatencyConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
