"""Ion-trap physical design toolchain.

Pipeline: QASM-style netlist -> dependency analysis -> ILP stage scheduling
-> qubit flow graph -> bend-minimal orthogonal drawing, and for a dense flow
graph with crossings a drawing in stage columns too, each tightened to the
room tiling needs, the one with the shorter drawn critical path kept ->
macroblock layout (the drawing and the layout come from one call,
`lay_out`) -> placement and routes -> latency simulation.
"""

from .circuits import generate_cat_circuit
from .columns import draw_columns
from .compact import compact
from .decompose import Library, decompose
from .depgraph import (
    DataflowGraph,
    ScheduleWindow,
    asap_alap,
    build_dataflow,
    common_qubit_table,
    exchangeable,
    stage_lower_bound,
)
from .drawing import OrthogonalDrawing, validate_drawing
from .gates import GateKind, Instruction, Netlist, make_netlist
from .ilp import IlpModel, emit_ilp, to_lp_text
from .latency import (
    LatencyModel,
    LatencyReport,
    cat_latency_formula,
    lay_out,
    load_latency_model,
    simulate,
)
from .macrolayout import MacroLayout, Macroblock, RoutePlan, place_qubits, route, tile
from .orthogonal import OrthoRep, orthogonalize
from .planar import PlanarizedGraph, planarize
from .qasm import parse_qasm, render_qasm
from .qfg import QubitFlowGraph, build_qfg
from .refplan import build_reference_cat_plan
from .solver import (
    INFEASIBLE,
    Schedule,
    oracle_min_stages,
    schedule_netlist,
    solve,
    validate,
)

__all__ = [
    "DataflowGraph", "GateKind", "IlpModel", "INFEASIBLE", "Instruction",
    "LatencyModel", "LatencyReport", "Library", "MacroLayout", "Macroblock",
    "Netlist", "OrthoRep", "OrthogonalDrawing", "PlanarizedGraph",
    "QubitFlowGraph", "RoutePlan", "Schedule", "ScheduleWindow",
    "asap_alap", "build_dataflow", "build_qfg", "build_reference_cat_plan",
    "cat_latency_formula", "common_qubit_table", "compact", "decompose", "draw_columns",
    "emit_ilp", "exchangeable", "generate_cat_circuit", "lay_out",
    "load_latency_model", "make_netlist", "oracle_min_stages", "orthogonalize",
    "parse_qasm", "place_qubits", "planarize", "render_qasm",
    "route", "schedule_netlist", "simulate", "solve", "stage_lower_bound",
    "tile", "to_lp_text", "validate", "validate_drawing",
]

__version__ = "0.1.0"
