"""Parser and serializer for the QASM-style netlist format.

Grammar, one instruction per line:

    [ (<label>) ] <GATE> <q_i>[,<q_j>[,<q_k>]]

`#` starts a comment, blank lines are skipped, gate names are case
insensitive and whitespace around operands is irrelevant. The optional
numeric label, when present, must agree with the instruction's 1-based
position.
"""

from __future__ import annotations

import re

from .gates import GATE_ALIASES, Instruction, Netlist

_LINE_RE = re.compile(
    r"^\s*(?:\(\s*(?P<label>\d+)\s*\)\s*)?(?P<gate>[A-Za-z]+)\s+(?P<operands>[qQ]\d+(?:\s*,\s*[qQ]\d+)*)\s*$"
)


class QasmError(ValueError):
    """Parse failure; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_qasm(text: str) -> Netlist:
    """Parse netlist text into a Netlist, assigning ids in textual order."""
    instructions: list[Instruction] = []
    max_qubit = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise QasmError(f"malformed line: {raw.strip()!r}", line_no)
        next_id = len(instructions) + 1
        if m.group("label") is not None and int(m.group("label")) != next_id:
            raise QasmError(
                f"label ({m.group('label')}) out of sequence, expected ({next_id})", line_no
            )
        kind = GATE_ALIASES.get(m.group("gate").upper())
        if kind is None:
            raise QasmError(f"unknown gate name {m.group('gate')!r}", line_no)
        qubits = [int(tok.strip()[1:]) for tok in m.group("operands").split(",")]
        if len(qubits) != kind.arity:
            raise QasmError(
                f"{kind.label} expects {kind.arity} operand(s), got {len(qubits)}", line_no
            )
        if len(set(qubits)) != len(qubits):
            raise QasmError("duplicate operand qubit", line_no)
        instructions.append(
            Instruction(next_id, kind, tuple(qubits[:-1]), qubits[-1])
        )
        max_qubit = max(max_qubit, *qubits)
    return Netlist(tuple(instructions), max_qubit + 1)


def render_qasm(netlist: Netlist) -> str:
    """Serialize canonically; `parse_qasm(render_qasm(n)) == n`."""
    lines = [str(instr) for instr in netlist.instructions]
    return "\n".join(lines) + ("\n" if lines else "")
