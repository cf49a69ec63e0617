"""Gate vocabulary and netlist data model.

A netlist is an ordered list of numbered instructions; each instruction is a
gate applied to a set of control qubits and one target qubit. Uncontrolled
gates simply have an empty control set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

from .artifact import json_field, json_ints, render_json


class GateKind(Enum):
    H = ("H", 1)
    X = ("X", 1)
    T = ("T", 1)
    Tdg = ("Tdg", 1)
    S = ("S", 1)
    CX = ("CX", 2)
    CY = ("CY", 2)
    CZ = ("CZ", 2)
    CV = ("CV", 2)
    CVdg = ("CVdg", 2)
    Toffoli = ("Toffoli", 3)
    Measure = ("Measure", 1)
    PrepZ = ("PrepZ", 1)

    def __init__(self, label: str, arity: int) -> None:
        self.label = label
        self.arity = arity
        # diagonal single-qubit gates commute with each other on a shared wire
        self.diagonal_1q = label in ("T", "Tdg", "S")
        # state-collapsing operations never commute with anything on their wire
        self.non_unitary = label in ("Measure", "PrepZ")


# Upper-cased spelling -> kind; CCX is accepted as a Toffoli alias.
GATE_ALIASES: dict[str, GateKind] = {k.label.upper(): k for k in GateKind}
GATE_ALIASES["CCX"] = GateKind.Toffoli


class NetlistError(ValueError):
    """Malformed instruction or netlist."""


@dataclass(frozen=True)
class Instruction:
    """One numbered gate. `controls` are ordered; `target` is the acted-on wire."""

    id: int
    kind: GateKind
    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if self.id < 1:
            raise NetlistError(f"instruction id must be >= 1, got {self.id}")
        if len(self.controls) != self.kind.arity - 1:
            raise NetlistError(
                f"instruction {self.id}: {self.kind.label} takes "
                f"{self.kind.arity - 1} control(s), got {len(self.controls)}"
            )
        operands = (*self.controls, self.target)
        if len(set(operands)) != len(operands):
            raise NetlistError(f"instruction {self.id}: duplicate operand qubit")
        if any(q < 0 for q in operands):
            raise NetlistError(f"instruction {self.id}: negative qubit index")

    @property
    def qubits(self) -> tuple[int, ...]:
        return (*self.controls, self.target)

    def __str__(self) -> str:
        ops = ",".join(f"q{q}" for q in self.qubits)
        return f"{self.kind.label} {ops}"


@dataclass(frozen=True)
class Netlist:
    instructions: tuple[Instruction, ...]
    qubit_count: int

    def __post_init__(self) -> None:
        for pos, instr in enumerate(self.instructions, start=1):
            if instr.id != pos:
                raise NetlistError(
                    f"instruction ids must be 1..n in order; position {pos} has id {instr.id}"
                )
            for q in instr.qubits:
                if q >= self.qubit_count:
                    raise NetlistError(
                        f"instruction {instr.id}: qubit q{q} outside qubit_count {self.qubit_count}"
                    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, instr_id: int) -> Instruction:
        """Look up an instruction by its 1-based id."""
        return self.instructions[instr_id - 1]

    def to_json(self) -> str:
        payload = {
            "qubit_count": self.qubit_count,
            "instructions": [
                {
                    "id": i.id,
                    "kind": i.kind.label,
                    "controls": list(i.controls),
                    "target": i.target,
                }
                for i in self.instructions
            ],
        }
        return render_json(payload)

    @staticmethod
    def from_json(text: str) -> "Netlist":
        """The netlist `to_json` wrote, other members ignored; `NetlistError`
        names a missing or mistyped field, or a `kind` that names no gate."""
        payload = json.loads(text)
        instrs = []
        for entry in json_field(payload, "instructions", list, NetlistError):
            label = json_field(entry, "kind", str, NetlistError)
            if label.upper() not in GATE_ALIASES:
                raise NetlistError(f"field 'kind' names no gate: {label!r}")
            instrs.append(Instruction(
                id=json_field(entry, "id", int, NetlistError),
                kind=GATE_ALIASES[label.upper()],
                controls=tuple(json_ints(entry, "controls", NetlistError)),
                target=json_field(entry, "target", int, NetlistError),
            ))
        return Netlist(tuple(instrs), json_field(payload, "qubit_count", int, NetlistError))


def make_netlist(gates: list[tuple[GateKind, tuple[int, ...], int]]) -> Netlist:
    """Build a netlist from (kind, controls, target) triples, numbering from 1."""
    instrs = tuple(
        Instruction(i, kind, controls, target)
        for i, (kind, controls, target) in enumerate(gates, start=1)
    )
    qubit_count = 1 + max((q for ins in instrs for q in ins.qubits), default=-1)
    return Netlist(instrs, qubit_count)
