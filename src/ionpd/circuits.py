"""Generator for Cat-state preparation circuits.

The n-qubit circuit runs on the n+1 wires Q0..Qn: a Hadamard on the middle
wire, a CNOT chain that grows outward alternately in both directions (the
higher-index side first, control on the inner qubit), and one closing
CNOT between Q0 and Qn.
"""

from __future__ import annotations

from .gates import GateKind, Netlist, make_netlist


def generate_cat_circuit(n: int) -> Netlist:
    if n < 2:
        raise ValueError(f"cat circuit needs n >= 2, got {n}")
    middle = (n - 1) // 2
    gates: list[tuple[GateKind, tuple[int, ...], int]] = [(GateKind.H, (), middle)]
    hi, lo = middle, middle
    while hi < n or lo > 0:
        if hi < n:
            gates.append((GateKind.CX, (hi,), hi + 1))
            hi += 1
        if lo > 0:
            gates.append((GateKind.CX, (lo,), lo - 1))
            lo -= 1
    gates.append((GateKind.CX, (0,), n))
    netlist = make_netlist(gates)
    if len(netlist) != n + 2:
        raise RuntimeError(f"cat circuit for n={n} has {len(netlist)} gates, expected {n + 2}")
    return netlist
