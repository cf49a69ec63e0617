"""Workload corpora: each circuit is a netlist plus the CLI flags it runs with.

The random circuits are a frozen draw: circuit k of a workload always comes
from `random.Random("<workload>:<k>")`. The benchmark seed relabels the qubits
of every random circuit and shuffles the compile order, so each seed gives
different QASM text for the same scheduling and layout problems. Redrawing
the circuits per seed would change how many `sched` netlists exhaust the node
budget (3 of 20 in one draw, 4 in the next), so `solved_share` and
`compile_s` would move with the seed alone. Circuits reach the program only
as QASM text rendered by `ionpd.render_qasm`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from ionpd import (
    GateKind,
    Netlist,
    build_reference_cat_plan,
    generate_cat_circuit,
    make_netlist,
    parse_qasm,
)

CAT_SIZES = (8, 32, 80, 160, 320)

LAYERED_CIRCUITS = 6
LAYERED_QUBITS = 16
LAYERED_LAYERS = 6
LAYERED_SINGLES = (GateKind.H, GateKind.T, GateKind.S, GateKind.X)
LAYERED_PAIRS = (GateKind.CX, GateKind.CZ)

SCHED_RANDOM = 20
SCHED_QUBITS = 10
SCHED_GATES = 60
# the gate kinds of tests/helpers.random_netlist
SCHED_KINDS = (
    GateKind.H, GateKind.X, GateKind.T, GateKind.S,
    GateKind.CX, GateKind.CZ, GateKind.CY,
)
# (bundled file, --library, certified minimal stage count or None)
SCHED_BUNDLED = (
    ("code_9_3_2", "none", 6),
    ("toffoli_pair", "cv", None),
    ("toffoli_pair", "ft", None),
)


@dataclass(frozen=True)
class Circuit:
    name: str
    netlist: Netlist
    library: str = "none"
    # an independent certificate of the minimal stage count, where one exists
    certified_stages: int | None = None
    # the parameter of cat_latency_formula for Cat-state circuits
    cat_n: int | None = None
    # counted in the layout-quality metrics; off where whether the circuit
    # compiles at all depends on the solver
    scored: bool = True


def cat_corpus() -> list[Circuit]:
    """Canonical Cat-state circuits: the closed form holds for this labelling."""
    return [
        Circuit(
            f"cat{n}",
            generate_cat_circuit(n),
            certified_stages=build_reference_cat_plan(n).schedule.stage_count,
            cat_n=n,
        )
        for n in CAT_SIZES
    ]


def layered_netlist(rng: random.Random) -> Netlist:
    """Per layer: a random one-qubit gate on every qubit, then a random
    perfect matching of randomly oriented CX/CZ gates."""
    gates: list[tuple[GateKind, tuple[int, ...], int]] = []
    for _ in range(LAYERED_LAYERS):
        for q in range(LAYERED_QUBITS):
            gates.append((rng.choice(LAYERED_SINGLES), (), q))
        order = list(range(LAYERED_QUBITS))
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            gates.append((rng.choice(LAYERED_PAIRS), (a,), b))
    return make_netlist(gates)


def layered_corpus(rng: random.Random) -> list[Circuit]:
    # every qubit carries two gates per layer and the layers themselves are a
    # schedule, so the minimal stage count is exactly two per layer
    return [
        Circuit(
            f"layered{k}",
            relabel(layered_netlist(random.Random(f"layered:{k}")), rng),
            certified_stages=2 * LAYERED_LAYERS,
        )
        for k in range(LAYERED_CIRCUITS)
    ]


def random_netlist(rng: random.Random) -> Netlist:
    gates: list[tuple[GateKind, tuple[int, ...], int]] = []
    for _ in range(SCHED_GATES):
        kind = SCHED_KINDS[rng.randrange(len(SCHED_KINDS))]
        if kind.arity == 1:
            gates.append((kind, (), rng.randrange(SCHED_QUBITS)))
        else:
            a, b = rng.sample(range(SCHED_QUBITS), 2)
            gates.append((kind, (a,), b))
    return make_netlist(gates)


def sched_corpus(rng: random.Random, circuits_dir: Path) -> list[Circuit]:
    out = [
        Circuit(
            f"{stem}-{library}",
            parse_qasm((circuits_dir / f"{stem}.qasm").read_text(encoding="utf-8")),
            library,
            certified,
        )
        for stem, library, certified in SCHED_BUNDLED
    ]
    out.extend(
        Circuit(
            f"random{k}", relabel(random_netlist(random.Random(f"sched:{k}")), rng), scored=False
        )
        for k in range(SCHED_RANDOM)
    )
    return out


def relabel(netlist: Netlist, rng: random.Random) -> Netlist:
    """The same circuit on a random permutation of its qubits."""
    perm = list(range(netlist.qubit_count))
    rng.shuffle(perm)
    return Netlist(
        tuple(
            replace(i, controls=tuple(perm[c] for c in i.controls), target=perm[i.target])
            for i in netlist.instructions
        ),
        netlist.qubit_count,
    )


def build_corpus(workload: str, seed: int, circuits_dir: Path) -> list[Circuit]:
    rng = random.Random(f"{workload}:seed:{seed}")
    if workload == "cat":
        circuits = cat_corpus()
    elif workload == "layered":
        circuits = layered_corpus(rng)
    elif workload == "sched":
        circuits = sched_corpus(rng, circuits_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(circuits)
    return circuits
