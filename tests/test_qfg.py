import random

import pytest

from helpers import random_netlist
from ionpd.circuits import generate_cat_circuit
from ionpd.depgraph import common_qubit_table
from ionpd.qasm import parse_qasm
from ionpd.qfg import build_qfg
from ionpd.solver import Schedule, schedule_netlist


def test_cat4_edges_trace_each_qubit():
    netlist = generate_cat_circuit(4)
    qfg = build_qfg(netlist, schedule_netlist(netlist))
    assert set(qfg.edges) == {
        (1, 2, 1), (2, 3, 1),  # middle qubit: H, then both chain starts
        (2, 4, 2),
        (3, 6, 0),
        (4, 5, 3),
        (5, 6, 4),
    }
    assert qfg.first_use[1] == 1 and qfg.first_use[4] == 5


def test_single_instruction():
    netlist = parse_qasm("H q0")
    qfg = build_qfg(netlist, schedule_netlist(netlist))
    assert qfg.nodes == [1] and qfg.edges == ()


def test_edge_counts_follow_qubit_rows(code932):
    schedule = schedule_netlist(code932)
    qfg = build_qfg(code932, schedule)
    table = common_qubit_table(code932)
    for qubit, ids in table.items():
        assert sum(1 for e in qfg.edges if e[2] == qubit) == len(ids) - 1


def test_total_edge_count_invariant():
    rng = random.Random(31)
    for _ in range(30):
        netlist = random_netlist(rng)
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        uses = sum(len(i.qubits) for i in netlist.instructions)
        qubits = len(common_qubit_table(netlist))
        assert len(qfg.edges) == uses - qubits


def test_edges_ascend_in_stage():
    rng = random.Random(32)
    for _ in range(20):
        netlist = random_netlist(rng)
        qfg = build_qfg(netlist, schedule_netlist(netlist))
        for i, j, _ in qfg.edges:
            assert qfg.stage_of[i] < qfg.stage_of[j]


def test_per_qubit_edge_counts_schedule_independent(code932):
    first = schedule_netlist(code932)
    # shift everything one stage later: still valid, different stages
    shifted = Schedule({k: v + 1 for k, v in first.stage_of.items()}, 7)
    a = build_qfg(code932, first)
    b = build_qfg(code932, shifted)
    count = lambda g, q: sum(1 for e in g.edges if e[2] == q)
    for qubit in common_qubit_table(code932):
        assert count(a, qubit) == count(b, qubit)


def test_invalid_schedule_rejected(code932):
    with pytest.raises(ValueError):
        build_qfg(code932, Schedule({i.id: 1 for i in code932.instructions}, 1))


def test_exports(code932):
    qfg = build_qfg(code932, schedule_netlist(code932))
    assert "rank=same" in qfg.to_dot()
    assert '"qubit"' in qfg.to_json()
