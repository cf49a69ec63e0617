import itertools
import random
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    all_pairs_dataflow,
    instruction_unitary,
    random_netlist,
    reachable,
    reference_exchangeable,
)
from ionpd.circuits import generate_cat_circuit
from ionpd.decompose import Library, decompose
from ionpd.depgraph import (
    DataflowGraph,
    InfeasibleHorizon,
    asap_alap,
    build_dataflow,
    common_qubit_table,
    exchangeable,
    stage_lower_bound,
)
from ionpd.gates import GateKind, Instruction, Netlist, make_netlist
from ionpd.qasm import parse_qasm

TOFFOLI_PAIR = Path(__file__).resolve().parent.parent / "circuits" / "toffoli_pair.qasm"


def gate(kind, controls, target, gate_id=1):
    return Instruction(gate_id, kind, controls, target)


def placements_on_three_wires(kind, gate_id):
    """Every instruction of `kind` on wires 0-2: each ordered operand choice."""
    return [
        Instruction(gate_id, kind, operands[:-1], operands[-1])
        for operands in itertools.permutations(range(3), kind.arity)
    ]


class TestExchangeable:
    def test_shared_target_of_same_kind_commutes(self):
        a = gate(GateKind.CX, (4,), 6)
        b = gate(GateKind.CX, (3,), 6)
        assert exchangeable(a, b)

    def test_target_feeding_a_control_orders(self):
        a = gate(GateKind.H, (), 2)
        b = gate(GateKind.CX, (2,), 3)
        assert not exchangeable(a, b)

    def test_disjoint_gates_always_swap(self):
        assert exchangeable(gate(GateKind.H, (), 0), gate(GateKind.CX, (4,), 5))

    def test_single_qubit_commutation_on_one_wire(self):
        h0 = gate(GateKind.H, (), 0)
        assert exchangeable(h0, gate(GateKind.H, (), 0))
        assert exchangeable(gate(GateKind.T, (), 0), gate(GateKind.S, (), 0))
        assert not exchangeable(h0, gate(GateKind.T, (), 0))

    def test_measurement_orders_against_everything(self):
        m = gate(GateKind.Measure, (), 0)
        assert not exchangeable(m, gate(GateKind.Measure, (), 0))
        assert not exchangeable(m, gate(GateKind.CX, (0,), 1))
        assert not exchangeable(gate(GateKind.PrepZ, (), 1), gate(GateKind.CX, (0,), 1))

    def test_different_kinds_need_distinct_targets(self):
        a = gate(GateKind.CZ, (1,), 2)
        b = gate(GateKind.CX, (3,), 2)
        assert not exchangeable(a, b)
        assert exchangeable(gate(GateKind.CZ, (1,), 2), gate(GateKind.CX, (1,), 3))

    def test_matches_set_rule_on_three_wires(self):
        kinds = [kind for kind in GateKind if kind.arity <= 2]
        assert GateKind.Measure in kinds and GateKind.PrepZ in kinds
        pairs = 0
        for ka, kb in itertools.product(kinds, repeat=2):
            for a in placements_on_three_wires(ka, 1):
                for b in placements_on_three_wires(kb, 2):
                    assert exchangeable(a, b) == reference_exchangeable(a, b), (a, b)
                    pairs += 1
        assert pairs == 2601  # (7 * 3 + 5 * 6) ** 2: seven one-qubit, five two-qubit kinds

    def test_exchangeable_pairs_commute_on_three_wires(self):
        kinds = [kind for kind in GateKind if kind.arity <= 2 and not kind.non_unitary]
        gates = [g for kind in kinds for g in placements_on_three_wires(kind, 1)]
        unitary = {g: instruction_unitary(g, 3) for g in gates}
        unsound = conservative = 0
        for a, b in itertools.product(gates, repeat=2):
            commute = np.allclose(unitary[a] @ unitary[b], unitary[b] @ unitary[a])
            if exchangeable(a, b):
                unsound += not commute
            else:
                conservative += commute
        assert len(gates) ** 2 == 2025  # (5 * 3 + 5 * 6) ** 2: five kinds of each arity
        assert unsound == 0
        # commuting pairs the rule still orders, e.g. CX and CZ sharing a
        # control; a sharper rule lowers this count
        assert conservative == 390

    @given(st.data())
    def test_symmetry(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        netlist = random_netlist(rng)
        instrs = netlist.instructions
        a = data.draw(st.sampled_from(instrs))
        b = data.draw(st.sampled_from(instrs))
        assert exchangeable(a, b) == exchangeable(b, a)


class TestCommonQubits:
    def test_table_rows(self, code932):
        table = common_qubit_table(code932)
        assert table[3] == [7, 8, 9, 10, 15, 18]
        assert table[4] == [6, 11]

    def test_empty(self):
        assert common_qubit_table(make_netlist([])) == {}

    def test_graph_holds_its_netlists_table(self, code932):
        graph = build_dataflow(code932)
        table = graph.qubit_table(code932)
        assert table == common_qubit_table(code932)
        assert graph.qubit_table(code932) is table

    def test_graph_answers_for_another_netlist(self, code932):
        graph = build_dataflow(code932)
        other = Netlist(code932.instructions, code932.qubit_count)
        assert graph.qubit_table(other) == common_qubit_table(code932)
        assert graph.qubit_table(other) is graph.qubit_table(other)
        direct = DataflowGraph(graph.nodes, graph.edges)  # built without a table
        assert direct.qubit_table(code932) == common_qubit_table(code932)


class TestDataflow:
    def test_real_dependencies_reachable(self, code932):
        graph = build_dataflow(code932)
        assert reachable(graph, 4, 16)
        assert reachable(graph, 4, 19)

    def test_exchangeable_pair_not_ordered(self, code932):
        graph = build_dataflow(code932)
        assert (6, 7) not in graph.edges
        assert not reachable(graph, 6, 7)

    def test_single_instruction(self):
        graph = build_dataflow(parse_qasm("H q0"))
        assert graph.nodes == (1,) and not graph.edges

    def test_every_edge_shares_a_qubit_and_is_not_exchangeable(self, code932):
        graph = build_dataflow(code932)
        for j, i in graph.edges:
            a, b = code932[j], code932[i]
            assert set(a.qubits) & set(b.qubits)
            assert not exchangeable(a, b)

    def test_matches_all_pairs_rule(self, code932):
        # the edges are the transitive reduction of every all-pairs edge
        rng = random.Random(41)
        netlists = [random_netlist(rng, max_instr=30) for _ in range(200)]
        toffoli_pair = parse_qasm(TOFFOLI_PAIR.read_text())
        netlists += [generate_cat_circuit(80), code932, toffoli_pair]
        netlists += [decompose(toffoli_pair, library) for library in Library]  # cv and ft
        for netlist in netlists:
            dag = all_pairs_dataflow(netlist)
            expected = sorted(nx.transitive_reduction(dag).edges)
            assert list(build_dataflow(netlist).edges) == expected

    def test_reduction_matches_networkx(self):
        # an alternating H/T chain: every H orders against every T, yet only
        # the neighbouring pairs survive the reduction
        chain = parse_qasm("".join(("H q0\n", "T q0\n")[k % 2] for k in range(300)))
        dag = all_pairs_dataflow(chain)
        assert len(dag.edges) == 150 * 150
        expected = sorted(nx.transitive_reduction(dag).edges)
        assert list(build_dataflow(chain).edges) == expected
        assert build_dataflow(chain).edges == tuple((k, k + 1) for k in range(1, 300))

    def test_ordered_chain_scans_one_candidate_per_gate(self):
        # 12,000 alternating H/T each order against every earlier gate, yet
        # the scan stops at the neighbour, whose ancestors cover the rest:
        # as fast as a wire of one run, where a quadratic scan takes
        # hundreds of times longer
        def best_time(netlist):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                graph = build_dataflow(netlist)
                times.append(time.perf_counter() - start)
            return graph, min(times)

        chain = parse_qasm("".join(("H q0\n", "T q0\n")[k % 2] for k in range(12000)))
        graph, ordered = best_time(chain)
        assert len(graph.edges) == 11999
        assert graph.edges == tuple((k, k + 1) for k in range(1, 12000))
        _, one_run = best_time(parse_qasm("H q0\n" * 12000))
        assert ordered < 20 * one_run

    def test_commuting_wire_is_tested_as_one_run(self, monkeypatch):
        # 1,200 `H q0` exchange pairwise: each joins the wire's run after one
        # test against its one H, not one test per earlier H (719,400)
        import ionpd.depgraph as depgraph

        calls = []
        real = depgraph._exchangeable_sharing
        monkeypatch.setattr(
            depgraph, "_exchangeable_sharing", lambda a, b: calls.append(1) or real(a, b)
        )
        graph = build_dataflow(parse_qasm("H q0\n" * 1200))
        assert graph.edges == ()
        assert len(calls) < 1200

    def test_runs_of_one_qubit_gates_match_all_pairs_rule(self):
        # long mixed runs on three wires: diagonal kinds exchange across
        # kinds, H and X only with their own kind, Measure and PrepZ with
        # nothing; a two-qubit gate ends the runs of its wires
        rng = random.Random(23)
        ones = [kind for kind in GateKind if kind.arity == 1]
        common = [GateKind.T, GateKind.Tdg, GateKind.S, GateKind.H]
        for _ in range(150):
            gates = []
            for _ in range(rng.randint(1, 40)):
                if rng.random() < 0.1:
                    a, b = rng.sample(range(3), 2)
                    gates.append((rng.choice([GateKind.CX, GateKind.CZ]), (a,), b))
                else:
                    kind = rng.choice(common) if rng.random() < 0.8 else rng.choice(ones)
                    gates.append((kind, (), rng.randrange(3)))
            netlist = make_netlist(gates)
            expected = sorted(nx.transitive_reduction(all_pairs_dataflow(netlist)).edges)
            assert list(build_dataflow(netlist).edges) == expected

    def test_reduction_preserves_reachability(self, code932):
        rng = random.Random(17)
        netlists = [random_netlist(rng, max_instr=30) for _ in range(50)]
        netlists += [code932, parse_qasm(TOFFOLI_PAIR.read_text())]
        implied = 0
        for netlist in netlists:
            graph = build_dataflow(netlist)
            all_pairs = all_pairs_dataflow(netlist)
            implied += len(all_pairs.edges) - len(graph.edges)
            for j, i in all_pairs.edges:
                assert reachable(graph, j, i)
        assert implied > 0

    def test_exports(self, code932):
        graph = build_dataflow(code932)
        assert '"nodes"' in graph.to_json()
        assert "digraph" in graph.to_dot()


class TestWindows:
    def test_worked_example_window(self, code932):
        graph = build_dataflow(code932)
        windows = asap_alap(graph, 6)
        assert (windows.asap[6], windows.alap[6]) == (1, 5)

    def test_source_gets_stage_one(self, code932):
        windows = asap_alap(build_dataflow(code932), 6)
        assert windows.asap[1] == 1

    def test_tight_chain(self):
        chain = parse_qasm("H q0\nCX q0,q1\nH q1")
        graph = build_dataflow(chain)
        windows = asap_alap(graph, 3)
        assert [(windows.asap[i], windows.alap[i]) for i in (1, 2, 3)] == [(1, 1), (2, 2), (3, 3)]
        assert all(windows.slack(i) == 0 for i in (1, 2, 3))

    def test_horizon_below_critical_path(self):
        graph = build_dataflow(parse_qasm("H q0\nCX q0,q1\nH q1"))
        with pytest.raises(InfeasibleHorizon):
            asap_alap(graph, 2)

    def test_critical_path_nodes_have_zero_slack(self, code932):
        graph = build_dataflow(code932)
        cp = graph.critical_path_length()
        windows = asap_alap(graph, cp)
        chains = {i: 1 for i in graph.nodes}
        for node in graph.nodes:
            preds = graph.predecessors(node)
            if preds:
                chains[node] = 1 + max(chains[p] for p in preds)
        longest = max(chains.values())
        for node, length in chains.items():
            tail = max(
                (chains[s] - chains[node] for s in graph.nodes if reachable(graph, node, s)),
                default=0,
            )
            if length + tail == longest:
                assert windows.slack(node) == 0

    def test_windows_match_longest_paths(self):
        rng = random.Random(14)
        for _ in range(200):
            graph = build_dataflow(random_netlist(rng, max_instr=24))
            dag = nx.DiGraph(graph.edges)
            dag.add_nodes_from(graph.nodes)

            def longest(v, around):
                return 1 + nx.dag_longest_path_length(dag.subgraph(around(dag, v) | {v}))

            depth = {v: longest(v, nx.ancestors) for v in graph.nodes}
            height = {v: longest(v, nx.descendants) for v in graph.nodes}
            cp = 1 + nx.dag_longest_path_length(dag)
            assert graph.critical_path_length() == cp
            for horizon in (cp, cp + 1, cp + 5):
                windows = asap_alap(graph, horizon)
                assert windows.asap == depth
                assert windows.alap == {v: horizon + 1 - height[v] for v in graph.nodes}
                windows.asap.clear()  # fresh dicts: the next horizon is unaffected
                windows.alap.clear()
            with pytest.raises(InfeasibleHorizon):
                asap_alap(graph, cp - 1)


class TestLowerBound:
    def test_code932_bound_is_six(self, code932):
        assert stage_lower_bound(code932, build_dataflow(code932)) == 6

    def test_independent_gates(self):
        netlist = parse_qasm("H q0\nH q1\nH q2")
        assert stage_lower_bound(netlist, build_dataflow(netlist)) == 1

    def test_shared_wire_serializes(self):
        netlist = parse_qasm("H q0\nX q0\nH q0\nX q0")
        assert stage_lower_bound(netlist, build_dataflow(netlist)) == 4

    def test_cat4_bound_below_its_optimum(self):
        netlist = generate_cat_circuit(4)
        bound = stage_lower_bound(netlist, build_dataflow(netlist))
        assert bound == 4  # the optimum is 5; the bound only promises <=
