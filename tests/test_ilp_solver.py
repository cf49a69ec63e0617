import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    all_pairs_dataflow,
    equal_up_to_phase,
    lexmin_stages,
    lexmin_stages_milp,
    netlist_unitary,
    random_mixed_netlist,
    random_netlist,
    reference_hall,
    stage_milp_status,
)
from ionpd.circuits import generate_cat_circuit
from ionpd.decompose import Library, decompose
from ionpd.depgraph import asap_alap, build_dataflow, stage_lower_bound
from ionpd.gates import GateKind, make_netlist
from ionpd.ilp import emit_ilp, to_lp_text
from ionpd.qasm import parse_qasm
from ionpd.solver import (
    INFEASIBLE,
    Schedule,
    SolverBudgetExceeded,
    _hall,
    list_schedule,
    oracle_min_stages,
    schedule_netlist,
    solve,
    validate,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def model_for(netlist, horizon):
    graph = build_dataflow(netlist)
    return emit_ilp(netlist, graph, asap_alap(graph, horizon)), graph


class TestModel:
    def test_series1_for_instruction_six(self, code932):
        model, _ = model_for(code932, 6)
        assert model.windows.stages(6) == range(1, 6)

    def test_series2_emitted_on_window_overlap(self, code932):
        model, _ = model_for(code932, 6)
        assert (6, 7, 2) in model.exclusions  # both windows contain stage 2, share q6

    def test_single_instruction_model(self):
        model, _ = model_for(parse_qasm("H q0"), 1)
        assert model.windows.stages(1) == range(1, 2)
        assert not model.exclusions and not model.orders
        assert " s1_1: x_1_1 = 1" in to_lp_text(model)

    def test_lp_text_sections(self, code932):
        model, _ = model_for(code932, 6)
        text = to_lp_text(model)
        assert "x_6_1 + x_6_2 + x_6_3 + x_6_4 + x_6_5 = 1" in text
        assert "Binary" in text and text.rstrip().endswith("End")
        assert "s2_6_7_2: x_6_2 + x_7_2 <= 1" in text

    def test_series3_strict_inequality_encoding(self):
        netlist = parse_qasm("H q0\nCX q0,q1")
        model, _ = model_for(netlist, 2)
        assert any("s3_1_2" in line and "<= -1" in line for line in to_lp_text(model).splitlines())


class TestLpExport:
    def test_rows_hold_on_solver_schedules(self):
        rng = random.Random(11)
        rows = [0, 0, 0]
        for _ in range(60):
            netlist = random_netlist(rng)
            graph = build_dataflow(netlist)
            schedule = schedule_netlist(netlist, graph=graph)
            model = emit_ilp(netlist, graph, asap_alap(graph, schedule.horizon))
            domain = model.windows.stages

            def x(instr, stage):
                return int(schedule.stage_of[instr] == stage)

            def weighted(instr):
                return sum(l * x(instr, l) for l in domain(instr))

            for instr in netlist.instructions:
                assert sum(x(instr.id, l) for l in domain(instr.id)) == 1, instr
            for a, b, stage in model.exclusions:
                assert x(a, stage) + x(b, stage) <= 1, (a, b, stage)
            for j, i in model.orders:
                assert weighted(j) + 1 <= weighted(i), (j, i)
            rows[0] += len(netlist)
            rows[1] += len(model.exclusions)
            rows[2] += len(model.orders)
        assert all(rows), rows


def solve_at(netlist, horizon):
    graph = build_dataflow(netlist)
    return solve(netlist, graph, asap_alap(graph, horizon))


class TestSolve:
    def test_code932_solves_at_six(self, code932):
        graph = build_dataflow(code932)
        schedule = solve(code932, graph, asap_alap(graph, 6))
        assert schedule is not INFEASIBLE
        assert schedule.stage_count == 6
        assert validate(code932, graph, schedule) == []

    def test_infeasible_horizon_chain(self):
        # exchangeable pair sharing a wire: two stages needed, one offered
        netlist = parse_qasm("T q0\nS q0")
        assert solve_at(netlist, 1) is INFEASIBLE

    def test_dependent_chain_fails_at_window_construction(self):
        from ionpd.depgraph import InfeasibleHorizon

        with pytest.raises(InfeasibleHorizon):
            solve_at(parse_qasm("H q0\nX q0"), 1)

    def test_cat4_at_horizon_five_matches_published_stages(self):
        netlist = generate_cat_circuit(4)
        schedule = solve_at(netlist, 5)
        assert schedule.stages() == {1: [1], 2: [2], 3: [3, 4], 4: [5], 5: [6]}

    def test_determinism(self, code932):
        assert solve_at(code932, 6).stage_of == solve_at(code932, 6).stage_of


class TestScheduleNetlist:
    def test_code932_six_stages(self, code932):
        assert schedule_netlist(code932).stage_count == 6

    def test_cat7_matches_published_stages(self):
        schedule = schedule_netlist(generate_cat_circuit(7))
        assert schedule.stages() == {
            1: [1], 2: [2], 3: [3, 4], 4: [5, 6], 5: [7, 8], 6: [9],
        }

    @pytest.mark.parametrize("n", range(2, 16))
    def test_cat_stage_count_formula(self, n):
        expected = (n + 5) // 2 if n % 2 else (n + 6) // 2
        assert schedule_netlist(generate_cat_circuit(n)).stage_count == expected

    def test_empty_netlist(self):
        schedule = schedule_netlist(parse_qasm(""))
        assert schedule.stage_count == 0 and schedule.stage_of == {}

    def test_budget_exhaustion_reports_node_count(self):
        with pytest.raises(SolverBudgetExceeded) as err:
            schedule_netlist(random_netlist(random.Random(680)), node_budget=1)
        assert err.value.explored > 0

    def test_zero_time_budget_exhausts(self):
        with pytest.raises(SolverBudgetExceeded):
            schedule_netlist(random_netlist(random.Random(680)), time_budget=0.0)

    def test_node_budget_bounds_the_whole_run(self):
        netlist = random_netlist(random.Random(680))
        # two horizons below the list schedule's length of 8: 7 nodes prove
        # 6 infeasible, 11 solve 7; a budget of 11 covers either horizon but
        # not both
        graph = build_dataflow(netlist)
        assert stage_lower_bound(netlist, graph) == 6
        assert max(list_schedule(netlist, graph).values()) == 8
        assert schedule_netlist(netlist, node_budget=18).stage_count == 7
        with pytest.raises(SolverBudgetExceeded) as err:
            schedule_netlist(netlist, node_budget=11)
        assert err.value.explored == 12

    @pytest.mark.parametrize("budget, value", [
        ("node_budget", -5),
        ("node_budget", float("inf")),
        ("node_budget", float("nan")),
        ("time_budget", -0.5),
        ("time_budget", float("inf")),
        ("time_budget", float("nan")),
    ])
    def test_invalid_budget_raises_naming_it(self, code932, budget, value):
        # a NaN deadline would never fire, as every comparison with NaN is
        # false; netlists that need no search (code932's list schedule is
        # minimal, the empty one has no gate) check too
        for netlist in (random_netlist(random.Random(680)), code932, parse_qasm("")):
            with pytest.raises(ValueError, match=f"^{budget} must be finite and at least 0"):
                schedule_netlist(netlist, **{budget: value})

    def test_list_schedule_bounds_the_minimal_horizon(self):
        rng = random.Random(8)
        certified = 0
        for _ in range(200):
            netlist = random_netlist(rng)
            graph = build_dataflow(netlist)
            length = max(list_schedule(netlist, graph).values())
            stages = schedule_netlist(netlist, graph=graph).stage_count
            assert stage_lower_bound(netlist, graph) <= stages <= length
            certified += stages == length
        assert 0 < certified < 200

    def test_list_schedule_is_the_canonical_schedule_at_its_length(self):
        # where no shorter horizon is feasible, the list schedule is returned
        # without a search; `solve`'s lex-min schedule at that horizon agrees
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            netlist = random_mixed_netlist(rng)
            graph = build_dataflow(netlist)
            greedy = list_schedule(netlist, graph)
            length = max(greedy.values())
            if schedule_netlist(netlist, graph=graph).horizon < length:
                continue
            assert solve(netlist, graph, asap_alap(graph, length)).stage_of == greedy
            checked += 1

    def test_stage_count_never_below_lower_bound(self):
        rng = random.Random(5)
        for _ in range(40):
            netlist = random_netlist(rng)
            graph = build_dataflow(netlist)
            schedule = schedule_netlist(netlist, graph=graph)
            assert schedule.stage_count >= stage_lower_bound(netlist, graph)
            assert validate(netlist, graph, schedule) == []

    def test_stage_order_keeps_the_unitary(self):
        # random_netlist draws unitary gates only, on at most 6 qubits
        rng = random.Random(14)
        reordered = 0
        for _ in range(200):
            netlist = random_netlist(rng, max_instr=14)
            schedule = schedule_netlist(netlist)
            staged = sorted(netlist.instructions, key=lambda i: (schedule.stage_of[i.id], i.id))
            reordered += staged != list(netlist.instructions)
            sorted_netlist = make_netlist([(i.kind, i.controls, i.target) for i in staged])
            nq = netlist.qubit_count
            assert equal_up_to_phase(netlist_unitary(sorted_netlist, nq), netlist_unitary(netlist, nq))
        assert reordered >= 100


def sched_netlist(k):
    """60 gates on 10 qubits drawn from random.Random(f"sched:{k}"), the
    generator of the benchmark's random `sched` netlists."""
    kinds = [
        GateKind.H, GateKind.X, GateKind.T, GateKind.S,
        GateKind.CX, GateKind.CZ, GateKind.CY,
    ]
    rng = random.Random(f"sched:{k}")
    gates = []
    for _ in range(60):
        kind = kinds[rng.randrange(len(kinds))]
        if kind.arity == 1:
            gates.append((kind, (), rng.randrange(10)))
        else:
            a, b = rng.sample(range(10), 2)
            gates.append((kind, (a,), b))
    return make_netlist(gates)


# netlists on which a search without propagation spends 10^6 nodes at the
# optimal horizon, with that horizon
HARD_SCHED = {4: 17, 11: 18, 15: 17, 17: 15}


@pytest.mark.parametrize("k", sorted(HARD_SCHED))
def test_hard_sched_netlist_is_minimal_within_budget(k):
    netlist = sched_netlist(k)
    graph = build_dataflow(netlist)
    schedule = schedule_netlist(netlist, node_budget=10_000, graph=graph)
    assert validate(netlist, graph, schedule) == []
    stages = HARD_SCHED[k]
    assert schedule.stage_count == schedule.horizon == stages
    assert stage_milp_status(netlist, graph, stages) == 0
    assert stage_milp_status(netlist, graph, stages - 1) == 2  # infeasible


# netlists on which an id-order search for the lex-min schedule thrashed
# (10^6 nodes on extra:4, 123,753 on extra:8), with their minimal horizon;
# probing from a certificate schedules each in a few hundred nodes
HARD_EXTRA = {"extra4": 19, "extra8": 18}


@pytest.mark.parametrize("name", sorted(HARD_EXTRA))
def test_hard_extra_netlist_is_lexmin_within_budget(name):
    netlist = parse_qasm((FIXTURES / f"{name}.qasm").read_text())
    graph = build_dataflow(netlist)
    schedule = schedule_netlist(netlist, node_budget=1_000, graph=graph)
    assert validate(netlist, graph, schedule) == []
    stages = HARD_EXTRA[name]
    assert schedule.stage_count == schedule.horizon == stages
    assert stage_milp_status(netlist, graph, stages - 1) == 2  # infeasible
    assert schedule.stage_of == lexmin_stages_milp(netlist, graph, stages)



def test_small_ft_netlists_are_lexmin_at_their_horizon():
    # Toffoli `ft` expansions are where refutation is hardest: the lower
    # bound sits furthest under the optimum. At the horizon found, these
    # six draws probe nine stages below their certificates, and two of the
    # probes succeed. Netlists returned as the list schedule, without a
    # search, are skipped
    rng = random.Random(32)
    checked = 0
    while checked < 6:
        netlist = decompose(random_mixed_netlist(rng), Library.FT_LIBRARY)
        if len(netlist) > 30:
            continue  # keeps the oracle's runtime small
        graph = build_dataflow(netlist)
        schedule = schedule_netlist(netlist, node_budget=1_000, graph=graph)
        if schedule.horizon == max(list_schedule(netlist, graph).values()):
            continue
        assert validate(netlist, graph, schedule) == []
        stages = schedule.horizon
        assert stage_milp_status(netlist, graph, stages - 1) == 2  # infeasible
        assert schedule.stage_of == lexmin_stages_milp(netlist, graph, stages)
        checked += 1

def test_hall_matching_agrees_with_interval_count():
    rng = random.Random(1998)
    verdicts = [0, 0]
    for _ in range(3000):
        horizon = rng.randint(3, 14)
        taken = set(rng.sample(range(1, horizon + 1), rng.randint(0, horizon - 2)))
        free = [s for s in range(1, horizon + 1) if s not in taken]
        lo, hi = [], []
        for _ in range(rng.randint(3, len(free) + 2)):
            a, b = sorted(rng.choices(free, k=2))  # bounds never on a taken stage
            lo.append(a)
            hi.append(b)
        ws = set(range(len(lo)))
        expected = reference_hall(ws, lo, hi, taken)
        assert _hall(ws, lo, hi, taken) == expected, (lo, hi, taken)
        verdicts[expected] += 1
    assert min(verdicts) >= 500, verdicts


class TestValidate:
    def test_table3_fixture_is_clean(self, code932, table3_schedule_path):
        schedule = Schedule.from_json(table3_schedule_path.read_text())
        assert validate(code932, build_dataflow(code932), schedule) == []

    def test_moving_nine_to_stage_two_clashes(self, code932, table3_schedule_path):
        schedule = Schedule.from_json(table3_schedule_path.read_text())
        moved = dict(schedule.stage_of)
        moved[9] = 2
        bad = Schedule(moved, 6)
        violations = validate(code932, build_dataflow(code932), bad)
        assert violations and all(v.series == 2 for v in violations)
        assert any(set(v.instructions) == {5, 9} for v in violations)  # q8 clash

    def test_missing_instruction_is_series1(self, code932):
        schedule = schedule_netlist(code932)
        partial = dict(schedule.stage_of)
        del partial[3]
        violations = validate(code932, build_dataflow(code932), Schedule(partial, 6))
        assert [v.series for v in violations] == [1]

    def test_dependency_inversion_is_series3(self):
        netlist = parse_qasm("H q0\nCX q0,q1")
        graph = build_dataflow(netlist)
        violations = validate(netlist, graph, Schedule({1: 2, 2: 1}, 2))
        assert any(v.series == 3 for v in violations)

    def test_empty_schedule_for_empty_netlist(self):
        netlist = parse_qasm("")
        assert validate(netlist, build_dataflow(netlist), Schedule({}, 0)) == []

    def test_stages_beyond_a_zero_horizon_are_series1(self):
        # a horizon of 0 bounds the stages like any other
        netlist = parse_qasm("H q0\nH q1")
        graph = build_dataflow(netlist)
        violations = validate(netlist, graph, Schedule({1: 7, 2: 7}, 0))
        assert [(v.series, v.instructions) for v in violations] == [(1, (1,)), (1, (2,))]
        assert validate(netlist, graph, Schedule({1: 7, 2: 7}, 7)) == []

    def test_verdict_is_the_all_pairs_rule(self):
        # validate checks order along the reduced edges only, yet a schedule
        # passes exactly when it is total, inside its horizon, has no qubit
        # clash and puts every all-pairs dependency in order
        rng = random.Random(57)
        verdicts = Counter()
        for k in range(600):
            make = random_mixed_netlist if k % 2 else random_netlist
            netlist = make(rng, max_instr=16)
            graph = build_dataflow(netlist)
            schedule = schedule_netlist(netlist, graph=graph)
            stage_of = dict(schedule.stage_of)
            ids = sorted(stage_of)
            change = rng.randrange(4)
            if change == 1 and len(ids) > 1:  # swap two stages
                a, b = rng.sample(ids, 2)
                stage_of[a], stage_of[b] = stage_of[b], stage_of[a]
            elif change == 2:  # move one instruction, maybe past the horizon
                stage_of[rng.choice(ids)] = rng.randint(1, schedule.horizon + 1)
            elif change == 3:
                del stage_of[rng.choice(ids)]
            instrs = netlist.instructions
            expected = (
                sorted(stage_of) == ids
                and all(1 <= s <= schedule.horizon for s in stage_of.values())
                and not any(
                    set(a.qubits) & set(b.qubits) and stage_of[a.id] == stage_of[b.id]
                    for a, b in itertools.combinations(instrs, 2)
                )
                and all(stage_of[j] < stage_of[i] for j, i in all_pairs_dataflow(netlist).edges)
            )
            perturbed = Schedule(stage_of, schedule.horizon)
            assert (validate(netlist, graph, perturbed) == []) == expected
            verdicts[expected] += 1
        assert verdicts[True] > 150 and verdicts[False] > 150


class TestOracle:
    def test_cat4_needs_five(self):
        netlist = generate_cat_circuit(4)
        assert oracle_min_stages(netlist, build_dataflow(netlist)) == 5

    def test_full_serialization(self):
        netlist = parse_qasm("H q0\nX q0\nH q0\nX q0\nH q0")
        assert oracle_min_stages(netlist, build_dataflow(netlist)) == 5

    def test_rejects_large_instances(self):
        netlist = generate_cat_circuit(12)
        with pytest.raises(ValueError):
            oracle_min_stages(netlist, build_dataflow(netlist))

    def test_schedule_is_lexmin_at_minimal_horizon(self):
        rng = random.Random(31)
        for _ in range(300):
            netlist = random_netlist(rng)
            graph = build_dataflow(netlist)
            horizon = oracle_min_stages(netlist, graph)
            schedule = schedule_netlist(netlist, graph=graph)
            assert schedule.horizon == horizon
            assert schedule.stage_of == lexmin_stages(netlist, graph, horizon)

    def test_matches_solver_on_random_instances(self):
        rng = random.Random(99)
        for _ in range(60):
            netlist = random_netlist(rng)
            graph = build_dataflow(netlist)
            assert (
                schedule_netlist(netlist, graph=graph).stage_count
                == oracle_min_stages(netlist, graph)
            )


def test_schedule_json_round_trip(code932):
    schedule = schedule_netlist(code932)
    payload = json.loads(schedule.to_json())
    assert payload["horizon"] == 6
    again = Schedule.from_json(schedule.to_json())
    assert again.stage_of == schedule.stage_of
