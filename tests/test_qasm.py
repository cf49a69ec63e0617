import pytest
from hypothesis import given, strategies as st

from ionpd.gates import GateKind, Instruction, Netlist, NetlistError, make_netlist
from ionpd.qasm import QasmError, parse_qasm, render_qasm


def test_parse_labeled_line_positions(code932):
    instr = code932[4]
    assert instr == Instruction(4, GateKind.CX, (5,), 7)


def test_parse_simple_hadamard():
    netlist = parse_qasm("H q0\n")
    assert netlist.instructions == (Instruction(1, GateKind.H, (), 0),)
    assert netlist.qubit_count == 1


def test_parse_empty_text_gives_empty_netlist():
    netlist = parse_qasm("")
    assert len(netlist) == 0
    assert netlist.qubit_count == 0


def test_parse_comments_blanks_and_case():
    netlist = parse_qasm("# header\n\n  cx Q1 , q2  # trailing\nTDG q0\n")
    assert [i.kind for i in netlist.instructions] == [GateKind.CX, GateKind.Tdg]
    assert netlist.qubit_count == 3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("FOO q1", "unknown gate"),
        ("CX q1", "expects 2 operand"),
        ("H q1,q2", "expects 1 operand"),
        ("CX q1,q1", "duplicate operand"),
        ("(5) H q0", "out of sequence"),
        ("H 3", "malformed line"),
        ("CX q1 q2", "malformed line"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(QasmError) as err:
        parse_qasm("H q0\n" + text)
    assert fragment in str(err.value)
    assert err.value.line_no == 2


def test_qubit_count_is_one_past_max_index():
    assert parse_qasm("CX q5,q7").qubit_count == 8


def test_measure_and_prepz_accepted():
    netlist = parse_qasm("PrepZ q0\nH q0\nMeasure q0\nCCX q1,q2,q3")
    kinds = [i.kind for i in netlist.instructions]
    assert kinds == [GateKind.PrepZ, GateKind.H, GateKind.Measure, GateKind.Toffoli]


_kinds_1q = [GateKind.H, GateKind.X, GateKind.T, GateKind.Tdg, GateKind.S]


@st.composite
def netlists(draw):
    qubits = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=0, max_value=12))
    gates = []
    for _ in range(count):
        if qubits >= 2 and draw(st.booleans()):
            pair = draw(st.permutations(range(qubits)))
            gates.append((GateKind.CX, (pair[0],), pair[1]))
        else:
            kind = draw(st.sampled_from(_kinds_1q))
            gates.append((kind, (), draw(st.integers(0, qubits - 1))))
    return make_netlist(gates)


@given(netlists())
def test_render_parse_round_trip(netlist):
    # make_netlist keeps qubit_count minimal, so the round trip is exact
    assert parse_qasm(render_qasm(netlist)) == netlist


def test_netlist_invariants_enforced():
    with pytest.raises(NetlistError):
        Instruction(1, GateKind.CX, (2,), 2)
    with pytest.raises(NetlistError):
        Netlist((Instruction(2, GateKind.H, (), 0),), 1)
    with pytest.raises(NetlistError):
        Netlist((Instruction(1, GateKind.H, (), 5),), 2)


def test_netlist_json_round_trip(code932):
    assert Netlist.from_json(code932.to_json()) == code932
