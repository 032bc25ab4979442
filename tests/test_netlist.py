"""Netlist parser and validator tests."""

import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcell import SimConfig, run
from avgcell.engine import InvalidCircuit
from avgcell.netlist import (
    ArityError,
    CircuitDescription,
    DuplicateLabel,
    NetlistError,
    NumericError,
    UnknownElementKind,
    parse_netlist,
    serialize_netlist,
    validate,
)
from avgcell.oracle import simulate_switched

BUCK_LISTING = """\
VDC 1 1 0 10.0
SCN1 1 1 0 2 10e-6 0
C 1 2 0 1e-4 0
R 1 2 0 5.0
IDC 1 2 0 4.0
"""


def test_parses_buck_listing():
    circuit = parse_netlist(BUCK_LISTING)
    kinds = [e.kind for e in circuit.elements]
    assert kinds == ["VDC", "SCN", "C", "R", "IDC"]
    assert circuit.node_ids == {0, 1, 2}
    cell = circuit.cells()[0]
    assert cell.nodes == (1, 0, 2)
    assert cell.value == 10e-6
    assert cell.initial == 0.0
    cap = circuit.capacitors()[0]
    assert cap.value == 1e-4
    assert cap.initial == 0.0


def test_elements_keep_file_order_and_labels():
    circuit = parse_netlist(BUCK_LISTING)
    assert [e.label for e in circuit.elements] == ["VDC1", "SCN1", "C1", "R1", "IDC1"]
    assert circuit.element("R1") is circuit.elements[3]
    with pytest.raises(KeyError, match="R9"):
        circuit.element("R9")


def test_fused_and_split_cell_tokens_parse_identically():
    fused = parse_netlist(BUCK_LISTING)
    split = parse_netlist(BUCK_LISTING.replace("SCN1 1 1 0 2", "SCN 1 1 0 2"))
    assert fused == split


def _codes(circuit):
    return [(d.code, str(d)) for d in validate(circuit)]


def _buck_with(which, **changes):
    """BUCK_LISTING built in code, with element ``which``'s fields changed."""
    circuit = parse_netlist(BUCK_LISTING)
    circuit.elements = [replace(e, **changes) if e.label == which else e for e in circuit.elements]
    return circuit


def test_empty_text_is_missing_ground():
    """The parser leaves ground to validate, which alone owns the rule."""
    missing = [("missing-ground", "no element references ground node 0")]
    assert _codes(parse_netlist("")) == missing
    assert _codes(parse_netlist("SCN 1 1 2 3 10e-6 0\nR 1 1 3 5.0\n")) == missing


def test_comments_and_blanks_ignored():
    circuit = parse_netlist("# comment\n\n" + BUCK_LISTING)
    assert len(circuit.elements) == 5


def test_disconnected_component_reported():
    text = "SCN 1 1 0 2 10e-6 0\nR 1 3 4 5.0\n"
    assert _codes(parse_netlist(text)) == [
        ("disconnected-graph", "nodes not connected to ground: [3, 4]"),
        ("dangling-cell-terminal", "SCN1: terminal node 1 touches no other element"),
        ("dangling-cell-terminal", "SCN1: terminal node 2 touches no other element"),
    ]


@pytest.mark.parametrize(
    "line, error",
    [
        ("FOO 1 1 0 5.0", UnknownElementKind),
        ("R 9 1 0", ArityError),
        ("R 9 1 0 5.0 9", ArityError),
        ("R 9 1 0 abc", NumericError),
        ("R 9 1 -2 5.0", NumericError),
        ("R 9 1 x 5.0", NumericError),
        ("R 9 1 0 inf", NumericError),
        (".parm D=1", UnknownElementKind),
        (".param Q=1", NumericError),
        (".param D", NumericError),
    ],
)
def test_located_errors(line, error):
    with pytest.raises(error) as excinfo:
        parse_netlist(BUCK_LISTING + line + "\n")
    assert excinfo.value.line == 6


@pytest.mark.parametrize(
    "line, arity",
    [
        ("VDC 1 1 0", 5),
        ("IDC 1 1 0", 5),
        ("R 1 1 0", 5),
        ("C 1 1 0 1e-4", 6),
        ("SCN 1 1 0 2 1e-5", 7),
        ("SCD 1 1 0 2 1e-5", 7),
        ("FBN 1 1 0 2 1e-5 2.0", 8),
        ("FBD 1 1 0 2 1e-5 2.0", 8),
    ],
)
def test_arity_error_names_the_kind_and_its_token_count(line, arity):
    """Every kind, one token short."""
    kind = line.split()[0]
    with pytest.raises(ArityError) as excinfo:
        parse_netlist(line + "\n")
    assert str(excinfo.value) == f"line 1: {kind} takes {arity} tokens, got {arity - 1}"


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        parse_netlist("R 1 1 0 5.0\nR 1 1 0 7.0\n")
    # A fused tag collides with the equivalent split spelling.
    with pytest.raises(DuplicateLabel):
        parse_netlist("SCN1 1 1 0 2 1e-5 0\nSCN 1 1 0 2 1e-5 0\n")


@pytest.mark.parametrize("key", ["Q", "d", "L", "t_end"])
def test_param_directive_takes_only_its_three_keys(key):
    with pytest.raises(NumericError, match=r"expected one of \('D', 'fs', 'tend'\)"):
        parse_netlist(f".param {key}=1\n" + BUCK_LISTING)


def test_param_directive_parsed():
    circuit = parse_netlist(".param D=0.5 fs=100e3 tend=5e-3\n" + BUCK_LISTING)
    assert circuit.params == {"D": 0.5, "fs": 100e3, "tend": 5e-3}


def test_flyback_line_parses_turns_ratio():
    circuit = parse_netlist("VDC 1 1 0 10.0\nFBN 1 1 0 2 10e-6 2.0 0.5\n")
    cell = circuit.cells()[0]
    assert cell.is_flyback
    assert cell.turns == 2.0
    assert cell.initial == 0.5


def test_validate_accepts_buck_listing():
    assert validate(parse_netlist(BUCK_LISTING)) == []


def test_validate_flags_voltage_source_loop():
    text = "VDC 1 1 0 10.0\nVDC 2 1 0 5.0\nSCN 1 1 0 2 1e-5 0\nR 1 2 0 5.0\n"
    diags = validate(parse_netlist(text))
    assert any("voltage source loop" in str(d) for d in diags)


def test_validate_flags_non_positive_values():
    text = "VDC 1 1 0 10.0\nSCN 1 1 0 2 1e-5 0\nC 1 2 0 0.0 0\nR 1 2 0 5.0\n"
    diags = validate(parse_netlist(text))
    assert any("non-positive capacitance" in str(d) for d in diags)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "circuit, code, message",
    [
        (parse_netlist(BUCK_LISTING.replace("R 1 2 0 5.0", "R 1 2 0 0.0")),
         "non-positive-resistance", "R1: non-positive resistance"),
        (parse_netlist(BUCK_LISTING.replace("SCN1 1 1 0 2 10e-6 0", "SCN1 1 1 0 2 0.0 0")),
         "non-positive-inductance", "SCN1: non-positive inductance"),
        (parse_netlist(BUCK_LISTING.replace("SCN1 1 1 0 2 10e-6 0", "FBN1 1 1 0 2 10e-6 0.0 0")),
         "non-positive-turns", "FBN1: non-positive turns ratio"),
        (_buck_with("SCN1", kind="SCD", value=NAN), "non-finite-value", "SCN1: non-finite value"),
        (_buck_with("R1", value=NAN), "non-finite-value", "R1: non-finite value"),
        (_buck_with("SCN1", turns=INF), "non-finite-value", "SCN1: non-finite turns"),
        (_buck_with("VDC1", value=INF), "non-finite-value", "VDC1: non-finite value"),
        (_buck_with("C1", value=-INF, initial=NAN), "non-finite-value",
         "C1: non-finite value, initial"),
    ],
    ids=["resistance", "inductance", "turns", "nan-inductance", "nan-resistance",
         "inf-turns", "inf-source", "non-finite-capacitor"],
)
def test_validate_flags_a_value_of_exactly_zero(circuit, code, message):
    """A positivity rule holds at its boundary: a value of exactly 0 is one
    diagnostic, with its code and text (the capacitance's is above).  A NaN
    passes no comparison, so it and an infinity, which is positive, are one
    diagnostic of their own, for the element's value, turns or initial."""
    assert _codes(circuit) == [(code, message)]


def test_non_finite_numbers_stop_both_simulators_without_warnings():
    """A NaN inductance and an infinite source are InvalidCircuit in both
    simulators, before numpy computes anything."""
    config = SimConfig(0.5, 100e3, 1e-4)
    for circuit in (_buck_with("SCN1", kind="SCD", value=NAN), _buck_with("VDC1", value=INF)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for simulator in (run, simulate_switched):
                with pytest.raises(InvalidCircuit, match="non-finite value"):
                    simulator(circuit, config)


def test_validate_owns_the_cell_value_rules():
    """Every rule on a cell's numbers is a diagnostic of validate, and
    neither simulator runs such a cell: L = 0, a flyback turns ratio of -1,
    and a basic cell's turns ratio of 2, which the parser cannot write."""
    flyback = {"kind": "FBN", "label": "FBN1"}
    cases = [
        (_buck_with("SCN1", value=0.0), "non-positive-inductance", "SCN1: non-positive inductance"),
        (_buck_with("SCN1", **flyback, turns=-1.0), "non-positive-turns",
         "FBN1: non-positive turns ratio"),
        (_buck_with("SCN1", turns=2.0), "basic-cell-turns", "SCN1: basic cell with turns ratio 2.0"),
        (_buck_with("SCN1", kind="SCD", turns=2.0), "basic-cell-turns",
         "SCN1: basic cell with turns ratio 2.0"),
    ]
    config = SimConfig(0.5, 100e3, 1e-4)
    for circuit, code, message in cases:
        assert _codes(circuit) == [(code, message)]
        for simulator in (run, simulate_switched):
            with pytest.raises(InvalidCircuit, match=message):
                simulator(circuit, config)
    assert _codes(_buck_with("SCN1", **flyback, turns=2.0)) == []


def test_validate_flags_a_duplicate_label():
    """Two elements labelled C1, built in code, are a diagnostic; run()
    raises InvalidCircuit, not numpy's shape error.  The parser reports the
    same text with its line (test_duplicate_label_rejected)."""
    circuit = parse_netlist(BUCK_LISTING)
    circuit.elements.append(replace(circuit.element("C1"), value=1e-5))
    assert _codes(circuit) == [("duplicate-label", "C1: duplicate element label")]
    with pytest.raises(InvalidCircuit, match="C1: duplicate element label"):
        run(circuit, SimConfig(0.5, 100e3, 1e-4))


def test_validate_lists_every_fault_of_a_netlist():
    """Ground and connectivity are no longer raised by the parser, so a
    netlist with several faults gets every diagnostic."""
    text = "SCN 1 1 0 2 0.0 0\nR 1 3 4 5.0\n"
    assert _codes(parse_netlist(text)) == [
        ("disconnected-graph", "nodes not connected to ground: [3, 4]"),
        ("non-positive-inductance", "SCN1: non-positive inductance"),
        ("dangling-cell-terminal", "SCN1: terminal node 1 touches no other element"),
        ("dangling-cell-terminal", "SCN1: terminal node 2 touches no other element"),
    ]


def test_validate_flags_a_dangling_cell_terminal():
    """A cell terminal on a node no other element touches carries a current
    nowhere: a diagnostic, and neither simulator runs it.  A resistor alone
    on a node stays accepted."""
    text = BUCK_LISTING.replace("SCN1 1 1 0 2", "SCN1 1 3 0 2")
    message = "SCN1: terminal node 3 touches no other element"
    assert _codes(parse_netlist(text)) == [("dangling-cell-terminal", message)]
    config = SimConfig(0.5, 100e3, 1e-4)
    with pytest.raises(InvalidCircuit, match=message):
        run(parse_netlist(text), config)
    with pytest.raises(InvalidCircuit, match=message):
        simulate_switched(parse_netlist(text), config)
    assert validate(parse_netlist(BUCK_LISTING + "R 9 2 7 5.0\n")) == []


def test_validate_flags_current_source_cutset():
    # Node 3 hangs on a current source alone; its voltage is unanchored.
    text = "VDC 1 1 0 10.0\nSCN 1 1 0 2 1e-5 0\nR 1 2 0 5.0\nIDC 1 3 0 1.0\n"
    diags = validate(parse_netlist(text))
    assert any(d.code == "current-source-cutset" for d in diags)


def test_validate_flags_a_shorted_capacitor():
    """A capacitor with both terminals on one node is a diagnostic, and
    neither simulator runs it; a resistor or current source across one
    node stays accepted."""
    text = BUCK_LISTING + "C 9 2 2 1e-6 0\n"
    diags = validate(parse_netlist(text))
    assert [(d.code, str(d)) for d in diags] == [
        ("shorted-capacitor", "C9: both terminals on node 2")
    ]
    config = SimConfig(0.5, 100e3, 1e-4)
    with pytest.raises(InvalidCircuit, match="C9: both terminals on node 2"):
        run(parse_netlist(text), config)
    with pytest.raises(InvalidCircuit, match="C9: both terminals on node 2"):
        simulate_switched(parse_netlist(text), config)
    accepted = BUCK_LISTING + "R 9 2 2 5.0\nIDC 9 2 2 1.0\n"
    assert validate(parse_netlist(accepted)) == []


def test_validate_flags_a_circuit_without_a_cell():
    diags = validate(parse_netlist("VDC 1 1 0 10.0\nR 1 1 0 5.0\n"))
    assert [(d.code, str(d)) for d in diags] == [
        ("no-switching-cell", "no switching cell in circuit")
    ]


def test_round_trip_buck():
    circuit = parse_netlist(BUCK_LISTING)
    assert parse_netlist(serialize_netlist(circuit)) == circuit
    circuit = parse_netlist(".param D=0.5 fs=100e3 tend=5e-3\n" + BUCK_LISTING)
    assert parse_netlist(serialize_netlist(circuit)) == circuit
    assert serialize_netlist(circuit).startswith(".param D=0.5 fs=100000.0 tend=0.005\n")


def test_a_circuit_is_built_from_its_elements_alone():
    """``CircuitDescription(elements)`` takes no node set: its nodes are
    those its elements span, and it is the circuit the text parses to."""
    circuit = CircuitDescription(parse_netlist(BUCK_LISTING).elements)
    assert circuit.node_ids == {0, 1, 2}
    assert circuit.params == {}
    assert circuit == parse_netlist(BUCK_LISTING)
    assert validate(circuit) == []


NETLISTS = Path(__file__).resolve().parents[1] / "netlists"
# A resistor and a capacitor from node 2 to a new node 7.
NODE_7 = "R 9 2 7 10.0\nC 9 7 0 1e-5 0\n"


def _outcomes(circuit):
    """validate's diagnostics, and the bytes of every run() column and of
    every sample of simulate_switched, over 20 periods."""
    config = SimConfig(0.5, 100e3, 2e-4)
    result = run(circuit, config)
    columns = ("t_start", "x", "v_cap", "vL1", "vL2", "i0_next", "iL0", "iL1", "iL2",
               "d_p", "dcm")
    sampled = simulate_switched(circuit, config)
    return (
        _codes(circuit),
        {column: getattr(result, column).tobytes() for column in columns},
        {name: wave.values.tobytes() for name, wave in sampled.items()},
    )


@pytest.mark.parametrize("name", sorted(p.name for p in NETLISTS.glob("*.net")))
def test_a_circuit_edited_in_code_is_the_netlist_it_lists(name):
    """Elements appended in code bring their new node, and elements removed
    take theirs away: validate, run() and simulate_switched give the edited
    circuit the bits of the same netlist parsed from text."""
    text = (NETLISTS / name).read_text()
    appended = parse_netlist(text)
    appended.elements += parse_netlist(NODE_7).elements
    assert _outcomes(appended) == _outcomes(parse_netlist(text + NODE_7))
    removed = parse_netlist(text + NODE_7)
    del removed.elements[-2:]
    assert _outcomes(removed) == _outcomes(parse_netlist(text))


_kind = st.sampled_from(["R", "C", "VDC", "IDC", "SCN", "SCD", "FBN", "FBD"])
_value = st.floats(1e-9, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw):
    """Structurally valid connected circuits over a few nodes."""
    n_nodes = draw(st.integers(2, 5))
    lines = []
    for idx in range(1, n_nodes):
        # Spanning element keeps every node reachable from ground.
        lines.append(f"R {100 + idx} {idx} {draw(st.integers(0, idx - 1))} "
                     f"{draw(_value)!r}")
    n_extra = draw(st.integers(0, 4))
    for k in range(n_extra):
        kind = draw(_kind)
        nodes = [draw(st.integers(0, n_nodes - 1)) for _ in range(2)]
        if kind in ("SCN", "SCD", "FBN", "FBD"):
            nodes.append(draw(st.integers(0, n_nodes - 1)))
        fields = [kind, str(k + 1)] + [str(n) for n in nodes] + [repr(draw(_value))]
        if kind == "C" or kind in ("SCN", "SCD"):
            fields.append(repr(draw(_value)))
        elif kind in ("FBN", "FBD"):
            fields.append(repr(draw(_value)))
            fields.append(repr(draw(_value)))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_round_trip_identity(text):
    circuit = parse_netlist(text)
    assert parse_netlist(serialize_netlist(circuit)) == circuit


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
def test_parser_total_on_arbitrary_text(text):
    """Any input either parses or raises a located netlist error."""
    try:
        parse_netlist(text)
    except NetlistError:
        pass
