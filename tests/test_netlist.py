"""Netlist parser and validator tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcell import SimConfig, run
from avgcell.engine import InvalidCircuit
from avgcell.netlist import (
    ArityError,
    DisconnectedGraph,
    DuplicateLabel,
    MissingGround,
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


def test_fused_and_split_cell_tokens_parse_identically():
    fused = parse_netlist(BUCK_LISTING)
    split = parse_netlist(BUCK_LISTING.replace("SCN1 1 1 0 2", "SCN 1 1 0 2"))
    assert fused == split


def test_empty_text_is_missing_ground():
    with pytest.raises(MissingGround):
        parse_netlist("")


def test_comments_and_blanks_ignored():
    circuit = parse_netlist("# comment\n\n" + BUCK_LISTING)
    assert len(circuit.elements) == 5


def test_disconnected_component_reported():
    text = "SCN 1 1 0 2 10e-6 0\nR 1 3 4 5.0\n"
    with pytest.raises(DisconnectedGraph) as excinfo:
        parse_netlist(text)
    assert excinfo.value.nodes == {3, 4}


@pytest.mark.parametrize(
    "line, error",
    [
        ("FOO 1 1 0 5.0", UnknownElementKind),
        ("R 9 1 0", ArityError),
        ("R 9 1 0 5.0 9", ArityError),
        ("R 9 1 0 abc", NumericError),
        ("R 9 1 -2 5.0", NumericError),
        ("R 9 1 0 inf", NumericError),
        (".parm D=1", UnknownElementKind),
        (".param Q=1", NumericError),
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


@pytest.mark.parametrize(
    "text, code, message",
    [
        (BUCK_LISTING.replace("R 1 2 0 5.0", "R 1 2 0 0.0"),
         "non-positive-resistance", "R1: non-positive resistance"),
        (BUCK_LISTING.replace("SCN1 1 1 0 2 10e-6 0", "SCN1 1 1 0 2 0.0 0"),
         "non-positive-inductance", "SCN1: non-positive inductance"),
        (BUCK_LISTING.replace("SCN1 1 1 0 2 10e-6 0", "FBN1 1 1 0 2 10e-6 0.0 0"),
         "non-positive-turns", "FBN1: non-positive turns ratio"),
    ],
    ids=["resistance", "inductance", "turns"],
)
def test_validate_flags_a_value_of_exactly_zero(text, code, message):
    """A positivity rule holds at its boundary: a value of exactly 0 is one
    diagnostic, with its code and text (the capacitance's is above)."""
    diags = validate(parse_netlist(text))
    assert [(d.code, str(d)) for d in diags] == [(code, message)]


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
