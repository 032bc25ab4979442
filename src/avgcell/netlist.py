"""Netlist parsing and structural validation for switching-converter circuits.

Grammar (one element per line, whitespace separated, ``#`` starts a comment
line, blank lines are ignored; ``_KINDS`` holds it, and the parser, the
arity check and :func:`serialize_netlist` all read it from there, as
:func:`validate` reads each kind's positivity rules):

    VDC <idx> <n+> <n-> <volts>
    IDC <idx> <n+> <n-> <amps>
    R   <idx> <n1> <n2> <ohms>
    C   <idx> <n1> <n2> <farads> <v0>
    SCN|SCD <idx> <nA> <nP> <nC> <L_henries> <iL0>
    FBN|FBD <idx> <nA> <nP> <nC> <Lm_henries> <n_ratio> <iL0>

Cell terminals: ``nA`` is the active (switch) terminal, ``nP`` the passive
(diode) terminal and ``nC`` the common (inductor) terminal.  SCN/FBN are
synchronously rectified cells, SCD/FBD carry a diode and may enter
discontinuous conduction.  IDC extracts its current from ``n+`` and returns
it at ``n-``.

A kind keyword fused with a trailing alphanumeric tag is accepted:
``SCN1 1 1 0 2 10e-6 0`` parses identically to ``SCN 1 1 0 2 10e-6 0``.
The element name is the keyword plus the tag when present, otherwise the
keyword plus the index token.

Optional directive lines of the form

    .param D=0.5 fs=100e3 tend=5e-3

provide default duty ratio, switching frequency and transient duration;
command line flags override them.  Node ids are arbitrary non-negative
integers and node 0 is ground.

:func:`parse_netlist` raises the first error of a line, with its number;
:func:`validate` owns every rule about the circuit and lists each finding.
An :class:`Element` is the one description of a cell that every layer reads.
"""

import math
from dataclasses import dataclass, field

from .errors import AvgcellError

VDC = "VDC"
IDC = "IDC"
RES = "R"
CAP = "C"
SCN = "SCN"
SCD = "SCD"
FBN = "FBN"
FBD = "FBD"

CELL_KINDS = (SCN, SCD, FBN, FBD)
FLYBACK_KINDS = (FBN, FBD)
DIODE_KINDS = (SCD, FBD)

# The grammar and value rules of every kind: its node count; the Element
# field and the description of every number after the main value; and the
# Element fields that must be positive, each with the code and the wording
# of its diagnostic.  A line is the keyword, the index, the nodes, the main
# value and those numbers.
_KINDS = {
    **dict.fromkeys((VDC, IDC), (2, (), ())),
    RES: (2, (), (("value", "non-positive-resistance", "resistance"),)),
    CAP: (2, (("initial", "initial voltage"),),
          (("value", "non-positive-capacitance", "capacitance"),)),
    **{
        kind: (3, extras, (("value", "non-positive-inductance", "inductance"),
                           ("turns", "non-positive-turns", "turns ratio")))
        for kinds, extras in (
            ((SCN, SCD), (("initial", "initial current"),)),
            (FLYBACK_KINDS, (("turns", "turns ratio"), ("initial", "initial current"))),
        )
        for kind in kinds
    },
}

# Longest keywords first so "SCN1" is not read as "S" + garbage.
_KEYWORDS = sorted(_KINDS, key=len, reverse=True)

_PARAM_KEYS = ("D", "fs", "tend")


class NetlistError(AvgcellError):
    """Parse or validation failure, located by netlist line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownElementKind(NetlistError):
    pass


class ArityError(NetlistError):
    pass


class NumericError(NetlistError):
    pass


class DuplicateLabel(NetlistError):
    pass


@dataclass(frozen=True)
class Element:
    """One netlist element.

    ``value`` is the main parameter (volts, amps, ohms, farads or henries),
    ``turns`` the flyback turns ratio (1 for every other kind) and
    ``initial`` the initial inductor current (cells) or capacitor voltage.
    """

    kind: str
    label: str
    nodes: tuple
    value: float
    turns: float = 1.0
    initial: float = 0.0

    @property
    def is_cell(self):
        return self.kind in CELL_KINDS

    @property
    def is_flyback(self):
        return self.kind in FLYBACK_KINDS

    @property
    def is_diode(self):
        """A diode cell (SCD, FBD), which may enter discontinuous conduction."""
        return self.kind in DIODE_KINDS


@dataclass
class CircuitDescription:
    """Element list and ``.param`` defaults; ``node_ids`` is read off the
    elements on each access; :func:`validate` says if the simulators can run it."""

    elements: list
    params: dict = field(default_factory=dict)

    @property
    def node_ids(self):
        return {n for e in self.elements for n in e.nodes}

    def cells(self):
        return [e for e in self.elements if e.kind in CELL_KINDS]

    def capacitors(self):
        return [e for e in self.elements if e.kind == CAP]

    def resistors(self):
        return [e for e in self.elements if e.kind == RES]

    def vdcs(self):
        return [e for e in self.elements if e.kind == VDC]

    def idcs(self):
        return [e for e in self.elements if e.kind == IDC]

    def element(self, label):
        for e in self.elements:
            if e.label == label:
                return e
        raise KeyError(label)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; an empty diagnostic list means valid."""

    code: str
    message: str

    def __str__(self):
        return self.message


def _match_keyword(token):
    for kw in _KEYWORDS:
        if token.startswith(kw):
            tag = token[len(kw):]
            if tag == "" or tag.isalnum():
                return kw, tag
    return None, None


def _parse_float(token, line, what):
    try:
        value = float(token)
    except ValueError:
        raise NumericError(f"unparsable {what} {token!r}", line) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise NumericError(f"non-finite {what} {token!r}", line)
    return value


def _parse_node(token, line):
    try:
        node = int(token)
    except ValueError:
        raise NumericError(f"unparsable node id {token!r}", line) from None
    if node < 0:
        raise NumericError(f"negative node id {token!r}", line)
    return node


def _parse_param_directive(line_text, line, params):
    parts = line_text.split()
    if parts[0] != ".param":
        raise UnknownElementKind(f"unknown directive {parts[0]!r}", line)
    for item in parts[1:]:
        key, sep, value = item.partition("=")
        if not sep:
            raise NumericError(f"malformed parameter {item!r}", line)
        if key not in _PARAM_KEYS:
            raise NumericError(
                f"unknown parameter {key!r} (expected one of {_PARAM_KEYS})", line
            )
        params[key] = _parse_float(value, line, f"parameter {key}")


def parse_netlist(text):
    """Parse netlist text into a :class:`CircuitDescription`.

    Elements are kept in file order.  Raises a :class:`NetlistError`
    subclass, located by its line number, at the first line that breaks the
    grammar or repeats a label; every rule about the circuit itself, ground
    and connectivity included, is :func:`validate`'s.
    """
    elements = []
    labels = set()
    params = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("."):
            _parse_param_directive(line, lineno, params)
            continue

        tokens = line.split()
        kind, tag = _match_keyword(tokens[0])
        if kind is None:
            raise UnknownElementKind(f"unknown element kind {tokens[0]!r}", lineno)
        n_nodes, extras, _ = _KINDS[kind]
        arity = 3 + n_nodes + len(extras)
        if len(tokens) != arity:
            raise ArityError(f"{kind} takes {arity} tokens, got {len(tokens)}", lineno)

        idx = tokens[1]
        label = kind + (tag if tag else idx)
        if label in labels:
            raise DuplicateLabel(f"duplicate element label {label!r}", lineno)
        labels.add(label)

        nodes = tuple(_parse_node(t, lineno) for t in tokens[2 : 2 + n_nodes])
        value = _parse_float(tokens[2 + n_nodes], lineno, "value")
        fields = {
            name: _parse_float(token, lineno, what)
            for (name, what), token in zip(extras, tokens[3 + n_nodes :])
        }
        elements.append(Element(kind, label, nodes, value, **fields))
    return CircuitDescription(elements, params)


def _join(parts, a, b):
    """Join the parts of nodes ``a`` and ``b`` (``parts`` maps a node to the
    set of its part); False if they were one part already."""
    part_a, part_b = parts.setdefault(a, {a}), parts.setdefault(b, {b})
    if part_a is part_b:
        return False
    if len(part_a) < len(part_b):
        part_a, part_b = part_b, part_a
    part_a |= part_b
    for node in part_b:
        parts[node] = part_a
    return True


def _unanchored(elements, node_ids):
    """The nodes not connected to ground, and those connected only through
    current sources: every element's nodes joined, current sources last."""
    parts, apart = {}, []
    for last in (False, True):
        for e in elements:
            if (e.kind == IDC) == last:
                for node in e.nodes[1:]:
                    _join(parts, e.nodes[0], node)
        apart.append(node_ids - parts.get(0, {0}))
    floating, unreached = apart
    return unreached, floating - unreached


def validate(circuit):
    """Check solvability conditions; returns a list of diagnostics.

    Covers ground presence, graph connectivity, a switching cell to step,
    unique labels, finite numbers, parameter positivity, a basic cell's
    unit turns ratio, capacitors across one node, lone cell terminals,
    voltage-source-only loops and current-source-only cutsets (sufficient
    conditions for the averaged run to be well posed).  Each circuit rule is
    written here once; both simulators run only a circuit with no diagnostic.
    """
    diags = []
    node_ids = circuit.node_ids

    if 0 not in node_ids:
        diags.append(Diagnostic("missing-ground", "no element references ground node 0"))
        return diags

    unreached, floating = _unanchored(circuit.elements, node_ids)
    if unreached:
        message = f"nodes not connected to ground: {sorted(unreached)}"
        diags.append(Diagnostic("disconnected-graph", message))

    if not circuit.cells():
        diags.append(Diagnostic("no-switching-cell", "no switching cell in circuit"))

    labels, sole = set(), {}  # every node's one element, None once two touch it
    for e in circuit.elements:
        if e.label in labels:
            diags.append(Diagnostic("duplicate-label", f"{e.label}: duplicate element label"))
        labels.add(e.label)
        for node in e.nodes:
            sole[node] = e if sole.get(node, e) is e else None
        # A NaN or an infinity is its element's one diagnostic; a finite sum
        # has none.
        if not math.isfinite(e.value + e.turns + e.initial):
            bad = [n for n in ("value", "turns", "initial") if not math.isfinite(getattr(e, n))]
            if bad:
                message = f"{e.label}: non-finite {', '.join(bad)}"
                diags.append(Diagnostic("non-finite-value", message))
                continue
        for name, code, wording in _KINDS[e.kind][2]:
            if not getattr(e, name) > 0:
                diags.append(Diagnostic(code, f"{e.label}: non-positive {wording}"))
        if e.is_cell and not e.is_flyback and e.turns != 1.0:
            message = f"{e.label}: basic cell with turns ratio {e.turns!r}"
            diags.append(Diagnostic("basic-cell-turns", message))
        # A capacitor across one node holds no voltage, and the oracle finds
        # no initial operating point.
        if e.kind == CAP and e.nodes[0] == e.nodes[1]:
            message = f"{e.label}: both terminals on node {e.nodes[0]}"
            diags.append(Diagnostic("shorted-capacitor", message))

    # A cell terminal on a node of its own carries a current nothing takes.
    for node, e in sole.items():
        if node and e and e.is_cell:
            message = f"{e.label}: terminal node {node} touches no other element"
            diags.append(Diagnostic("dangling-cell-terminal", message))

    # A cycle in the VDC-only subgraph pins some voltage twice.
    parts = {}
    for e in circuit.vdcs():
        if not _join(parts, *e.nodes):
            message = f"voltage source loop through {e.label}"
            diags.append(Diagnostic("voltage-source-loop", message))

    # A node reachable only through current sources has no voltage anchor.
    if floating:
        message = f"nodes anchored only by current sources: {sorted(floating)}"
        diags.append(Diagnostic("current-source-cutset", message))

    return diags


def serialize_netlist(circuit):
    """Render a circuit back to canonical netlist text.

    Re-parsing the output reproduces an identical :class:`CircuitDescription`.
    """
    lines = []
    if circuit.params:
        pairs = " ".join(f"{k}={circuit.params[k]!r}" for k in sorted(circuit.params))
        lines.append(f".param {pairs}")
    for e in circuit.elements:
        tag = e.label[len(e.kind):]
        fields = [e.kind, tag] + [str(n) for n in e.nodes] + [repr(e.value)]
        fields += [repr(getattr(e, name)) for name, _ in _KINDS[e.kind][1]]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
