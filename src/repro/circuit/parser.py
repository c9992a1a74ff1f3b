"""SPICE-style netlist deck parser.

Interconnect models usually arrive as extracted SPICE decks, so the
library accepts the familiar format::

    * RC tree example (first non-comment line may be a title)
    Vin in 0 PWL(0 0 1n 5)
    R1 in 1 10k
    C1 1 0 1p IC=2.5
    G1 2 0 1 0 1m      ; VCCS
    .end

Supported cards: R, C (``IC=`` initial voltage), L (``IC=`` initial
current), V/I (``DC v``, ``STEP(v0 v1 [delay])``, ``PULSE(v1 v2 td tr tf
pw)``, ``PWL(t1 v1 t2 v2 …)``), G/E (VCCS/VCVS: ``name n+ n- nc+ nc-
gain``), F/H (CCCS/CCVS: ``name n+ n- vname gain``).  Lines starting with
``*`` or empty are skipped; ``;`` and ``$`` introduce trailing comments;
``+`` continues the previous card; ``.end`` stops parsing; other dot cards
are ignored with a record in :attr:`ParsedDeck.ignored_directives`.

Engineering suffixes (``10k``, ``2.5n``, ``1meg``) are handled by
:mod:`repro.circuit.units`.
"""

from __future__ import annotations

import dataclasses
import re

from repro.analysis.sources import DC, PWL, Pulse, Step, Stimulus
from repro.circuit.netlist import Circuit
from repro.circuit.units import parse_value
from repro.errors import NetlistParseError


@dataclasses.dataclass(frozen=True)
class ParsedDeck:
    """The result of parsing: the circuit plus source stimuli and metadata."""

    circuit: Circuit
    stimuli: dict[str, Stimulus]
    title: str
    ignored_directives: tuple[str, ...]


def parse_netlist(text: str, title_line: bool = True) -> ParsedDeck:
    """Parse a deck from a string.

    ``title_line=True`` treats the first non-blank line as the SPICE title
    (unless it starts with a recognised card letter followed by whitespace,
    in which case it is parsed as an element for convenience).
    """
    lines = _physical_to_logical(text)
    circuit = Circuit()
    stimuli: dict[str, Stimulus] = {}
    ignored: list[str] = []
    title = ""

    first = True
    for line_number, line in lines:
        if first and title_line:
            first = False
            # SPICE treats the first line as a title.  For convenience a
            # first line that *parses* as a valid card is kept as one
            # (decks written without a title still work); anything else —
            # including prose that merely starts with an element letter —
            # becomes the title.
            if not line.startswith(".") and not _parses_as_card(line):
                title = line
                circuit.title = title
                continue
        first = False
        if line.startswith("."):
            directive = line.split()[0].lower()
            if directive == ".end":
                break
            if directive == ".title":
                title = line[len(".title"):].strip()
                circuit.title = title
                continue
            if directive == ".ic":
                _apply_ic_directive(circuit, line, line_number)
                continue
            ignored.append(line)
            continue
        _parse_card(circuit, stimuli, line, line_number)
    return ParsedDeck(circuit, stimuli, title, tuple(ignored))


def parse_netlist_file(path) -> ParsedDeck:
    """Parse a deck from a file path."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_netlist(handle.read())


_CARD_RE = re.compile(r"^[rclvigefhk]\w*\s", re.IGNORECASE)


def _parses_as_card(line: str) -> bool:
    """True when the line is a syntactically valid element card."""
    if not _CARD_RE.match(line):
        return False
    probe = Circuit()
    try:
        _parse_card(probe, {}, line, 0)
    except NetlistParseError:
        return False
    return True


def _physical_to_logical(text: str) -> list[tuple[int, str]]:
    """Strip comments/blanks and fold ``+`` continuations."""
    logical: list[tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if ";" in raw or "$" in raw:
            raw = raw.partition(";")[0].partition("$")[0]
        stripped = raw.strip()
        if not stripped or stripped[0] == "*":
            continue
        if stripped[0] == "+":
            if not logical:
                raise NetlistParseError("continuation with nothing to continue", number)
            prev_number, prev = logical[-1]
            logical[-1] = (prev_number, prev + " " + stripped[1:].strip())
        else:
            logical.append((number, stripped))
    return logical


def _parse_card(circuit: Circuit, stimuli: dict, line: str, number: int) -> None:
    tokens = _tokenize(line, number)
    name = tokens[0]
    letter = name[0].lower()
    try:
        if letter == "r":
            _need(tokens, 4, number)
            circuit.add_resistor(name, tokens[1], tokens[2], parse_value(tokens[3]))
        elif letter == "c":
            _need(tokens, 4, number)
            ic = _extract_ic(tokens[4:], number)
            circuit.add_capacitor(name, tokens[1], tokens[2], parse_value(tokens[3]), ic)
        elif letter == "l":
            _need(tokens, 4, number)
            ic = _extract_ic(tokens[4:], number)
            circuit.add_inductor(name, tokens[1], tokens[2], parse_value(tokens[3]), ic)
        elif letter in ("v", "i"):
            _parse_source(circuit, stimuli, letter, tokens, number)
        elif letter == "g":
            _need(tokens, 6, number)
            circuit.add_vccs(name, tokens[1], tokens[2], tokens[3], tokens[4], parse_value(tokens[5]))
        elif letter == "e":
            _need(tokens, 6, number)
            circuit.add_vcvs(name, tokens[1], tokens[2], tokens[3], tokens[4], parse_value(tokens[5]))
        elif letter == "f":
            _need(tokens, 5, number)
            circuit.add_cccs(name, tokens[1], tokens[2], tokens[3], parse_value(tokens[4]))
        elif letter == "h":
            _need(tokens, 5, number)
            circuit.add_ccvs(name, tokens[1], tokens[2], tokens[3], parse_value(tokens[4]))
        elif letter == "k":
            _need(tokens, 4, number)
            circuit.add_mutual_inductance(
                name, tokens[1], tokens[2], parse_value(tokens[3])
            )
        else:
            raise NetlistParseError(f"unknown element card {name!r}", number)
    except NetlistParseError:
        raise
    except Exception as exc:  # element-layer validation errors get line info
        raise NetlistParseError(str(exc), number) from exc


def _tokenize(line: str, number: int) -> list[str]:
    """Split a card into tokens, keeping ``FUNC( … )`` groups together.

    A card without parentheses is split by :meth:`str.split`, which cuts
    at the same whitespace as the character loop below."""
    if "(" not in line and ")" not in line:
        return line.split()
    spaced = re.sub(r"\(\s*", "(", line)
    tokens: list[str] = []
    depth = 0
    current = ""
    for ch in spaced:
        if ch == "(":
            depth += 1
            current += ch
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise NetlistParseError("unbalanced parentheses", number)
            current += ch
        elif ch.isspace() and depth == 0:
            if current:
                tokens.append(current)
                current = ""
        else:
            current += ch
    if depth != 0:
        raise NetlistParseError("unbalanced parentheses", number)
    if current:
        tokens.append(current)
    return tokens


def _need(tokens: list[str], count: int, number: int) -> None:
    if len(tokens) < count:
        raise NetlistParseError(
            f"card {tokens[0]!r} needs at least {count - 1} fields", number
        )


_IC_DIRECTIVE_RE = re.compile(r"v\(\s*([^)\s]+)\s*\)\s*=\s*(\S+)", re.IGNORECASE)


def _apply_ic_directive(circuit: Circuit, line: str, number: int) -> None:
    """``.ic V(node)=value …`` — set the initial voltage of the grounded
    capacitor(s) at each named node (the SPICE node-voltage semantics
    mapped onto our per-capacitor initial conditions)."""
    from repro.circuit.elements import GROUND, canonical_node

    assignments = _IC_DIRECTIVE_RE.findall(line)
    if not assignments:
        raise NetlistParseError(".ic needs V(node)=value assignments", number)
    for node_text, value_text in assignments:
        node = canonical_node(node_text)
        value = parse_value(value_text)
        matched = False
        for cap in circuit.capacitors:
            if not cap.is_grounded:
                continue
            cap_node = cap.positive if cap.negative == GROUND else cap.negative
            if cap_node == node:
                sign = 1.0 if cap.negative == GROUND else -1.0
                circuit.set_initial_voltage(cap.name, sign * value)
                matched = True
        if not matched:
            raise NetlistParseError(
                f".ic V({node_text})={value_text}: no grounded capacitor at "
                f"node {node_text!r} to carry the initial condition "
                "(state it on the capacitor card with IC= instead)",
                number,
            )


_IC_RE = re.compile(r"^ic=(.+)$", re.IGNORECASE)


def _extract_ic(extras: list[str], number: int) -> float | None:
    for token in extras:
        match = _IC_RE.match(token)
        if match:
            return parse_value(match.group(1))
    return None


_FUNC_RE = re.compile(r"^(?P<func>[a-zA-Z]+)\((?P<args>.*)\)$")


def _parse_source(circuit, stimuli, letter, tokens, number) -> None:
    _need(tokens, 4, number)
    name, positive, negative = tokens[0], tokens[1], tokens[2]
    rest = tokens[3:]

    stimulus: Stimulus | None = None
    dc_value = 0.0
    i = 0
    while i < len(rest):
        token = rest[i]
        func = _FUNC_RE.match(token)
        if func:
            stimulus = _parse_function(func.group("func"), func.group("args"), number)
            i += 1
        elif token.lower() == "dc":
            if i + 1 >= len(rest):
                raise NetlistParseError("DC keyword without a value", number)
            dc_value = parse_value(rest[i + 1])
            i += 2
        else:
            dc_value = parse_value(token)
            i += 1

    if stimulus is None:
        stimulus = DC(dc_value)
    adder = circuit.add_voltage_source if letter == "v" else circuit.add_current_source
    adder(name, positive, negative, dc=stimulus.initial_value, dc0=stimulus.initial_value)
    stimuli[name] = stimulus


def _parse_function(func: str, args_text: str, number: int) -> Stimulus:
    args = [parse_value(a) for a in re.split(r"[\s,]+", args_text.strip()) if a]
    func = func.lower()
    if func == "pwl":
        if len(args) < 2 or len(args) % 2:
            raise NetlistParseError("PWL needs an even number of values", number)
        points = list(zip(args[0::2], args[1::2]))
        return PWL(points)
    if func == "pulse":
        if len(args) < 6:
            raise NetlistParseError(
                "PULSE needs v1 v2 delay rise fall width", number
            )
        v1, v2, delay, rise, fall, width = args[:6]
        return Pulse(v0=v1, v1=v2, delay=delay, rise=rise, width=width, fall=fall)
    if func == "step":
        if len(args) < 2:
            raise NetlistParseError("STEP needs v0 v1 [delay]", number)
        delay = args[2] if len(args) > 2 else 0.0
        return Step(v0=args[0], v1=args[1], delay=delay)
    raise NetlistParseError(f"unknown source function {func.upper()!r}", number)
