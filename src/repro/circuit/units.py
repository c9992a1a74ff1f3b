"""Engineering-notation parsing and formatting for element values.

SPICE decks write element values with scale suffixes (``10k``, ``2.5n``,
``1meg``).  :func:`parse_value` converts such strings to floats and
:func:`format_engineering` renders floats back with an SI prefix, which the
examples and benchmark tables use for readable output.
"""

from __future__ import annotations

import math
import re

from repro.errors import NetlistParseError

# SPICE scale suffixes.  ``meg`` must be matched before ``m`` (milli); the
# regex below captures the longest alphabetic run so ordering is handled in
# the dict lookup by trying the full suffix first.
_SUFFIX_SCALE = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "x": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}

_VALUE_RE = re.compile(
    r"""^\s*
        (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
        (?P<suffix>[a-zA-Z]*)\s*$""",
    re.VERBOSE,
)

#: SI prefixes for formatting, ordered from largest to smallest.
_SI_PREFIXES = [
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
]


def parse_value(text: str | float | int) -> float:
    """Parse a SPICE-style value string into a float.

    Accepts plain numbers (``"4.7"``, ``"1e-9"``), numbers with a scale
    suffix (``"10k"``, ``"3.3n"``, ``"1meg"``), and numbers with trailing
    unit letters after the suffix, which SPICE ignores (``"10kohm"``,
    ``"5pF"``).  Floats and ints pass through unchanged.

    >>> parse_value("10k")
    10000.0
    >>> parse_value("1meg")
    1000000.0
    >>> parse_value("5pF")
    5e-12
    """
    if isinstance(text, (int, float)):
        return float(text)
    if text[-1:].isdigit() and "_" not in text:
        # No suffix: a plain number, which float() reads as the pattern
        # below does; anything else it accepts fails the pattern too.
        try:
            return float(text)
        except ValueError:
            pass
    match = _VALUE_RE.match(text)
    if match is None:
        raise NetlistParseError(f"cannot parse value {text!r}")
    number = float(match.group("number"))
    suffix = match.group("suffix").lower()
    if not suffix:
        return number
    # SPICE semantics: the scale factor is the longest recognised prefix of
    # the trailing letters; any remaining letters are a unit and ignored.
    if suffix.startswith("meg"):
        return number * _SUFFIX_SCALE["meg"]
    scale = _SUFFIX_SCALE.get(suffix[0])
    if scale is None:
        # Unknown first letter: the whole suffix is a unit name (e.g. "ohm").
        return number
    return number * scale


def format_engineering(value: float, unit: str = "", digits: int = 4) -> str:
    """Format ``value`` with an SI prefix, e.g. ``format_engineering(2.2e-9, "s")
    == "2.2ns"``.

    ``digits`` is the number of significant digits retained.  Zero, NaN and
    infinities are rendered without a prefix.
    """
    if value == 0 or not math.isfinite(value):
        return f"{value:g}{unit}"
    magnitude = abs(value)
    for scale, prefix in _SI_PREFIXES:
        if magnitude >= scale:
            scaled = value / scale
            return f"{scaled:.{digits}g}{prefix}{unit}"
    # Smaller than the smallest prefix: fall back to scientific notation.
    return f"{value:.{digits}g}{unit}"
