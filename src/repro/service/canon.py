"""Canonical deck hashing: the service cache's content addressing.

Two requests should share a cache entry exactly when AWE would produce
the same report for both.  Textual identity is far too strict — timing
loops re-emit decks with shuffled element order, different whitespace,
regenerated comments, and unnormalised value spellings (``1000`` vs
``1k`` vs ``1K``).  Parsing already erases comments, whitespace, and
unit spelling (values become floats); :func:`canonical_deck` erases the
remaining degrees of freedom by re-serialising the parsed circuit with
``write_netlist(..., canonical=True)``: elements in natural-sorted name
order, values in full ``repr`` precision, title blanked.

:func:`request_key` then hashes the canonical deck together with every
analysis parameter that changes the report (nodes in request order,
fixed order *or* error target, max order, threshold), yielding the
content address used by :class:`repro.service.cache.ResultCache`.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.sources import Stimulus
from repro.circuit.netlist import Circuit
from repro.circuit.writer import write_netlist

#: Version tag mixed into every key; bump when the canonical form or the
#: report schema changes so stale persisted entries can never be served.
#: /2: the ``reduce`` field joined the payload — a reduced and an
#: unreduced run of the same deck are different documents.
#: /3: a node with no net transition reports a null 50 % delay.
KEY_SCHEMA = "repro.analysis-request/3"

#: Same role for ``POST /sta`` requests (STA report schema + canonical
#: design form).
STA_KEY_SCHEMA = "repro.sta-request/1"

#: Same role for ``POST /sweep`` requests (sweep report schema +
#: canonical deck + plan payload).
SWEEP_KEY_SCHEMA = "repro.sweep-request/1"


def canonical_deck(circuit: Circuit, stimuli: dict[str, Stimulus] | None = None) -> str:
    """The circuit's canonical serialisation (title blanked).

    Decks that parse to the same elements, values, and stimuli produce
    identical text, regardless of element order, comments, whitespace,
    engineering-suffix spelling, or title.
    """
    return write_netlist(circuit, stimuli, title="", canonical=True)


def request_key(
    circuit: Circuit,
    stimuli: dict[str, Stimulus] | None,
    nodes,
    order: int | None = None,
    error_target: float = 0.01,
    max_order: int = 8,
    threshold: float | None = None,
    reduce: bool = False,
) -> str:
    """Content address of one analysis request (SHA-256 hex digest).

    ``nodes`` keeps its request order — the report lists responses in
    that order, so reordered nodes are a genuinely different document.
    With a fixed ``order`` the error target is irrelevant to the result
    and is normalised out, so ``order=2`` requests share an entry no
    matter what target they also carried.  ``reduce`` is the request's
    RC-chain pre-reduction setting (absent means false): reduced results
    approximate higher moments, so they must never be served for an
    unreduced request or vice versa.
    """
    payload = {
        "schema": KEY_SCHEMA,
        "deck": canonical_deck(circuit, stimuli),
        "nodes": [str(node) for node in nodes],
        "order": None if order is None else int(order),
        "error_target": None if order is not None else float(error_target),
        "max_order": int(max_order),
        "threshold": None if threshold is None else float(threshold),
        "reduce": bool(reduce),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_request_key(circuit, stimuli, plan) -> str:
    """Content address of one sweep request (SHA-256 hex digest).

    ``plan`` is a :class:`repro.sweep.SweepPlan`; its payload carries the
    node, tier policy, bounds, and the points *in request order* (the
    report lists results in that order, so a reordered plan is a
    genuinely different document).  The deck is canonicalised exactly
    like an ``/analyze`` request, so textual respellings of one circuit
    share an entry.
    """
    payload = {
        "schema": SWEEP_KEY_SCHEMA,
        "deck": canonical_deck(circuit, stimuli),
        "plan": plan.to_payload(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sta_request_key(design, k: int, corners, interconnect: str,
                    library=None) -> str:
    """Content address of one STA request (SHA-256 hex digest).

    ``design`` is a :class:`repro.sta.Design` (its canonical dict form —
    members sorted by name — erases declaration order); ``corners`` keep
    request order because the report lists them in that order.  A custom
    ``library`` is part of the address; ``None`` (the built-in default
    library) hashes as ``null`` so it stays stable across versions of
    the default cells only if those cells are unchanged — the schema tag
    is bumped whenever they change.
    """
    payload = {
        "schema": STA_KEY_SCHEMA,
        "design": design.to_canonical_dict(),
        "k": int(k),
        "corners": [corner.to_dict() for corner in corners],
        "interconnect": str(interconnect),
        "library": None if library is None else library.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
