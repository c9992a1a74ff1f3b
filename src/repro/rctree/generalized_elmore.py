"""The generalized (area-based) Elmore delay — paper eqs. 1 and 3.

Sections 2.2–2.3 of the paper review the pre-AWE extensions of the Elmore
delay beyond strict RC trees:

* grounded resistors (O'Brien/Wyatt et al.): the final value is no longer
  the supply, so the delay is the *scaled settled area*

  .. math::

      T_D = \\frac{1}{v(\\infty) - v(0)}
            \\int_0^\\infty [v(\\infty) - v(t)]\\,dt
      \\qquad\\text{(paper eq. 3)}

* nonequilibrium initial conditions (Lin–Mead): the same expression with
  ``v(0)`` the charge-shared initial value — a *delay number* is produced
  even where the waveform is nonmonotone and no single-exponential model
  exists.

In moment language eq. 3 is one line: the numerator is ``−m₀`` of the
homogeneous response and the denominator its ``m₋₁``, so this module is a
thin, well-named wrapper over the same machinery AWE uses — which is the
paper's point: "for the case of an RC tree model a first-order AWE
approximation reduces to the RC tree methods."

For monotone responses the number approximates the 50 % delay; for
nonmonotone ones it is only a summary statistic (the limitation Sec. 2.4
calls out, and the reason AWE fits whole waveforms instead).
"""

from __future__ import annotations

from repro.analysis.dcop import (
    final_operating_point,
    initial_operating_point,
    resolve_initial_storage_state,
)
from repro.analysis.mna import MnaSystem
from repro.circuit.elements import GROUND, canonical_node
from repro.circuit.netlist import Circuit
from repro.core.moments import homogeneous_moments
from repro.errors import AnalysisError


def _release_moments(
    circuit: Circuit,
    source_values: dict[str, float] | None,
    pre_source_values: dict[str, float] | None,
):
    """The eq. 3 pipeline both entry points share.

    Resolves the post-switch (default ``dc``) and pre-switch (default
    ``dc0``) source levels, then storage → ``x(0⁺)`` → final state →
    moments of the homogeneous response ``y0 = x(0⁺) − x(∞)``.
    """
    system = MnaSystem(circuit)
    sources = [*circuit.voltage_sources, *circuit.current_sources]
    post = {s.name: s.dc for s in sources}
    pre = {s.name: s.dc0 for s in sources}
    post.update(source_values or {})
    pre.update(pre_source_values or {})
    storage = resolve_initial_storage_state(system, pre)
    x0 = initial_operating_point(circuit, system, storage, post)
    y0 = x0 - final_operating_point(system, post, x0)
    return system, y0, homogeneous_moments(system, y0, 1)


def generalized_elmore_delay(
    circuit: Circuit,
    node: str | int,
    source_values: dict[str, float] | None = None,
    pre_source_values: dict[str, float] | None = None,
) -> float:
    """Eq. 3 of the paper: the scaled settled area of the step response.

    ``source_values`` are the post-switch source levels (default: element
    ``dc`` values); ``pre_source_values`` the pre-switch levels (default:
    element ``dc0``), with capacitor/inductor explicit initial conditions
    honoured — so Lin–Mead-style charge-shared starting states work.

    Raises :class:`AnalysisError` when the node sees no net transition
    (the delay is undefined, eq. 3 divides by zero).
    """
    name = canonical_node(node)
    if name == GROUND:
        raise AnalysisError("ground does not move; no delay")
    system, y0, moments = _release_moments(circuit, source_values,
                                           pre_source_values)
    row = system.index.node(name)
    swing = -float(y0[row])  # v(∞) − v(0)
    if swing == 0.0:
        raise AnalysisError(
            f"node {name!r} has no net transition; eq. 3 is undefined"
        )
    area = -float(moments.vectors[0][row])  # ∫ (v∞ − v) dt = −m₀
    return area / swing


def settling_areas(
    circuit: Circuit,
    source_values: dict[str, float] | None = None,
    pre_source_values: dict[str, float] | None = None,
) -> dict[str, float]:
    """The eq. 3 numerator ``∫(v∞ − v)dt`` for every node at once.

    One moment solve serves all outputs (the vectorised version of the
    delay above; useful for full-net delay reports)."""
    system, _, moments = _release_moments(circuit, source_values,
                                          pre_source_values)
    return {
        node: -float(moments.vectors[0][system.index.node(node)])
        for node in circuit.nodes
    }
