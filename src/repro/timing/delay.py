"""Delay and slew measurement on response waveforms.

Wraps the raw crossing machinery of :class:`repro.waveform.Waveform` with
the vocabulary timing analyzers use: a :class:`DelayReport` holds the
50 %-swing delay (the paper's Fig. 2 definition), an arbitrary
logic-threshold delay (Sec. 5.3 uses 4.0 V), and the 10–90 % slew, all
measured from a stage's input-switch time.
"""

from __future__ import annotations

import dataclasses

from repro.core.model import AweWaveform
from repro.errors import AnalysisError
from repro.waveform import Waveform


@dataclasses.dataclass(frozen=True)
class DelayReport:
    """Delay metrics of one output transition.

    All times are absolute (from the waveform's t = 0); subtract the
    driving event's time to get stage delay.
    """

    node: str
    v_initial: float
    v_final: float
    delay_50: float
    threshold_delay: float | None
    slew_10_90: float
    monotone: bool
    overshoot: float

    @property
    def swing(self) -> float:
        return self.v_final - self.v_initial


def measure_delay(
    waveform: Waveform | AweWaveform,
    threshold: float | None = None,
    v_final: float | None = None,
) -> DelayReport:
    """Measure the standard delay metrics of one transition.

    ``v_final`` overrides the settled value (pass the known steady state
    when the sampled window ends before full settling); ``threshold`` adds
    a logic-threshold crossing to the report.  On an AWE model the levels,
    monotonicity and overshoot come from its :meth:`~AweWaveform.to_waveform`
    samples, and every crossing is the model's own, read from that same
    scan by :meth:`~AweWaveform.first_crossings`.
    """
    sampled = waveform.to_waveform() if isinstance(waveform, AweWaveform) else waveform
    v0 = sampled.initial
    v1 = sampled.final if v_final is None else v_final
    if v0 == v1:
        raise AnalysisError("no transition: initial and final values are equal")
    rising = v1 > v0
    levels = [0.5 * (v0 + v1), *([] if threshold is None else [threshold]),
              v0 + 0.9 * (v1 - v0), v0 + 0.1 * (v1 - v0)]
    crossings = (waveform.first_crossings([(level, rising) for level in levels],
                                          scan=sampled)
                 if isinstance(waveform, AweWaveform) else [None] * len(levels))
    # Read off the samples where there is no model crossing; a level the
    # samples never cross raises "never crosses" there, in level order.
    t50, *t_threshold, t90, t10 = [
        sampled.threshold_delay(level, rising) if found is None else found
        for level, found in zip(levels, crossings)
    ]

    return DelayReport(
        node=waveform.name,
        v_initial=v0,
        v_final=v1,
        delay_50=t50,
        threshold_delay=t_threshold[0] if t_threshold else None,
        slew_10_90=t90 - t10,
        monotone=sampled.is_monotone(tolerance=1e-6),
        overshoot=sampled.overshoot(),
    )


def slew_time(waveform: Waveform, v_final: float | None = None) -> float:
    """10–90 % transition time — the quantity propagated to the next stage
    as its input rise time."""
    return measure_delay(waveform, v_final=v_final).slew_10_90
