"""Evaluable AWE waveform models.

An AWE analysis produces, per output variable, one
:class:`PoleResidueModel` per excitation event (plus one for the release of
the initial conditions).  Each model is

.. math::

    \\hat v(\\tau) = c_0 + c_1 \\tau +
        \\sum_i k_i \\frac{\\tau^{j_i - 1}}{(j_i - 1)!} e^{p_i \\tau},
    \\qquad \\tau = t - t_0,\\; t \\ge t_0,

— the particular (step/ramp-following) part plus the matched transient
(paper eqs. 14–15, with the repeated-pole generalisation of eq. 26).  An
:class:`AweWaveform` superposes the per-event models (paper Fig. 13 and
eqs. 65–66) into the complete response.

Models evaluate with complex arithmetic internally and return real values;
conjugate pole pairs produced by the Padé stage make the imaginary parts
cancel, which :func:`repro.analysis.poles._realise`-style checks enforce.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import ApproximationError
from repro.waveform import Waveform

#: A transient term: (pole, power, residue) — see solve_residues().
Term = tuple[complex, int, complex]

#: Sample counts of the bracketing scan and of each zoom, and the bracket
#: width (relative to the window) at which a crossing is interpolated.
_SCAN_SAMPLES, _ZOOM_SAMPLES, _CROSSING_TOLERANCE = 4000, 257, 1e-8


@dataclasses.dataclass(frozen=True)
class PoleResidueModel:
    """One step/ramp subproblem's approximate response (active for t ≥ t0)."""

    terms: tuple[Term, ...]
    offset: float = 0.0
    slope: float = 0.0
    t0: float = 0.0
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.terms)

    @property
    def poles(self) -> np.ndarray:
        """The distinct transient poles, with multiplicity expanded."""
        return np.array([pole for pole, _, _ in self.terms])

    @property
    def residues(self) -> np.ndarray:
        return np.array([residue for _, _, residue in self.terms])

    @property
    def is_stable(self) -> bool:
        return bool(np.all(self.poles.real < 0.0)) if self.terms else True

    def transient_at(self, tau) -> np.ndarray:
        """The decaying part only, on local time ``τ = t − t0`` (τ ≥ 0)."""
        tau = np.asarray(tau, dtype=float)
        total = np.zeros(tau.shape, dtype=complex)
        for pole, power, residue in self.terms:
            term = residue * np.exp(pole * tau)
            if power > 1:
                term = term * tau ** (power - 1) / math.factorial(power - 1)
            total += term
        imag_scale = np.abs(total.imag).max(initial=0.0)
        real_scale = np.abs(total.real).max(initial=0.0)
        if imag_scale > 1e-6 * max(real_scale, 1e-300) and imag_scale > 1e-12:
            raise ApproximationError(
                "pole/residue model evaluates to a complex waveform; "
                "conjugate pairing was broken upstream"
            )
        return total.real

    def evaluate(self, t) -> np.ndarray:
        """Model value at absolute time(s) ``t``; zero before ``t0``."""
        t = np.asarray(t, dtype=float)
        tau = t - self.t0
        active = tau >= 0.0
        values = np.zeros(t.shape)
        if np.any(active):
            tau_active = tau[active] if tau.ndim else tau
            contribution = (
                self.offset + self.slope * tau_active + self.transient_at(tau_active)
            )
            if tau.ndim:
                values[active] = contribution
            else:
                values = np.asarray(contribution)
        return values

    def initial_value(self) -> float:
        """Model value at τ = 0⁺ (should equal ``m₋₁ + c₀`` by matching)."""
        return float(self.offset + self.transient_at(np.asarray(0.0)))

    def final_value(self) -> float:
        """Limit as τ → ∞ of the constant part (offset; slope must be 0)."""
        if self.slope != 0.0:
            raise ApproximationError("model ramps forever; no final value")
        if not self.is_stable:
            raise ApproximationError("unstable model has no final value")
        return self.offset

    def dominant_time_constant(self) -> float:
        """``1/|Re p|`` of the most dominant stable pole — the model's own
        settling scale, used to pick evaluation windows."""
        if not self.terms:
            return 0.0
        rates = np.abs(self.poles.real)
        rates = rates[rates > 0]
        if len(rates) == 0:
            raise ApproximationError("model has no decaying pole")
        return float(1.0 / rates.min())


@dataclasses.dataclass(frozen=True)
class AweWaveform:
    """The complete response of one output: superposed per-event models.

    ``baseline`` is the pre-switching DC level contribution that is not
    carried inside any model (models describe *changes* from their own
    event onward).
    """

    models: tuple[PoleResidueModel, ...]
    baseline: float = 0.0
    name: str = ""

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        total = np.full(t.shape, self.baseline)
        for model in self.models:
            total = total + model.evaluate(t)
        return total

    def __call__(self, t):
        return self.evaluate(t)

    def final_value(self) -> float:
        """Settled value as t → ∞.

        Individual event models may carry nonzero particular slopes (the
        two halves of a finite-rise-time input each ramp forever, paper
        Fig. 13); what must vanish is their *sum*.
        """
        total_slope = sum(model.slope for model in self.models)
        scale = max((abs(model.slope) for model in self.models), default=0.0)
        if abs(total_slope) > 1e-9 * max(scale, 1.0):
            raise ApproximationError("response ramps forever; no final value")
        if not self.is_stable:
            raise ApproximationError("unstable response has no final value")
        return self.baseline + sum(
            model.offset - model.slope * model.t0 for model in self.models
        )

    def dominant_time_constant(self) -> float:
        taus = [m.dominant_time_constant() for m in self.models if m.terms]
        if not taus:
            return 0.0
        return max(taus)

    def suggested_window(self, settle_factor: float = 8.0) -> float:
        """A time span that comfortably contains the whole transient."""
        last_event = max((m.t0 for m in self.models), default=0.0)
        tau = self.dominant_time_constant()
        if tau == 0.0:
            raise ApproximationError("waveform has no transient; no natural window")
        return last_event + settle_factor * tau

    def to_waveform(self, times=None, samples: int = _SCAN_SAMPLES) -> Waveform:
        """Sample into a :class:`~repro.waveform.Waveform`.  Without
        ``times`` the grid is ``samples`` points over
        :meth:`suggested_window`; the default is the crossing scan's grid."""
        if times is None:
            times = np.linspace(0.0, self.suggested_window(), samples)
        times = np.asarray(times, dtype=float)
        return Waveform(times, self.evaluate(times), self.name)

    def first_crossings(self, levels, scan: Waveform | None = None) -> list:
        """First crossing by the model itself (paper Sec. 5.3, Fig. 2) of
        each ``(level, rising)`` pair in ``levels``, with
        :meth:`Waveform.threshold_delay`'s contract per pair; a level the
        scan never crosses gives ``None``.

        One scan — ``scan``, by default :meth:`to_waveform`'s grid over
        :meth:`suggested_window` — brackets every level; zooms on the
        model narrow each bracket, and the crossing is interpolated there.
        Two crossings of a level inside one scan interval are missed."""
        if scan is None:
            scan = self.to_waveform()
        return [self._first_crossing(scan, level, rising) for level, rising in levels]

    def _first_crossing(self, scan: Waveform, level: float, rising) -> float | None:
        crossings = scan.crossings(level, rising)
        if not crossings:
            return None
        window, times, crossing = scan.t_stop, scan.times, crossings[0]
        while True:
            i = int(np.searchsorted(times, crossing, side="right")) - 1
            if times[1] - times[0] <= _CROSSING_TOLERANCE * window or times[i] == crossing:
                return crossing
            times = np.linspace(times[i], times[i + 1], _ZOOM_SAMPLES)
            zoomed = Waveform(times, self.evaluate(times), self.name)
            crossing = zoomed.threshold_delay(level, rising)

    def threshold_delay(self, level: float, rising: bool | None = None) -> float:
        """The one-level case of :meth:`first_crossings`; raises when the
        model never crosses ``level``."""
        scan = self.to_waveform()
        (crossing,) = self.first_crossings([(level, rising)], scan)
        if crossing is None:
            return scan.threshold_delay(level, rising)  # raises: never crosses
        return crossing

    @property
    def is_stable(self) -> bool:
        return all(model.is_stable for model in self.models)
