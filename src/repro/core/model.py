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

Models evaluate a term with real pole and residue in float64 and every
other term with complex arithmetic, and return real values; conjugate pole
pairs produced by the Padé stage make the imaginary parts cancel, which
:func:`repro.analysis.poles._realise`-style checks enforce.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from repro.errors import ApproximationError
from repro.waveform import Waveform

#: A transient term: (pole, power, residue) — see solve_residues().
Term = tuple[complex, int, complex]

#: Sample count of the bracketing scan, and the step (relative to the
#: window) at which the polish of a bracketed crossing stops.
_SCAN_SAMPLES, _CROSSING_TOLERANCE = 4000, 1e-12


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
        total, imag = np.zeros(tau.shape), np.zeros(tau.shape)
        for pole, power, residue in self.terms:
            real = pole.imag == 0.0 and residue.imag == 0.0
            if real:
                term = residue.real * np.exp(pole.real * tau)
            else:
                term = residue * np.exp(pole * tau)
            if power > 1:
                term = term * tau ** (power - 1) / math.factorial(power - 1)
            total += term.real
            if not real:
                imag += term.imag
        imag_scale = np.abs(imag).max(initial=0.0)
        real_scale = np.abs(total).max(initial=0.0)
        if imag_scale > 1e-6 * max(real_scale, 1e-300) and imag_scale > 1e-12:
            raise ApproximationError(
                "pole/residue model evaluates to a complex waveform; "
                "conjugate pairing was broken upstream"
            )
        return total

    def evaluate(self, t) -> np.ndarray:
        """Model value at absolute time(s) ``t``; zero before ``t0``."""
        t = np.asarray(t, dtype=float)
        tau = t - self.t0
        active = tau >= 0.0
        if active.all():
            return np.asarray(self.offset + self.slope * tau + self.transient_at(tau))
        values = np.zeros(t.shape)
        if active.any():
            tau = tau[active]
            values[active] = self.offset + self.slope * tau + self.transient_at(tau)
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
        :meth:`suggested_window` — brackets every level with
        :meth:`Waveform.crossings`' rules; the crossing is then solved on
        the closed-form model inside its bracket, by safeguarded Newton
        steps on the model's value and slope.  Two crossings of a level
        inside one scan interval are missed."""
        if scan is None:
            scan = self.to_waveform()
        form = self._scalar_form()
        return [self._first_crossing(scan, form, level, rising)
                for level, rising in levels]

    def _scalar_form(self) -> list:
        """Each model as ``(t0, offset, slope, terms)`` in plain Python
        numbers, a term being ``(exp, pole, power − 1, residue/(power − 1)!)``
        with float pole and residue and ``math.exp`` where both are real."""
        form = []
        for model in self.models:
            terms = []
            for pole, power, residue in model.terms:
                weight = complex(residue) / math.factorial(power - 1)
                if pole.imag == 0.0 and weight.imag == 0.0:
                    terms.append((math.exp, float(pole.real), power - 1, weight.real))
                else:
                    terms.append((cmath.exp, complex(pole), power - 1, weight))
            form.append((float(model.t0), float(model.offset), float(model.slope),
                         terms))
        return form

    def _first_crossing(self, scan: Waveform, form, level: float, rising) -> float | None:
        crossings = scan.crossings(level, rising)
        if not crossings:
            return None
        times, crossing = scan.times, crossings[0]
        i = int(np.searchsorted(times, crossing, side="right")) - 1
        if times[i] == crossing:  # an exact hit on a sample
            return crossing
        sign = 1.0 if scan.values[i + 1] > scan.values[i] else -1.0
        return _polish(form, self.baseline - level, sign, float(times[i]),
                       float(times[i + 1]), crossing, _CROSSING_TOLERANCE * scan.t_stop)

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


def _value_and_slope(form, t: float) -> tuple[float, float]:
    """The summed models' value and time derivative at one time ``t``,
    from :meth:`AweWaveform._scalar_form`."""
    value = slope = 0.0
    for t0, offset, ramp, terms in form:
        tau = t - t0
        if tau < 0.0:
            continue
        value += offset + ramp * tau
        slope += ramp
        for exp, pole, degree, weight in terms:
            term = weight * exp(pole * tau)
            if degree:
                power = tau ** (degree - 1)
                value += (term * power * tau).real
                slope += (term * power * (degree + pole * tau)).real
            else:
                value += term.real
                slope += (pole * term).real
    return value, slope


def _polish(form, shift: float, sign: float, lo: float, hi: float, x: float,
            tolerance: float) -> float:
    """Solve ``v(t) + shift = 0`` inside the bracket ``(lo, hi)``, where
    ``sign·(v + shift)`` is negative at ``lo`` and positive at ``hi``, by
    Newton's method from ``x``.  A step that leaves the bracket, or is not
    under half the step before it, becomes a bisection; the iteration
    stops once a step is at most ``tolerance``."""
    step = hi - lo
    while True:
        try:
            value, slope = _value_and_slope(form, x)
            f, df = sign * (value + shift), sign * slope
        except OverflowError:  # a growing term past float range: hi's side
            f, df = math.inf, math.nan
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        if abs(2.0 * f) < abs(step * df) and lo <= x - f / df <= hi:
            step = f / df
        else:
            step = x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= tolerance:
            return x
