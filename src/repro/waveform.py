"""Sampled waveforms and the delay/error metrics computed on them.

Timing analysis ultimately asks questions *of waveforms*: when does the
output cross 50 % of its swing (the classic delay definition, paper
Fig. 2), when does it cross a logic threshold (Sec. 5.3 uses 4.0 V), how
large is the overshoot of an underdamped RLC response (Fig. 26), and how
far apart are two waveforms in the L2 sense (the accuracy measure of
Sec. 3.4, eq. 35).  :class:`Waveform` is the shared currency between the
exact reference simulator, the trapezoidal simulator, and the evaluated
AWE models.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class Waveform:
    """A scalar signal sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise AnalysisError("waveform times and values must be equal-length 1-D arrays")
        if len(times) < 2:
            raise AnalysisError("a waveform needs at least two samples")
        if not np.all(np.diff(times) > 0):
            raise AnalysisError("waveform time grid must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_stop(self) -> float:
        return float(self.times[-1])

    @property
    def initial(self) -> float:
        return float(self.values[0])

    @property
    def final(self) -> float:
        return float(self.values[-1])

    def __call__(self, t) -> np.ndarray:
        """Linear interpolation (clamped at the ends)."""
        return np.interp(np.asarray(t, dtype=float), self.times, self.values)

    # -- algebra ----------------------------------------------------------

    def resampled(self, times: np.ndarray) -> "Waveform":
        """This waveform linearly interpolated onto a new grid."""
        times = np.asarray(times, dtype=float)
        return Waveform(times, self(times), self.name)

    def _binary(self, other, op, name: str) -> "Waveform":
        if isinstance(other, Waveform):
            other_values = other(self.times)
        else:
            other_values = np.asarray(other, dtype=float)
        return Waveform(self.times, op(self.values, other_values), name)

    def __add__(self, other):
        return self._binary(other, np.add, self.name)

    def __sub__(self, other):
        return self._binary(other, np.subtract, self.name)

    def __mul__(self, scalar):
        return Waveform(self.times, self.values * float(scalar), self.name)

    __rmul__ = __mul__

    def __neg__(self):
        return Waveform(self.times, -self.values, self.name)

    def shifted(self, dt: float) -> "Waveform":
        """The same signal delayed by ``dt`` (time axis moved right)."""
        return Waveform(self.times + dt, self.values, self.name)

    def renamed(self, name: str) -> "Waveform":
        return dataclasses.replace(self, name=name)

    # -- timing metrics ----------------------------------------------------

    def crossings(self, level: float, rising: bool | None = None) -> list[float]:
        """All times at which the waveform crosses ``level``.

        ``rising=True``/``False`` filters by direction; ``None`` keeps both.
        Linear interpolation between samples; exact-on-sample hits count.
        Nonmonotone waveforms (charge sharing, RLC ringing) naturally return
        several crossings.
        """
        v = self.values - level
        a, b = v[:-1], v[1:]
        hit = a == 0.0
        through = ((a < 0) & (0 < b)) | ((b < 0) & (0 < a))
        if rising is not None:
            hit &= (b > 0) == rising
            through &= (b > a) == rising
        keep = np.flatnonzero(hit | through)
        a, b, start = a[keep], b[keep], self.times[keep]
        with np.errstate(all="ignore"):
            t_cross = start + (self.times[keep + 1] - start) * (-a) / (b - a)
        crossings = np.where(through[keep], t_cross, start).tolist()
        if v[-1] == 0.0 and (rising is None):
            crossings.append(float(self.times[-1]))
        return crossings

    def threshold_delay(self, level: float, rising: bool | None = None) -> float:
        """First crossing of ``level`` — the logic-threshold delay of
        Sec. 5.3.  Raises when the waveform never reaches the level."""
        crossings = self.crossings(level, rising)
        if not crossings:
            raise AnalysisError(
                f"waveform {self.name!r} never crosses {level} "
                f"(range {self.values.min():g} .. {self.values.max():g})"
            )
        return crossings[0]

    def delay_50(self, v_start: float | None = None, v_end: float | None = None) -> float:
        """Time to reach 50 % of the transition (paper Fig. 2).

        The swing defaults to initial → final sample values; pass the
        intended levels explicitly for waveforms that have not settled.
        """
        v0 = self.initial if v_start is None else v_start
        v1 = self.final if v_end is None else v_end
        if v0 == v1:
            raise AnalysisError("zero voltage swing; 50% delay undefined")
        return self.threshold_delay(0.5 * (v0 + v1), rising=v1 > v0)

    def rise_time(self, low: float = 0.1, high: float = 0.9) -> float:
        """10–90 % (by default) transition time of the first swing."""
        v0, v1 = self.initial, self.final
        if v0 == v1:
            raise AnalysisError("zero voltage swing; rise time undefined")
        t_low = self.threshold_delay(v0 + low * (v1 - v0), rising=v1 > v0)
        t_high = self.threshold_delay(v0 + high * (v1 - v0), rising=v1 > v0)
        return t_high - t_low

    def overshoot(self) -> float:
        """Peak excursion beyond the final value, as a fraction of the
        swing (0 for monotone settling; > 0 for RLC ringing, Fig. 26)."""
        swing = self.final - self.initial
        if swing == 0:
            raise AnalysisError("zero voltage swing; overshoot undefined")
        if swing > 0:
            peak = self.values.max() - self.final
        else:
            peak = self.final - self.values.min()
        return max(0.0, float(peak / abs(swing)))

    def is_monotone(self, tolerance: float = 0.0) -> bool:
        """True when the samples never back up by more than ``tolerance``
        times the total swing (RC trees with equilibrium ICs are monotone;
        charge sharing and inductance break this, paper Sec. III)."""
        diffs = np.diff(self.values)
        swing = abs(self.final - self.initial)
        slack = tolerance * swing
        return bool(np.all(diffs >= -slack) or np.all(diffs <= slack))

    # -- integrals ---------------------------------------------------------

    def integral(self) -> float:
        """Trapezoidal ∫ v dt over the sampled span."""
        return float(np.trapezoid(self.values, self.times))

    def settled_area(self, final: float | None = None) -> float:
        """∫ (v(∞) − v(t)) dt — the quantity whose scaled version is the
        grounded-resistor Elmore delay, paper eq. 3."""
        v_inf = self.final if final is None else final
        return float(np.trapezoid(v_inf - self.values, self.times))


def l2_error(reference: Waveform, approximation: Waveform, relative: bool = True) -> float:
    """The paper's accuracy measure (Sec. 3.4, eqs. 35/37).

    ``sqrt(∫ (ref − approx)² dt)``, normalised — as the paper normalises —
    by ``sqrt(∫ ref_transient² dt)`` where the *transient* is the reference
    minus its final value (the error expressions of eqs. 39–45 integrate
    pure decaying exponentials, i.e. the transient part of the response).
    Both waveforms are compared on the union grid of their samples.
    """
    times = np.union1d(reference.times, approximation.times)
    times = times[(times >= max(reference.t_start, approximation.t_start))
                  & (times <= min(reference.t_stop, approximation.t_stop))]
    if len(times) < 2:
        raise AnalysisError("waveforms do not overlap in time")
    diff = reference(times) - approximation(times)
    error = np.sqrt(np.trapezoid(diff * diff, times))
    if not relative:
        return float(error)
    transient = reference(times) - reference.values[-1]
    norm = np.sqrt(np.trapezoid(transient * transient, times))
    if norm == 0.0:
        raise AnalysisError("reference waveform has no transient; relative error undefined")
    return float(error / norm)


def superpose(waveforms: list[Waveform], times: np.ndarray, name: str = "") -> Waveform:
    """Sum waveforms (each treated as 0 before its own start) on ``times`` —
    the ramp-superposition evaluation of paper Fig. 13."""
    times = np.asarray(times, dtype=float)
    total = np.zeros_like(times)
    for waveform in waveforms:
        contribution = np.where(times >= waveform.t_start, waveform(times), 0.0)
        total += contribution
    return Waveform(times, total, name)
