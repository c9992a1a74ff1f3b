"""Monte Carlo delay variation: exact resampling vs the gradient shortcut.

Complements :mod:`repro.timing.corners` with distributional information:
element values are sampled uniformly within their tolerances and the
first-moment delay recomputed.  Two estimators:

* ``method="exact"`` — re-stamp each sample's element values on the
  :class:`~repro.sweep.SweepEngine` and recompute the from-rest first
  moment; cost one LU per sample.
* ``method="linear"`` — the engine's adjoint gradient, then every sample
  is a dot product: ``T ≈ T₀ + Σ (x·∂T/∂x)·δᵢ``.  Thousands of samples for
  free; accurate while tolerances stay in the first-order regime (the
  tests quantify the agreement).

The sampled statistics also validate the corner analysis: every sample
must fall inside the constructed fast/slow corner delays.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.timing.corners import variational_engine


@dataclasses.dataclass(frozen=True)
class MonteCarloReport:
    """Sampled delay distribution."""

    node: str
    nominal: float
    samples: np.ndarray
    method: str

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std(self) -> float:
        return float(self.samples.std())

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.samples, q))

    @property
    def worst(self) -> float:
        return float(self.samples.max())

    @property
    def best(self) -> float:
        return float(self.samples.min())


def delay_distribution(
    circuit: Circuit,
    node: str | int,
    tolerances: dict[str, float],
    samples: int = 500,
    seed: int = 0,
    source_values: dict[str, float] | None = None,
    method: str = "linear",
) -> MonteCarloReport:
    """Sample the first-moment delay under uniform element variation.

    Tolerances and ``source_values`` mean what they mean for
    :func:`~repro.timing.corners.delay_corners`.
    """
    if method not in ("linear", "exact"):
        raise AnalysisError(f"unknown Monte Carlo method {method!r}")
    if samples < 1:
        raise AnalysisError("need at least one sample")
    engine, sens = variational_engine(circuit, node, tolerances, source_values)

    rng = np.random.default_rng(seed)
    names = sorted(tolerances)
    tols = np.array([tolerances[n] for n in names])
    deltas = rng.uniform(-1.0, 1.0, size=(samples, len(names))) * tols

    if method == "linear":
        scaled = sens.scaled_gradient()
        weights = np.array([scaled[n] for n in names])
        values = sens.elmore_delay + deltas @ weights
    else:
        base = np.array([sens.element_values[n] for n in names])
        values = np.array([
            engine.restamp(dict(zip(names, base * (1.0 + delta))), sens.node)[2]
            for delta in deltas
        ])
    return MonteCarloReport(sens.node, sens.elmore_delay, values, method)
