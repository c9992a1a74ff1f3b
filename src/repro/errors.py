"""Exception hierarchy for the AWEsim reproduction.

All exceptions raised by this package derive from :class:`ReproError` so
callers can catch everything from one root.  The hierarchy mirrors the
pipeline: circuit construction problems, analysis (matrix) problems, and
AWE approximation problems each have their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the package exception hierarchy."""


class CircuitError(ReproError):
    """A circuit is malformed or an element is invalid."""


class NetlistParseError(CircuitError):
    """A SPICE-style netlist deck could not be parsed.

    Attributes
    ----------
    line_number:
        1-based line number in the deck where the error occurred, or
        ``None`` when the error is not tied to one line.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class TopologyError(CircuitError):
    """The circuit topology violates a structural requirement.

    Raised, for example, when an RC-tree-only algorithm (tree walk Elmore
    delay) is applied to a circuit that is not an RC tree, or when a
    spanning tree cannot be built.
    """


class SingularCircuitError(ReproError):
    """The DC system is singular: no unique DC solution exists.

    The paper (Sec. III) requires the circuit to have a well-defined DC
    solution when capacitors are opened and inductors shorted.  Floating
    nodes (connected only through capacitors) or voltage-source loops
    trigger this error.
    """


class AnalysisError(ReproError):
    """A linear-analysis computation failed (DC, AC, or transient)."""


class ConvergenceError(AnalysisError):
    """The transient integrator could not meet its tolerance."""


class ApproximationError(ReproError):
    """The AWE approximation could not be constructed."""


class UnstableApproximationError(ApproximationError):
    """Moment matching produced a right-half-plane (unstable) pole.

    Section 3.3 of the paper: a low-order approximation of a nonmonotone
    response may have no stable solution; the remedy is to increase the
    approximation order.  :class:`~repro.core.driver.AweDriver` does this
    automatically; this error escapes only when the maximum order is
    reached without a stable model.
    """

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


class MomentMatrixError(ApproximationError):
    """The Hankel moment matrix is singular or too ill-conditioned.

    This is the failure mode that frequency scaling (paper Sec. 3.5) is
    designed to push out to higher orders; when it still occurs the
    requested order cannot be extracted from the available moments.
    """


class OrderLimitError(ApproximationError):
    """Automatic order escalation hit its cap without meeting the target."""


class BatchTimeoutError(ReproError):
    """A batch job exceeded its per-job wall-clock timeout.

    Raised inside a :class:`~repro.engine.batch.BatchEngine` worker and
    captured there into the job's failure record; it never aborts the
    batch as a whole.
    """


class StaError(ReproError):
    """A static-timing-analysis input or computation is invalid.

    Raised by :mod:`repro.sta` for malformed timing graphs (cycles,
    duplicate arcs, non-finite delays), design/library mismatches, and
    unsatisfiable analysis requests.  The service layer maps it to
    HTTP 400 when it occurs while parsing a ``POST /sta`` body.
    """
