"""AWEsim reproduction — Asymptotic Waveform Evaluation for timing analysis.

A from-scratch Python implementation of

    L. T. Pillage and R. A. Rohrer, "Asymptotic Waveform Evaluation for
    Timing Analysis" (DAC 1989 / IEEE TCAD vol. 9 no. 4, 1990),

together with every substrate the paper relies on: circuit netlists and a
SPICE-deck parser, MNA-based DC/transient analysis (the SPICE stand-in),
exact pole/modal references, the classical RC-tree delay methods AWE
generalises (Elmore, Penfield–Rubinstein, two-pole, tree/link analysis),
and a stage-based timing-analyzer application layer.

Quickstart::

    from repro import Circuit, Step, AweAnalyzer

    ckt = Circuit("rc line")
    ckt.add_voltage_source("Vin", "in", "0")
    ckt.add_resistor("R1", "in", "1", 1e3)
    ckt.add_capacitor("C1", "1", "0", 1e-12)

    analyzer = AweAnalyzer(ckt, {"Vin": Step(0.0, 5.0)})
    response = analyzer.response("1", order=1)
    print(response.poles, response.delay(threshold=2.5))
"""

from repro.analysis import (
    DC,
    PWL,
    MnaSystem,
    Pulse,
    Ramp,
    Step,
    Stimulus,
    circuit_poles,
    simulate,
)
from repro.circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
    parse_netlist,
    parse_netlist_file,
)
from repro.core import (
    AweAnalyzer,
    AweResponse,
    AweWaveform,
    PoleResidueModel,
    awe_response,
)
from repro.engine import AweJob, BatchEngine, BatchResult
from repro.errors import (
    AnalysisError,
    ApproximationError,
    BatchTimeoutError,
    CircuitError,
    MomentMatrixError,
    NetlistParseError,
    OrderLimitError,
    ReproError,
    SingularCircuitError,
    StaError,
    TopologyError,
    UnstableApproximationError,
)
from repro.instrumentation import SolverStats
from repro.reduce import Reduction, reduce_circuit
from repro.report import (
    build_report,
    build_sta_report,
    render_markdown,
    render_sta_markdown,
    validate_report,
    validate_sta_report,
)
from repro.service import AnalysisClient, AnalysisService, ResultCache, ServiceServer
from repro.sta import (
    CellLibrary,
    Corner,
    Design,
    StaRun,
    TimingGraph,
    analyze,
    build_timing_graph,
    default_library,
    report_top_k_critical_paths,
    run_sta,
)
from repro.sweep import SweepEngine, SweepPlan, SweepPoint, SweepResult, sweep
from repro.trace import NULL_TRACER, Tracer
from repro.waveform import Waveform, l2_error

__version__ = "1.0.0"

__all__ = [
    "AnalysisClient",
    "AnalysisError",
    "AnalysisService",
    "ApproximationError",
    "AweAnalyzer",
    "AweJob",
    "AweResponse",
    "AweWaveform",
    "BatchEngine",
    "BatchResult",
    "BatchTimeoutError",
    "Capacitor",
    "CellLibrary",
    "Circuit",
    "CircuitError",
    "Corner",
    "CurrentSource",
    "DC",
    "Design",
    "Inductor",
    "MnaSystem",
    "MomentMatrixError",
    "NULL_TRACER",
    "NetlistParseError",
    "OrderLimitError",
    "PWL",
    "PoleResidueModel",
    "Pulse",
    "Ramp",
    "Reduction",
    "ReproError",
    "Resistor",
    "ResultCache",
    "ServiceServer",
    "SingularCircuitError",
    "SolverStats",
    "StaError",
    "StaRun",
    "Step",
    "Stimulus",
    "SweepEngine",
    "SweepPlan",
    "SweepPoint",
    "SweepResult",
    "TimingGraph",
    "TopologyError",
    "Tracer",
    "UnstableApproximationError",
    "VoltageSource",
    "Waveform",
    "analyze",
    "awe_response",
    "build_report",
    "build_sta_report",
    "build_timing_graph",
    "circuit_poles",
    "default_library",
    "l2_error",
    "parse_netlist",
    "parse_netlist_file",
    "reduce_circuit",
    "render_markdown",
    "render_sta_markdown",
    "report_top_k_critical_paths",
    "run_sta",
    "simulate",
    "sweep",
    "validate_report",
    "validate_sta_report",
    "__version__",
]
