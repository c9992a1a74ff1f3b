"""Every LU factorization scipy performs is one the counters report.

An analyzer factors two matrices: the charge-augmented ``G`` for the DC
and moment solves (``lu_factorizations``) and the bordered t = 0⁺ system
for ``x(0⁺)`` (``t0_factorizations``).  Both are built once per
:class:`~repro.analysis.mna.MnaSystem`, so the count does not grow with
the number of stimulus breakpoints.  A shifted transfer expansion
factors ``G + s₀C`` and counts it in ``lu_factorizations`` too; corners
and Monte Carlo pay one LU for their engine plus one per exact
evaluation.
"""

import pytest
import scipy.linalg
import scipy.sparse.linalg

from repro import AweAnalyzer, AweJob, BatchEngine, MnaSystem
from repro.analysis.sources import PWL, Step
from repro.core.transfer import transfer_moments
from repro.papercircuits import (
    fig4_rc_tree,
    fig25_rlc_ladder,
    random_rc_tree,
    rc_ladder,
)
from repro.sweep import SweepEngine, SweepPlan, SweepPoint
from repro.timing import delay_corners, delay_distribution, uniform_tolerances
from repro.trace import Tracer
from tests.test_sweep import count_factorizations

STEP = {"Vin": Step(0.0, 1.0)}


def reported(stats) -> int:
    return stats["lu_factorizations"] + stats["t0_factorizations"]


@pytest.mark.parametrize("circuit, node, sparse", [
    (fig25_rlc_ladder(), "3", False),
    (rc_ladder(200), "200", True),
], ids=["dense-rlc", "sparse-ladder"])
def test_analyzer_reports_every_factorization(circuit, node, sparse, monkeypatch):
    calls = count_factorizations(monkeypatch)
    analyzer = AweAnalyzer(circuit, STEP)
    analyzer.response(node, order=2)
    assert analyzer.system.use_sparse is sparse
    stats = analyzer.system.stats.as_dict()
    assert (stats["lu_factorizations"], stats["t0_factorizations"]) == (1, 1)
    assert reported(stats) == calls["lu"] == 2


def test_forced_dense_backend_keeps_a_large_border_sparse(monkeypatch):
    """A dense border would hold (dim + capacitors)² floats, 3.2 GB at
    10⁴ sections; above the sparse threshold it goes to SuperLU."""
    shapes = {}
    for module, name in ((scipy.linalg, "lu_factor"),
                         (scipy.sparse.linalg, "splu")):
        def recorded(matrix, *args, _name=name, _factor=getattr(module, name),
                     **kwargs):
            shapes[_name] = matrix.shape
            return _factor(matrix, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    analyzer = AweAnalyzer(rc_ladder(200), STEP, sparse=False)
    analyzer.response("200", order=2)
    assert shapes == {"lu_factor": (202, 202), "splu": (402, 402)}


def test_pwl_breakpoints_share_one_t0_factorization(monkeypatch):
    calls = count_factorizations(monkeypatch)
    points = [(0.0, 0.0)] + [(k * 1e-10, 0.1 * k + (k % 2)) for k in range(1, 12)]
    analyzer = AweAnalyzer(rc_ladder(200), {"Vin": PWL(points)})
    analyzer.response("200", order=2)
    assert analyzer.system.use_sparse
    assert len(analyzer.subproblems()) == 12
    stats = analyzer.system.stats.as_dict()
    assert stats["t0_factorizations"] == 1
    assert reported(stats) == calls["lu"] == 2


def test_batch_engine_reports_every_factorization(monkeypatch):
    calls = count_factorizations(monkeypatch)
    circuit, other = random_rc_tree(10, seed=7), random_rc_tree(10, seed=8)
    jobs = [AweJob(circuit, (str(n),), stimuli=STEP, order=2) for n in (4, 7)]
    jobs.append(AweJob(other, ("10",), stimuli=STEP, order=2))
    engine = BatchEngine()
    assert all(result.ok for result in engine.run(jobs))
    stats = engine.stats()
    assert stats["t0_factorizations"] == 2
    assert reported(stats) == calls["lu"] == 4


def test_sweep_engine_reports_every_factorization(monkeypatch):
    calls = count_factorizations(monkeypatch)
    circuit = random_rc_tree(12, seed=7)
    engine = SweepEngine(circuit, STEP)
    result = engine.evaluate(SweepPlan(node="5", points=(
        SweepPoint(element="C3", scale=1.1),
        SweepPoint(element="R2", scale=1.2),
        SweepPoint(element="R1", scale=1e10),  # forces one exact point
    )))
    extra = result.stats["factorizations"]
    assert extra == 1
    assert reported(engine.system.stats.as_dict()) + extra == calls["lu"]


def test_t0_factorization_has_its_own_span():
    tracer = Tracer("t0")
    AweAnalyzer(random_rc_tree(6, seed=3), STEP, tracer=tracer).response("6")

    def spans(record):
        yield record
        for child in record.get("children", ()):
            yield from spans(child)

    record = tracer.to_record()
    (t0,) = [s for s in spans(record) if s["name"] == "t0_lu"]
    assert t0["counters"]["t0_factorizations"] == 1
    assert "lu_factorizations" not in t0["counters"]
    (operating_points,) = [s for s in spans(record)
                           if s["name"] == "operating_points"]
    assert t0 in operating_points["children"]


@pytest.mark.parametrize("circuit, node, sparse", [
    (fig4_rc_tree(), "4", False),
    (rc_ladder(300), "300", True),
], ids=["dense-fig4", "sparse-ladder"])
def test_shifted_transfer_expansion_is_one_counted_lu(circuit, node, sparse,
                                                      monkeypatch):
    calls = count_factorizations(monkeypatch)
    system = MnaSystem(circuit)
    moments = transfer_moments(system, "Vin", node, 4, expansion_point=1e6)
    assert system.use_sparse is sparse
    assert all(moments != 0.0)
    assert system.stats.as_dict()["lu_factorizations"] == calls["lu"] == 1


def count_transpose_solves(monkeypatch) -> dict:
    """Count dense adjoint (``trans != 0``) substitutions from here on, at
    the LAPACK ``getrs`` call every dense solve makes."""
    calls = {"transpose": 0}

    def counted(lu, piv, rhs, trans=0, _getrs=scipy.linalg.lapack.dgetrs, **kwargs):
        calls["transpose"] += trans != 0
        return _getrs(lu, piv, rhs, trans=trans, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrs", counted)
    return calls


def test_corners_factor_once_per_exact_corner(monkeypatch):
    calls = count_factorizations(monkeypatch)
    adjoints = count_transpose_solves(monkeypatch)
    circuit = fig4_rc_tree()
    delay_corners(circuit, "4", uniform_tolerances(circuit, 0.1), {"Vin": 5.0})
    assert calls["lu"] == 3
    assert adjoints["transpose"] == 2  # one gradient, not one per corner


@pytest.mark.parametrize("method, lus", [("linear", 1), ("exact", 1 + 25)])
def test_monte_carlo_factors_once_per_exact_sample(method, lus, monkeypatch):
    calls = count_factorizations(monkeypatch)
    circuit = fig4_rc_tree()
    delay_distribution(circuit, "4", uniform_tolerances(circuit, 0.1),
                       samples=25, source_values={"Vin": 5.0}, method=method)
    assert calls["lu"] == lus
