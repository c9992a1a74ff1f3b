"""Sparse/dense backend parity straddling the SuperLU auto-selection
boundary (``MnaSystem`` dimension 192).

An ``rc_ladder(n)`` yields an MNA system of dimension ``n + 2`` (n
ladder nodes + the source node + the source's branch current), so
``n = 189, 190, 191`` lands exactly at dimensions 191, 192, and 193 —
one below, on, and one above the threshold.  At each dimension the
auto-picked backend must match the documented rule, the trace must
record the choice, and a forced sparse vs forced dense factorisation of
the *same* system must agree on ``solve_augmented`` and on the final
AWE waveform to tight tolerance — the backend is an implementation
detail, never an answer change.  The adjoint (``transpose=True``)
solve must match an explicitly transposed system on either backend
without a second factorisation.
"""

import numpy as np
import pytest

from repro import AweAnalyzer, MnaSystem, Step
from repro.analysis.mna import _SPARSE_THRESHOLD
from repro.core.transfer import transfer_moments
from repro.papercircuits import rc_ladder
from repro.reduce import reduce_circuit
from repro.trace import Tracer, iter_events

BOUNDARY_SECTIONS = (189, 190, 191)  # dims 191, 192, 193


@pytest.mark.parametrize("sections", BOUNDARY_SECTIONS)
def test_auto_selection_follows_the_documented_rule(sections):
    system = MnaSystem(rc_ladder(sections))
    dimension = system.index.dimension
    assert dimension == sections + 2
    assert system.use_sparse == (dimension >= _SPARSE_THRESHOLD)


@pytest.mark.parametrize("sections", BOUNDARY_SECTIONS)
def test_trace_records_the_chosen_backend(sections):
    tracer = Tracer(name="boundary")
    system = MnaSystem(rc_ladder(sections), tracer=tracer)
    events = [event for _, event in iter_events(tracer.to_record())
              if event["name"] == "backend_selected"]
    assert len(events) == 1
    data = events[0]["data"]
    assert data["backend"] == ("sparse" if system.use_sparse else "dense")
    assert data["dimension"] == sections + 2
    assert data["forced"] is False


@pytest.mark.parametrize("sections", BOUNDARY_SECTIONS)
def test_solve_augmented_parity_across_backends(sections):
    circuit = rc_ladder(sections)
    dense = MnaSystem(circuit, sparse=False)
    sparse = MnaSystem(circuit, sparse=True)
    assert dense.use_sparse is False and sparse.use_sparse is True

    rng = np.random.default_rng(sections)
    rhs = rng.standard_normal(dense.index.dimension)
    x_dense = dense.solve_augmented(rhs)
    x_sparse = sparse.solve_augmented(rhs)
    scale = np.max(np.abs(x_dense)) or 1.0
    assert np.max(np.abs(x_dense - x_sparse)) / scale < 1e-9

    # Matrix right-hand sides take the batched path in both backends.
    rhs_block = rng.standard_normal((dense.index.dimension, 3))
    x_dense = dense.solve_augmented(rhs_block)
    x_sparse = sparse.solve_augmented(rhs_block)
    scale = np.max(np.abs(x_dense)) or 1.0
    assert np.max(np.abs(x_dense - x_sparse)) / scale < 1e-9


@pytest.mark.parametrize("sections", BOUNDARY_SECTIONS)
def test_transpose_solve_reuses_the_factors(sections):
    circuit = rc_ladder(sections)
    # An RC ladder's G is symmetric; a VCCS makes G_augᵀ a different
    # system, so a solve that ignored the transpose would fail below.
    circuit.add_vccs("Gm", "1", "0", "2", "0", 1e-3)
    system = MnaSystem(circuit)
    G_aug_t = system.G_aug_dense.T
    assert not np.allclose(G_aug_t, system.G_aug_dense)

    rng = np.random.default_rng(sections)
    rhs = rng.standard_normal(system.index.dimension)
    block = rng.standard_normal((system.index.dimension, 3))
    np.testing.assert_allclose(system.solve_augmented(rhs, transpose=True),
                               np.linalg.solve(G_aug_t, rhs), rtol=1e-10)
    np.testing.assert_allclose(system.solve_augmented(block, transpose=True),
                               np.linalg.solve(G_aug_t, block), rtol=1e-10)
    stats = system.stats.as_dict()
    assert stats["lu_factorizations"] == 1
    assert stats["triangular_solves"] == 2
    assert stats["solve_columns"] == 1 + 3


@pytest.mark.parametrize("sections", BOUNDARY_SECTIONS)
def test_reduced_parity_straddling_the_threshold(sections):
    """Pre-reduction composes with either backend at the boundary dims.

    The reduced ladder drops far below the threshold (so it runs dense)
    while the unreduced one straddles it — the comparison therefore
    crosses both the reduction and the backend fork.  DC gain and the
    Elmore moment must survive exactly; the waveform and delay to the
    documented uniform-chain bound.
    """
    circuit = rc_ladder(sections)
    stimuli = {"Vin": Step(0.0, 1.0)}
    node = str(sections)
    reduction = reduce_circuit(circuit, keep=(node,))
    assert reduction.reduced
    assert reduction.reduced_node_count < reduction.original_node_count / 4

    m_full = transfer_moments(MnaSystem(circuit), "Vin", node, 2)
    m_reduced = transfer_moments(MnaSystem(reduction.circuit), "Vin", node, 2)
    assert np.allclose(m_reduced, m_full, rtol=1e-9)

    for forced in (False, True):
        base = AweAnalyzer(circuit, stimuli, sparse=forced).response(node)
        reduced = AweAnalyzer(reduction.circuit, stimuli).response(node)
        times = np.linspace(0.0, base.waveform.suggested_window(), 400)
        v_base = base.waveform.evaluate(times)
        v_reduced = reduced.waveform.evaluate(times)
        swing = np.max(np.abs(v_base))
        assert np.max(np.abs(v_reduced - v_base)) < 0.02 * swing
        assert reduced.delay_50() == pytest.approx(base.delay_50(), rel=0.01)


def test_awe_waveform_parity_at_the_threshold_dimension():
    # sections=190 is dimension 192: the first auto-sparse system.
    circuit = rc_ladder(190)
    stimuli = {"Vin": Step(0.0, 1.0)}
    node = "190"
    dense = AweAnalyzer(circuit, stimuli, sparse=False).response(node)
    sparse = AweAnalyzer(circuit, stimuli, sparse=True).response(node)
    times = np.linspace(0.0, dense.waveform.suggested_window(), 400)
    v_dense = dense.waveform.evaluate(times)
    v_sparse = sparse.waveform.evaluate(times)
    assert np.max(np.abs(v_dense - v_sparse)) < 1e-6 * np.max(np.abs(v_dense))
    # Same model order and delay on both sides of the fork.
    assert dense.order == sparse.order
    assert dense.delay_50() == pytest.approx(sparse.delay_50(), rel=1e-9)
