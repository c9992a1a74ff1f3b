"""Unit and property tests for RC-chain pre-reduction (`repro.reduce`).

The conformance fuzzer (`reduction_equivalence`) already hammers the
moment-preservation invariant on random circuit families; this module
pins the structural contract: what collapses, what is left alone (taps,
pinned anchors, IC/floating-cap neighbourhoods), the no-op identity
guarantee the content-addressed cache depends on, and the batch engine's
one-reduced-circuit-per-job-group plumbing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AweAnalyzer, MnaSystem, Step
from repro.circuit.netlist import Circuit
from repro.core.transfer import transfer_moments
from repro.engine.batch import AweJob, BatchEngine
from repro.papercircuits import random_rc_tree, rc_ladder
from repro.reduce import reduce_circuit, reduction_summary

STIM = {"Vin": Step(0.0, 1.0)}


class TestStructure:
    def test_ladder_collapses_and_preserves_totals(self):
        circuit = rc_ladder(100)
        reduction = reduce_circuit(circuit, keep=("1", "100"))
        assert reduction.reduced
        assert reduction.reduced_node_count < reduction.original_node_count / 4
        # Chain anchors "1" and "100" are kept and unpinned, so both the
        # series resistance and the chain capacitance survive exactly.
        assert sum(r.resistance for r in reduction.circuit.resistors) == (
            pytest.approx(sum(r.resistance for r in circuit.resistors), rel=1e-12)
        )
        assert sum(c.capacitance for c in reduction.circuit.capacitors) == (
            pytest.approx(sum(c.capacitance for c in circuit.capacitors), rel=1e-12)
        )
        for node in ("1", "100"):
            assert node in reduction.circuit.nodes

    def test_sections_bound_interior_nodes(self):
        reduction = reduce_circuit(rc_ladder(100), keep=("100",))
        assert reduction.reduced
        assert all(len(chain.interior) <= 8 for chain in reduction.chains)
        # Custom section size is honoured too.
        coarse = reduce_circuit(rc_ladder(100), keep=("100",), max_section=25)
        assert all(len(chain.interior) <= 25 for chain in coarse.chains)
        assert coarse.reduced_node_count < reduction.reduced_node_count

    def test_max_section_validation(self):
        with pytest.raises(ValueError):
            reduce_circuit(rc_ladder(10), max_section=0)

    def test_noop_returns_the_same_object(self):
        circuit = rc_ladder(3)
        reduction = reduce_circuit(circuit, keep=("1", "2", "3"))
        assert not reduction.reduced
        assert reduction.circuit is circuit
        assert reduction.removed_nodes == ()

    def test_summary_shape(self):
        summary = reduction_summary(reduce_circuit(rc_ladder(50), keep=("50",)))
        assert set(summary) == {
            "reduced", "original_nodes", "reduced_nodes", "removed_nodes",
            "chains",
        }
        assert summary["reduced"] is True
        assert summary["original_nodes"] == 51


class TestSensitiveAnchors:
    """Chains must not collapse onto IC-carrying or floating-cap nodes —
    the re-homed cap would close a capacitive loop whose implied t = 0⁺
    voltage contradicts the new cap's implicit 0 V initial condition."""

    def test_ic_cap_anchor_blocks_the_chain(self):
        circuit = Circuit("ic anchor")
        circuit.add_voltage_source("Vin", "in", "0")
        previous = "in"
        for i in (1, 2, 3):
            circuit.add_resistor(f"R{i}", previous, str(i), 100.0)
            circuit.add_capacitor(f"C{i}", str(i), "0", 1e-13)
            previous = str(i)
        circuit.set_initial_voltage("C2", -2.0)
        reduction = reduce_circuit(circuit, keep=("3",))
        # Node 1 is the only interior candidate, but its chain is
        # anchored at node 2, which carries the IC cap: nothing moves.
        assert not reduction.reduced
        assert reduction.circuit is circuit
        # And the (un)reduced circuit analyses cleanly.
        response = AweAnalyzer(circuit, STIM).response("3")
        assert np.isfinite(response.delay_50())

    def test_floating_cap_anchor_blocks_the_chain(self):
        circuit = Circuit("floating anchor")
        circuit.add_voltage_source("Vin", "in", "0")
        previous = "in"
        for i, node in enumerate(("a", "b", "attach"), start=1):
            circuit.add_resistor(f"R{i}", previous, node, 100.0)
            circuit.add_capacitor(f"C{i}", node, "0", 1e-13)
            previous = node
        circuit.add_capacitor("Ccouple", "attach", "f", 5e-14)
        circuit.add_capacitor("Cfloat", "f", "0", 5e-14)
        reduction = reduce_circuit(circuit)
        assert not reduction.reduced
        assert reduction.circuit is circuit

    def test_chain_away_from_the_sensitive_node_still_collapses(self):
        circuit = Circuit("mixed")
        circuit.add_voltage_source("Vin", "in", "0")
        previous = "in"
        for i in range(1, 8):
            circuit.add_resistor(f"R{i}", previous, str(i), 100.0)
            circuit.add_capacitor(f"C{i}", str(i), "0", 1e-13)
            previous = str(i)
        circuit.set_initial_voltage("C7", 1.0)
        # Keeping node 4 splits the run: in..4 is clean and collapses;
        # 4..7 ends at the IC cap and must survive untouched.
        reduction = reduce_circuit(circuit, keep=("4",))
        assert reduction.reduced
        assert set(reduction.removed_nodes) == {"1", "2", "3"}
        for survivor in ("4", "5", "6", "7"):
            assert survivor in reduction.circuit.nodes


class TestMomentPreservation:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), nodes=st.integers(20, 90))
    def test_m0_and_m1_survive_on_random_trees(self, seed, nodes):
        circuit = random_rc_tree(nodes, seed=seed)
        tap = circuit.nodes[-1]
        reduction = reduce_circuit(circuit, keep=(tap,))
        if not reduction.reduced:
            return
        m_full = transfer_moments(MnaSystem(circuit), "Vin", tap, 2)
        m_reduced = transfer_moments(MnaSystem(reduction.circuit), "Vin", tap, 2)
        assert np.allclose(m_reduced, m_full, rtol=1e-9)


class TestCacheKeys:
    """The service cache must never conflate reduced and unreduced
    circuits — and must keep hitting when reduction was a no-op."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), nodes=st.integers(5, 60))
    def test_key_changes_exactly_when_the_circuit_does(self, seed, nodes):
        circuit = random_rc_tree(nodes, seed=seed)
        reduction = reduce_circuit(circuit, keep=(circuit.nodes[-1],))
        if reduction.reduced:
            assert reduction.circuit.canonical_key() != circuit.canonical_key()
        else:
            assert reduction.circuit is circuit
            assert reduction.circuit.canonical_key() == circuit.canonical_key()

    def test_noop_reduction_preserves_the_exact_key(self):
        circuit = rc_ladder(2)
        reduction = reduce_circuit(circuit, keep=("1", "2"))
        assert not reduction.reduced
        assert reduction.circuit.canonical_key(STIM) == circuit.canonical_key(STIM)


class TestBatchPlumbing:
    def test_jobs_sharing_a_circuit_share_one_reduced_copy(self):
        circuit = rc_ladder(60)
        other = rc_ladder(40)
        jobs = [
            AweJob(circuit, ("60",), stimuli=STIM, reduce=True),
            AweJob(circuit, ("30",), stimuli=STIM, reduce=True),
            AweJob(other, ("40",), stimuli=STIM),
        ]
        applied = BatchEngine._apply_reduction(jobs)
        assert applied[0].circuit is applied[1].circuit
        assert applied[0].circuit is not circuit
        assert not applied[0].reduce and not applied[1].reduce
        # The union of both jobs' taps survived in the shared copy.
        for tap in ("30", "60"):
            assert tap in applied[0].circuit.nodes
        # The non-reduced job is passed through untouched.
        assert applied[2] is jobs[2]

    def test_reduced_batch_matches_unreduced_delays(self):
        circuit = rc_ladder(80)
        jobs = [
            AweJob(circuit, ("80",), stimuli=STIM, order=3),
            AweJob(circuit, ("80",), stimuli=STIM, order=3, reduce=True),
        ]
        plain, reduced = BatchEngine().run(jobs)
        assert plain.ok and reduced.ok
        assert reduced.responses["80"].delay_50() == pytest.approx(
            plain.responses["80"].delay_50(), rel=0.01
        )


class TestServicePath:
    def test_reduce_true_analyze_matches_the_in_process_job(self):
        """The daemon reduces through the job's own ``reduce`` flag: a
        ``reduce: true`` /analyze answer is the document of
        ``AweJob(..., reduce=True)`` run in process, timings aside."""
        import json

        from repro import parse_netlist
        from repro.circuit.writer import write_netlist
        from repro.report import build_report
        from repro.service import AnalysisService
        from tests.test_server_core import answers

        text = write_netlist(rc_ladder(30), {"Vin": Step(0.0, 5.0)})
        deck = parse_netlist(text)
        documents = {}
        for reduce in (True, False):
            engine = BatchEngine()
            job = AweJob(deck.circuit, ("15",), stimuli=deck.stimuli,
                         label=deck.title or "deck", reduce=reduce)
            documents[reduce] = build_report(engine.run([job], trace=True),
                                             engine_stats=engine.stats())

        service = AnalysisService(workers=1).start()
        try:
            status, body, _ = service.submit(json.dumps(
                {"deck": text, "nodes": ["15"], "reduce": True}).encode())
        finally:
            service.close(timeout=60)

        assert status == 200, body
        assert answers(json.loads(body)) == answers(documents[True])
        assert answers(documents[True]) != answers(documents[False])


class TestMemoAliasingGuard:
    """A no-op reduction hands back the caller's own circuit; nothing on
    that path may lock or detach it."""

    def test_direct_reduce_circuit_noop_identity_is_preserved(self):
        circuit = rc_ladder(2)
        reduction = reduce_circuit(circuit, keep=("1", "2"))
        assert reduction.circuit is circuit
        # The caller's circuit stays mutable after the no-op reduction.
        before = circuit.canonical_key()
        circuit.add_capacitor("Cextra", "1", "0", 1e-15)
        assert circuit.canonical_key() != before
