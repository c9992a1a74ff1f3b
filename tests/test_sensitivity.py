"""Tests for delay sensitivities: adjoint vs closed form vs finite diff."""

import numpy as np
import pytest

from repro import Capacitor, Circuit, MnaSystem, Resistor
from repro.core.sensitivity import delay_sensitivities
from repro.errors import AnalysisError
from repro.papercircuits import fig4_rc_tree, fig9_grounded_resistor, random_rc_tree, rc_mesh
from repro.rctree import delay_gradient_by_node, elmore_delays


def finite_difference(circuit_factory, node, element, delta_rel=1e-6):
    """Central-difference dT/dx for one element value."""

    def delay_with(scale):
        circuit = circuit_factory()
        old = circuit[element]
        if hasattr(old, "resistance"):
            import dataclasses

            circuit.replace(dataclasses.replace(old, resistance=old.resistance * scale))
        else:
            import dataclasses

            circuit.replace(dataclasses.replace(old, capacitance=old.capacitance * scale))
        return delay_sensitivities(circuit, node, {"Vin": 5.0}).elmore_delay

    base = circuit_factory()[element]
    value = getattr(base, "resistance", None) or base.capacitance
    up = delay_with(1.0 + delta_rel)
    down = delay_with(1.0 - delta_rel)
    return (up - down) / (2.0 * delta_rel * value)


def loop_gradient(circuit, node, source_values):
    """Per-element reference for the vectorised gradient: one dense
    incidence vector and full-length dot products per element, on the
    same four solves."""
    system = MnaSystem(circuit)
    u = system.source_vector(source_values)
    row = system.index.node(node)
    x_inf = system.solve_augmented(system.B @ u)
    v1 = system.solve_augmented(system.C @ x_inf)
    swing, m0 = float(x_inf[row]), -float(v1[row])
    e_o = np.zeros(system.dimension)
    e_o[row] = 1.0
    a = system.solve_augmented(e_o, transpose=True)
    c = system.solve_augmented(np.asarray(system.C.T @ a).ravel(), transpose=True)
    d_r, d_c = {}, {}
    for element in circuit:
        w = np.zeros(system.dimension)
        for end, sign in ((element.positive, 1.0), (element.negative, -1.0)):
            if end != "0":
                w[system.index.node(end)] = sign
        if isinstance(element, Resistor):
            g2 = element.conductance ** 2
            dm0_dR = float((a @ w) * (w @ v1) + (c @ w) * (w @ x_inf)) * -g2
            dswing_dR = float(-(a @ w) * (w @ x_inf)) * -g2
            d_r[element.name] = -(dm0_dR * swing - m0 * dswing_dR) / (swing * swing)
        elif isinstance(element, Capacitor):
            d_c[element.name] = -float(-(a @ w) * (w @ x_inf)) / swing
    return d_r, d_c


class TestAgainstLoopReference:
    @pytest.mark.parametrize("factory, node", [
        (fig9_grounded_resistor, "4"),
        (lambda: random_rc_tree(200, seed=3), "200"),  # sparse backend
    ])
    def test_gathers_equal_the_per_element_loop(self, factory, node):
        # Each wᵀv dot has two nonzero terms, so the gathers reproduce it
        # bit for bit.
        sens = delay_sensitivities(factory(), node, {"Vin": 5.0})
        d_r, d_c = loop_gradient(factory(), node, {"Vin": 5.0})
        assert sens.d_resistance == d_r
        assert sens.d_capacitance == d_c


class TestAgainstClosedForm:
    def test_fig4_resistor_gradient(self):
        sens = delay_sensitivities(fig4_rc_tree(), "4", {"Vin": 5.0})
        d_r, d_c = delay_gradient_by_node(fig4_rc_tree(), "4")
        for name, expected in d_r.items():
            assert sens.d_resistance[name] == pytest.approx(expected, abs=1e-18)

    def test_fig4_capacitor_gradient(self):
        sens = delay_sensitivities(fig4_rc_tree(), "4", {"Vin": 5.0})
        _, d_c = delay_gradient_by_node(fig4_rc_tree(), "4")
        for name, expected in d_c.items():
            assert sens.d_capacitance[name] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("nodes, seed", [
        pytest.param(9, 5, id="5"),
        pytest.param(9, 21, id="21"),
        pytest.param(200, 3, id="sparse-200"),  # dimension 202: SuperLU
    ])
    def test_random_trees_agree(self, nodes, seed):
        circuit = random_rc_tree(nodes, seed=seed)
        assert MnaSystem(circuit).use_sparse == (nodes == 200)
        node = circuit.nodes[-1]
        sens = delay_sensitivities(circuit, node, {"Vin": 5.0})
        d_r, d_c = delay_gradient_by_node(circuit, node)
        for name in d_r:
            assert sens.d_resistance[name] == pytest.approx(d_r[name], rel=1e-9, abs=1e-20)
        for name in d_c:
            assert sens.d_capacitance[name] == pytest.approx(d_c[name], rel=1e-9, abs=1e-9)

    def test_closed_form_values_fig4(self):
        # Hand check on eq. 50: dT_D(4)/dR4 = C4; dT_D(4)/dC2 = R1.
        d_r, d_c = delay_gradient_by_node(fig4_rc_tree(), "4")
        assert d_r["R4"] == pytest.approx(0.1e-6)
        assert d_r["R1"] == pytest.approx(0.4e-6)  # all four caps
        assert d_r["R2"] == 0.0  # off-path
        assert d_c["C2"] == pytest.approx(1e3)  # shared path = R1
        assert d_c["C4"] == pytest.approx(3e3)  # R1+R3+R4


class TestAgainstFiniteDifference:
    @pytest.mark.parametrize("element", ["R1", "R4", "C2", "C4", "R5"])
    def test_grounded_resistor_circuit(self, element):
        # Fig. 9 is NOT a tree: the closed forms do not apply, the adjoint
        # must still be exact.
        sens = delay_sensitivities(fig9_grounded_resistor(), "4", {"Vin": 5.0})
        gradient = {**sens.d_resistance, **sens.d_capacitance}
        numeric = finite_difference(fig9_grounded_resistor, "4", element)
        assert gradient[element] == pytest.approx(numeric, rel=1e-4)

    @pytest.mark.parametrize("element", ["Rh0_0", "Rv0_1", "C1_1"])
    def test_mesh_circuit(self, element):
        factory = lambda: rc_mesh(2, 2)
        sens = delay_sensitivities(factory(), "n1_1", {"Vin": 5.0})
        gradient = {**sens.d_resistance, **sens.d_capacitance}
        numeric = finite_difference(factory, "n1_1", element)
        assert gradient[element] == pytest.approx(numeric, rel=1e-4)


class TestInterface:
    def test_elmore_matches_walk(self):
        sens = delay_sensitivities(fig4_rc_tree(), "4", {"Vin": 5.0})
        assert sens.elmore_delay == pytest.approx(elmore_delays(fig4_rc_tree())["4"])

    def test_scaled_gradient_and_ranking(self):
        sens = delay_sensitivities(fig4_rc_tree(), "4", {"Vin": 5.0})
        scaled = sens.scaled_gradient()
        # Sum over all elements of x·dT/dx = T_D (the delay is homogeneous
        # of degree 1 in the R's and degree 1 in the C's... each term RC ⇒
        # total homogeneity degree 2, split evenly).
        assert sum(scaled.values()) == pytest.approx(2 * sens.elmore_delay, rel=1e-9)
        top = sens.top_contributors(2)
        assert len(top) == 2
        assert abs(top[0][1]) >= abs(top[1][1])

    def test_existing_system_gives_the_standalone_answer(self):
        # Fig. 9 is not a tree; the shared system's four solves (two of
        # them transpose solves) reuse its one factorization.
        circuit = fig9_grounded_resistor()
        system = MnaSystem(circuit)
        shared = delay_sensitivities(circuit, "4", {"Vin": 5.0}, system=system)
        assert shared == delay_sensitivities(circuit, "4", {"Vin": 5.0})
        stats = system.stats.as_dict()
        assert stats["lu_factorizations"] == 1
        assert stats["triangular_solves"] == 4
        with pytest.raises(AnalysisError, match="system="):
            delay_sensitivities(fig9_grounded_resistor(), "4", system=system)

    def test_rejects_inductors(self, series_rlc):
        with pytest.raises(AnalysisError, match="R/C/V/I"):
            delay_sensitivities(series_rlc, "b", {"Vin": 5.0})

    def test_rejects_ground(self, single_rc):
        with pytest.raises(AnalysisError):
            delay_sensitivities(single_rc, "0", {"Vin": 5.0})

    def test_rejects_floating_groups(self, floating_node_circuit):
        with pytest.raises(AnalysisError, match="floating"):
            delay_sensitivities(floating_node_circuit, "1", {"Vin": 5.0})

    def test_gradient_positive_on_trees(self):
        # More resistance or capacitance can only slow an RC tree.
        circuit = random_rc_tree(8, seed=2)
        sens = delay_sensitivities(circuit, circuit.nodes[-1], {"Vin": 5.0})
        assert all(v >= -1e-20 for v in sens.d_resistance.values())
        assert all(v >= -1e-12 for v in sens.d_capacitance.values())
