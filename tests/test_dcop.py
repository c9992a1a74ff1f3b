"""Tests for DC operating points and t = 0⁺ initial-condition solves."""

import numpy as np
import pytest

from repro import Circuit, MnaSystem, Step
from repro.analysis.dcop import (
    StorageState,
    dc_operating_point,
    equilibrium_storage_state,
    final_operating_point,
    initial_operating_point,
    resolve_initial_storage_state,
    storage_state_from_mna,
)
from repro.errors import AnalysisError, SingularCircuitError
from tests.strategies import L2_BOUND, awe_vs_transient_l2


class TestDcOperatingPoint:
    def test_caps_open_at_dc(self, single_rc):
        system = MnaSystem(single_rc)
        x = dc_operating_point(system, {"Vin": 5.0})
        assert x[system.index.node("1")] == pytest.approx(5.0)
        assert x[system.index.current("Vin")] == pytest.approx(0.0)

    def test_inductors_short_at_dc(self, series_rlc):
        system = MnaSystem(series_rlc)
        x = dc_operating_point(system, {"Vin": 5.0})
        assert x[system.index.node("a")] == pytest.approx(5.0)
        assert x[system.index.node("b")] == pytest.approx(5.0)

    def test_grounded_resistor_divider(self):
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0")
        ckt.add_resistor("R1", "a", "b", 3.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        ckt.add_capacitor("C1", "b", "0", 1e-12)
        system = MnaSystem(ckt)
        x = dc_operating_point(system, {"V": 8.0})
        assert x[system.index.node("b")] == pytest.approx(2.0)

    def test_floating_group_with_charge(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        x = dc_operating_point(system, {"Vin": 5.0}, group_charges=np.array([0.0]))
        assert x[system.index.node("f")] == pytest.approx(1.0)

    def test_current_into_floating_group_rejected(self):
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0", 1.0)
        ckt.add_resistor("R", "a", "0", 1.0)
        ckt.add_capacitor("C1", "f", "0", 1e-12)
        ckt.add_current_source("I1", "a", "f", 1e-3)
        system = MnaSystem(ckt)
        with pytest.raises(AnalysisError, match="floating"):
            dc_operating_point(system, {"V": 1.0, "I1": 1e-3})


class TestStorageState:
    def test_equilibrium_state(self, rc_ladder3):
        system = MnaSystem(rc_ladder3)
        state = equilibrium_storage_state(system, {"Vin": 5.0})
        assert all(v == pytest.approx(5.0) for v in state.capacitor_voltages.values())

    def test_storage_state_from_mna_roundtrip(self, series_rlc):
        system = MnaSystem(series_rlc)
        x = dc_operating_point(system, {"Vin": 5.0})
        state = storage_state_from_mna(system, x)
        assert state.capacitor_voltages["C1"] == pytest.approx(5.0)
        assert state.inductor_currents["L1"] == pytest.approx(0.0)

    def test_explicit_ic_overrides_equilibrium(self, charge_share_pair):
        system = MnaSystem(charge_share_pair)
        state = resolve_initial_storage_state(system, {"Vin": 0.0})
        assert state.capacitor_voltages["C2"] == pytest.approx(5.0)
        assert state.capacitor_voltages["C1"] == pytest.approx(0.0)

    def test_fully_specified_skips_equilibrium(self):
        # Both caps have explicit ICs: no pre-switching solve is needed.
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0")
        ckt.add_resistor("R", "a", "b", 1.0)
        ckt.add_capacitor("C1", "b", "0", 1e-12, initial_voltage=1.5)
        ckt.add_capacitor("C2", "b", "c", 1e-12, initial_voltage=0.5)
        ckt.add_resistor("R2", "c", "0", 1.0)
        system = MnaSystem(ckt)
        state = resolve_initial_storage_state(system, {"V": 0.0})
        assert state.capacitor_voltages == {"C1": 1.5, "C2": 0.5}


class TestInitialOperatingPoint:
    def test_cap_voltages_enforced(self, charge_share_pair):
        system = MnaSystem(charge_share_pair)
        state = resolve_initial_storage_state(system, {"Vin": 0.0})
        x0 = initial_operating_point(charge_share_pair, system, state, {"Vin": 0.0})
        assert x0[system.index.node("2")] == pytest.approx(5.0)
        assert x0[system.index.node("1")] == pytest.approx(0.0)

    def test_resistive_node_jumps_with_input(self):
        # A purely resistive node follows the source instantaneously.
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0")
        ckt.add_resistor("R1", "a", "b", 1.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        ckt.add_capacitor("C1", "c", "0", 1e-12)
        ckt.add_resistor("R3", "b", "c", 1.0)
        system = MnaSystem(ckt)
        state = StorageState({"C1": 0.0}, {})
        x0 = initial_operating_point(ckt, system, state, {"V": 6.0})
        # c pinned at 0 by its cap; b is the R1/(R2||R3) divider node.
        assert x0[system.index.node("c")] == pytest.approx(0.0)
        # b sees R1 to 6 V and R2 ∥ R3 (both to 0 V, c being pinned):
        # v_b = 6 · 0.5 / (1 + 0.5) = 2 V.
        assert x0[system.index.node("b")] == pytest.approx(2.0)

    def test_inductor_current_preserved(self, series_rlc):
        system = MnaSystem(series_rlc)
        state = StorageState({"C1": 0.0}, {"L1": 2e-3})
        x0 = initial_operating_point(series_rlc, system, state, {"Vin": 0.0})
        assert x0[system.index.current("L1")] == pytest.approx(2e-3)
        # The 2 mA flows out of node a through R1 from the source at 0 V.
        assert x0[system.index.node("a")] == pytest.approx(-2e-3 * 10.0)

    def test_rates_single_rc(self, single_rc):
        system = MnaSystem(single_rc)
        state = StorageState({"C1": 0.0}, {})
        x0, rates = initial_operating_point(
            single_rc, system, state, {"Vin": 5.0}, with_rates=True
        )
        # dV/dt at t=0+ is I/C = (5/1k)/1p = 5e9 V/s.
        assert rates.capacitor_voltage_rates["C1"] == pytest.approx(5e9)

    def test_rates_unavailable_with_cap_loops(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        state = resolve_initial_storage_state(system, {"Vin": 0.0})
        result = initial_operating_point(
            floating_node_circuit, system, state, {"Vin": 0.0}, with_rates=True
        )
        x0, rates = result
        assert rates is None

    def test_inconsistent_loop_ics_rejected(self, floating_node_circuit):
        circuit = floating_node_circuit
        circuit.set_initial_voltage("C1", 0.0)
        circuit.set_initial_voltage("Cc", 3.0)   # implies v_f = -3
        circuit.set_initial_voltage("Cf", 2.0)   # contradicts: v_f = 2
        system = MnaSystem(circuit)
        state = resolve_initial_storage_state(system, {"Vin": 0.0})
        with pytest.raises(AnalysisError, match="contradicts"):
            initial_operating_point(circuit, system, state, {"Vin": 0.0})

    def test_inductor_rates(self, series_rlc):
        system = MnaSystem(series_rlc)
        state = StorageState({"C1": 0.0}, {"L1": 0.0})
        x0, rates = initial_operating_point(
            series_rlc, system, state, {"Vin": 5.0}, with_rates=True
        )
        # dI/dt = V_L/L with the full 5 V across the inductor at t=0+.
        assert rates.inductor_current_rates["L1"] == pytest.approx(5.0 / 10e-9)


class TestFinalOperatingPoint:
    def test_simple_final(self, rc_ladder3):
        system = MnaSystem(rc_ladder3)
        x = final_operating_point(system, {"Vin": 5.0})
        assert x[system.index.node("3")] == pytest.approx(5.0)

    def test_floating_needs_initial_state(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        with pytest.raises(AnalysisError, match="trapped charge"):
            final_operating_point(system, {"Vin": 5.0})

    def test_floating_final_conserves_charge(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        state = resolve_initial_storage_state(system, {"Vin": 0.0})
        x0 = initial_operating_point(floating_node_circuit, system, state, {"Vin": 5.0})
        x_final = final_operating_point(system, {"Vin": 5.0}, x0)
        assert x_final[system.index.node("f")] == pytest.approx(1.0)
        np.testing.assert_allclose(system.group_charge(x_final), system.group_charge(x0),
                                   atol=1e-24)


def inductor_controlled_circuit() -> Circuit:
    """A CCVS and a CCCS read L1's current; L1 starts at 2 mA while the
    capacitors start discharged, so nothing sits at equilibrium."""
    ckt = Circuit("inductor-controlled sources")
    ckt.add_voltage_source("Vin", "in", "0", dc=1.0)
    ckt.add_resistor("R1", "in", "a", 50.0)
    ckt.add_inductor("L1", "a", "b", 10e-9, initial_current=2e-3)
    ckt.add_capacitor("C1", "b", "0", 1e-12)
    ckt.add_resistor("Rb", "b", "0", 200.0)
    ckt.add_ccvs("H1", "h", "0", "L1", 100.0)
    ckt.add_resistor("Rh", "h", "c", 100.0)
    ckt.add_capacitor("Ch", "c", "0", 1e-12)
    ckt.add_cccs("F1", "g", "0", "L1", 0.5)
    ckt.add_resistor("Rg", "g", "0", 1000.0)
    ckt.add_resistor("Rgk", "g", "k", 1000.0)
    ckt.add_capacitor("Ck", "k", "0", 1e-12)
    return ckt


class TestInductorControlledSources:
    """At t = 0⁺ the inductor's pinned current drives the controlled
    sources through their ordinary stamps."""

    def test_initial_point_by_hand(self):
        ckt = inductor_controlled_circuit()
        system = MnaSystem(ckt)
        state = resolve_initial_storage_state(system, {"Vin": 0.0})
        assert state.inductor_currents == {"L1": 2e-3}
        x0, rates = initial_operating_point(ckt, system, state, {"Vin": 1.0},
                                            with_rates=True)

        def v(node):
            return x0[system.index.node(node)]

        assert x0[system.index.current("L1")] == pytest.approx(2e-3)
        assert v("a") == pytest.approx(1.0 - 50.0 * 2e-3)
        assert v("h") == pytest.approx(100.0 * 2e-3)   # gain × i_L(0)
        # 0.5 × i_L(0) leaves g, split between Rg and Rgk (k held at 0 V).
        assert v("g") == pytest.approx(-0.5 * 2e-3 * 500.0)
        assert x0[system.index.current("H1")] == pytest.approx(-2e-3)
        for node in ("b", "c", "k"):
            assert v(node) == pytest.approx(0.0, abs=1e-15)
        assert rates.capacitor_voltage_rates["C1"] == pytest.approx(2e-3 / 1e-12)
        assert rates.capacitor_voltage_rates["Ch"] == pytest.approx(2e-3 / 1e-12)
        assert rates.inductor_current_rates["L1"] == pytest.approx(0.9 / 10e-9)

    @pytest.mark.parametrize("node", ["b", "h", "g"])
    def test_response_matches_transient(self, node):
        error = awe_vs_transient_l2(inductor_controlled_circuit(),
                                    {"Vin": Step(0.0, 1.0)}, node,
                                    error_target=0.005)
        assert error < L2_BOUND


@pytest.mark.parametrize("currents", [(0.0, 0.0), (1e-3, 0.0)],
                         ids=["balanced", "unbalanced"])
def test_inductor_cutset_node_is_singular_at_t0(currents):
    # Node m touches only L1 and L2: nothing fixes its voltage at t = 0⁺.
    ckt = Circuit("series inductors")
    ckt.add_voltage_source("V", "in", "0", dc=1.0)
    ckt.add_resistor("R", "in", "a", 10.0)
    ckt.add_inductor("L1", "a", "m", 1e-9, initial_current=currents[0])
    ckt.add_inductor("L2", "m", "b", 1e-9, initial_current=currents[1])
    ckt.add_capacitor("C", "b", "0", 1e-12, initial_voltage=0.0)
    system = MnaSystem(ckt)
    state = resolve_initial_storage_state(system, {"V": 0.0})
    with pytest.raises(SingularCircuitError, match="t = 0⁺"):
        initial_operating_point(ckt, system, state, {"V": 1.0})
