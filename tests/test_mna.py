"""Tests for MNA stamping, indexing, and floating-group detection."""

import numpy as np
import pytest
import scipy.linalg

from repro import Circuit, MnaSystem
from repro.errors import CircuitError, SingularCircuitError
from repro.papercircuits import fig25_rlc_ladder


class TestIndexing:
    def test_layout(self, single_rc):
        system = MnaSystem(single_rc)
        assert system.index.node_names == ("in", "1")
        assert system.index.current_elements == ("Vin",)
        assert system.dimension == 3
        assert system.index.source_names == ("Vin",)

    def test_current_index_offsets_by_nodes(self, single_rc):
        system = MnaSystem(single_rc)
        assert system.index.current("Vin") == 2

    def test_current_of_non_current_element(self, single_rc):
        system = MnaSystem(single_rc)
        with pytest.raises(CircuitError):
            system.index.current("R1")

    def test_unknown_source(self, single_rc):
        system = MnaSystem(single_rc)
        with pytest.raises(CircuitError):
            system.index.source("Vx")


class TestStamps:
    def test_resistor_stamp_symmetry(self, rc_ladder3):
        system = MnaSystem(rc_ladder3)
        n = system.index.node_count
        G_nodes = system.G[:n, :n]
        assert np.allclose(G_nodes, G_nodes.T)

    def test_conductance_values(self, single_rc):
        system = MnaSystem(single_rc)
        i, j = system.index.node("in"), system.index.node("1")
        assert system.G[i, i] == pytest.approx(1e-3)
        assert system.G[i, j] == pytest.approx(-1e-3)

    def test_capacitor_stamp(self, single_rc):
        system = MnaSystem(single_rc)
        j = system.index.node("1")
        assert system.C[j, j] == pytest.approx(1e-12)

    def test_floating_capacitor_stamp(self):
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0")
        ckt.add_resistor("R", "a", "b", 1.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        ckt.add_capacitor("Cc", "a", "b", 2e-12)
        system = MnaSystem(ckt)
        i, j = system.index.node("a"), system.index.node("b")
        assert system.C[i, i] == pytest.approx(2e-12)
        assert system.C[i, j] == pytest.approx(-2e-12)

    def test_inductor_branch_rows(self, series_rlc):
        system = MnaSystem(series_rlc)
        row = system.index.current("L1")
        a, b = system.index.node("a"), system.index.node("b")
        assert system.G[row, a] == 1.0
        assert system.G[row, b] == -1.0
        assert system.C[row, row] == pytest.approx(-10e-9)
        # KCL coupling of the branch current into the node equations.
        assert system.G[a, row] == 1.0
        assert system.G[b, row] == -1.0

    def test_voltage_source_rhs_column(self, single_rc):
        system = MnaSystem(single_rc)
        row = system.index.current("Vin")
        col = system.index.source("Vin")
        assert system.B[row, col] == 1.0

    def test_current_source_rhs(self):
        ckt = Circuit()
        ckt.add_resistor("R", "a", "0", 1.0)
        ckt.add_current_source("I1", "0", "a", 1e-3)  # pushes INTO node a
        system = MnaSystem(ckt)
        a = system.index.node("a")
        col = system.index.source("I1")
        assert system.B[a, col] == 1.0

    def test_vccs_stamp(self):
        ckt = Circuit()
        ckt.add_voltage_source("V", "c", "0", 1.0)
        ckt.add_resistor("Rc", "c", "0", 1.0)
        ckt.add_resistor("Ro", "o", "0", 1.0)
        ckt.add_vccs("G1", "o", "0", "c", "0", 5e-3)
        system = MnaSystem(ckt)
        o, c = system.index.node("o"), system.index.node("c")
        assert system.G[o, c] == pytest.approx(5e-3)


class TestSolves:
    def test_dc_solve_voltage_divider(self):
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0", 6.0)
        ckt.add_resistor("R1", "a", "b", 2.0)
        ckt.add_resistor("R2", "b", "0", 1.0)
        system = MnaSystem(ckt)
        x = system.solve_augmented(system.B @ np.array([6.0]))
        assert x[system.index.node("b")] == pytest.approx(2.0)
        # Source current: 6 V across 3 Ω, flowing out of the source node.
        assert x[system.index.current("V")] == pytest.approx(-2.0)

    def test_source_vector_by_name(self, single_rc):
        system = MnaSystem(single_rc)
        u = system.source_vector({"Vin": 5.0})
        assert u.tolist() == [5.0]

    def test_source_vector_wrong_shape(self, single_rc):
        system = MnaSystem(single_rc)
        with pytest.raises(CircuitError):
            system.source_vector(np.zeros(3))

    def test_singular_circuit_raises(self):
        # A loop of two voltage sources has no unique branch currents.
        ckt = Circuit()
        ckt.add_voltage_source("V1", "a", "0", 1.0)
        ckt.add_voltage_source("V2", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "0", 1.0)
        system = MnaSystem(ckt)
        with pytest.raises(SingularCircuitError):
            system.lu()

    def test_resistive_island_with_trapped_charge_is_solvable(self):
        # A conductive island reachable only through capacitors is handled
        # by charge conservation (paper Sec. III), not rejected.
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0", 1.0)
        ckt.add_resistor("Ra", "a", "0", 1.0)
        ckt.add_capacitor("C1", "a", "b", 1e-12)
        ckt.add_resistor("R1", "b", "c", 1.0)
        ckt.add_capacitor("C2", "c", "0", 1e-12)
        system = MnaSystem(ckt)
        x = system.solve_augmented(system.B @ np.array([1.0]))
        b, c = system.index.node("b"), system.index.node("c")
        assert x[b] == pytest.approx(x[c])  # no current through R1 at DC


class TestSparseBackend:
    def test_sparse_matches_dense(self):
        from repro.papercircuits import random_rc_tree

        circuit = random_rc_tree(120, seed=9)
        dense = MnaSystem(circuit, sparse=False)
        sparse = MnaSystem(circuit, sparse=True)
        rhs = dense.B @ np.array([5.0])
        np.testing.assert_allclose(
            dense.solve_augmented(rhs),
            sparse.solve_augmented(rhs),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_auto_selection_by_size(self, single_rc):
        from repro.papercircuits import rc_ladder

        assert not MnaSystem(single_rc).use_sparse
        assert MnaSystem(rc_ladder(200)).use_sparse

    def test_sparse_detects_singularity(self):
        ckt = Circuit()
        ckt.add_voltage_source("V1", "a", "0", 1.0)
        ckt.add_voltage_source("V2", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "0", 1.0)
        system = MnaSystem(ckt, sparse=True)
        with pytest.raises(SingularCircuitError):
            system.lu()

    def test_end_to_end_awe_on_large_tree(self):
        from repro import AweAnalyzer, Step
        from repro.papercircuits import rc_ladder
        from repro.rctree import elmore_delays

        circuit = rc_ladder(400)
        analyzer = AweAnalyzer(circuit, {"Vin": Step(0, 5)})
        response = analyzer.response("400", order=1)
        elmore = elmore_delays(circuit)["400"]
        assert response.poles[0].real == pytest.approx(-1.0 / elmore, rel=1e-9)

    def test_sparse_charge_augmentation(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit, sparse=True)
        x = system.solve_augmented(
            system.B @ np.array([5.0]), charge_values=np.array([0.0])
        )
        assert x[system.index.node("f")] == pytest.approx(1.0)


class TestDenseSolve:
    """The dense branch of ``_solve`` calls LAPACK's ``getrs`` itself,
    without ``scipy.linalg.lu_solve``'s wrapper, and keeps its answers,
    its finiteness check and the solve counters."""

    @pytest.fixture
    def system(self):
        return MnaSystem(fig25_rlc_ladder(), sparse=False)

    @pytest.mark.parametrize("columns", [None, 3])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bitwise_equal_to_lu_solve(self, system, columns, transpose):
        factor = system.lu()
        shape = (system.dimension,) if columns is None else (system.dimension, columns)
        rhs = np.random.default_rng(7).normal(size=shape)
        got = system._solve(factor, rhs, transpose)
        expected = scipy.linalg.lu_solve(factor, rhs, trans=int(transpose))
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_nonfinite_right_hand_side_raises(self, system, bad):
        rhs = np.ones(system.dimension)
        rhs[1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            system._solve(system.lu(), rhs)

    def test_counts_as_before(self, system):
        factor = system.lu()
        before = system.stats.as_dict()
        system._solve(factor, np.ones(system.dimension))
        system._solve(factor, np.ones((system.dimension, 3)), transpose=True)
        after = system.stats.as_dict()
        assert after["triangular_solves"] - before["triangular_solves"] == 2
        assert after["solve_columns"] - before["solve_columns"] == 4


class TestFloatingGroups:
    def test_detection(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        assert len(system.floating_groups) == 1
        group = system.floating_groups[0]
        assert system.index.node_names[group[0]] == "f"

    def test_no_false_positives(self, rc_ladder3):
        assert MnaSystem(rc_ladder3).floating_groups == ()

    def test_multi_node_floating_group(self):
        ckt = Circuit()
        ckt.add_voltage_source("V", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "b", 1.0)
        ckt.add_capacitor("C1", "b", "0", 1e-12)
        ckt.add_capacitor("Cc", "b", "f1", 1e-12)
        ckt.add_resistor("Rf", "f1", "f2", 1.0)  # resistor inside the island
        ckt.add_capacitor("Cf", "f2", "0", 1e-12)
        system = MnaSystem(ckt)
        assert len(system.floating_groups) == 1
        assert len(system.floating_groups[0]) == 2

    def test_charge_augmented_solve(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        # DC with 5 V input and zero trapped charge: v(f) set by charge
        # conservation on the capacitive divider: 5 * 0.5/(0.5+2).
        x = system.solve_augmented(
            system.B @ np.array([5.0]), charge_values=np.array([0.0])
        )
        assert x[system.index.node("f")] == pytest.approx(1.0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_transpose_solve_keeps_the_charge_rows(self, floating_node_circuit,
                                                   sparse):
        # The charge-row substitution belongs to forward solves: the
        # adjoint solve takes rhs as given, on the same factors.
        system = MnaSystem(floating_node_circuit, sparse=sparse)
        rhs = np.arange(1.0, system.dimension + 1.0)
        y = system.solve_augmented(rhs, transpose=True)
        np.testing.assert_allclose(system.G_aug_dense.T @ y, rhs, rtol=1e-9)
        assert system.stats.as_dict()["lu_factorizations"] == 1
        with pytest.raises(CircuitError, match="forward solves only"):
            system.solve_augmented(rhs, charge_values=np.array([0.0]),
                                   transpose=True)

    def test_group_charge(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        x = np.zeros(system.dimension)
        x[system.index.node("f")] = 2.0
        # Charge at f: Cc*(v_f - v_1) + Cf*v_f = 0.5p*2 + 2p*2 = 5e-12.
        assert system.group_charge(x)[0] == pytest.approx(5e-12)
