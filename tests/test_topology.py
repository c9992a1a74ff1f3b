"""Tests for RC-tree recognition and tree/link partitioning."""

import pytest

from repro import Circuit
from repro.circuit.elements import Capacitor, CurrentSource, Resistor, VoltageSource
from repro.circuit.topology import (
    analyze_rc_tree,
    is_rc_tree,
    series_rc_chains,
    tree_link_partition,
)
from repro.errors import TopologyError
from repro.papercircuits import fig4_rc_tree, fig9_grounded_resistor, rc_mesh


class TestAnalyzeRcTree:
    def test_fig4_is_rc_tree(self):
        tree = analyze_rc_tree(fig4_rc_tree())
        assert tree.root == "in"
        assert set(tree.nodes) == {"in", "1", "2", "3", "4"}

    def test_parent_structure(self):
        tree = analyze_rc_tree(fig4_rc_tree())
        parent, resistor = tree.parent["4"]
        assert parent == "3"
        assert resistor.name == "R4"

    def test_capacitance_map(self):
        tree = analyze_rc_tree(fig4_rc_tree())
        assert tree.capacitance["4"] == pytest.approx(0.1e-6)
        assert tree.capacitance["in"] == 0.0

    def test_path_to_root(self):
        tree = analyze_rc_tree(fig4_rc_tree())
        names = [r.name for _, r in tree.path_to_root("4")]
        assert names == ["R4", "R3", "R1"]

    def test_path_nodes(self):
        tree = analyze_rc_tree(fig4_rc_tree())
        assert tree.path_nodes("4") == ["in", "1", "3", "4"]

    def test_shared_path_resistance(self):
        tree = analyze_rc_tree(fig4_rc_tree())
        # nodes 2 and 4 share only R1.
        assert tree.path_resistance("2", "4") == pytest.approx(1e3)
        # nodes 3 and 4 share R1+R3.
        assert tree.path_resistance("4", "3") == pytest.approx(2e3)

    def test_grounded_resistor_rejected(self):
        with pytest.raises(TopologyError, match="to ground"):
            analyze_rc_tree(fig9_grounded_resistor())

    def test_floating_cap_rejected(self):
        ckt = fig4_rc_tree()
        ckt.add_capacitor("Cf", "2", "4", 1e-12)
        with pytest.raises(TopologyError, match="[Ff]loating"):
            analyze_rc_tree(ckt)

    def test_resistor_loop_rejected(self):
        ckt = fig4_rc_tree()
        ckt.add_resistor("Rloop", "2", "4", 1e3)
        with pytest.raises(TopologyError):
            analyze_rc_tree(ckt)

    def test_inductor_rejected(self):
        ckt = fig4_rc_tree()
        ckt.add_inductor("L1", "4", "5", 1e-9)
        with pytest.raises(TopologyError):
            analyze_rc_tree(ckt)

    def test_two_sources_rejected(self):
        ckt = fig4_rc_tree()
        ckt.add_voltage_source("V2", "2", "0")
        with pytest.raises(TopologyError, match="exactly one source"):
            analyze_rc_tree(ckt)

    def test_mesh_is_not_tree(self):
        assert not is_rc_tree(rc_mesh(2, 2))

    def test_is_rc_tree_predicate(self):
        assert is_rc_tree(fig4_rc_tree())


class TestTreeLinkPartition:
    def test_rc_tree_links_are_capacitors(self):
        partition = tree_link_partition(fig4_rc_tree())
        assert partition.explicit_dc
        assert all(isinstance(link, Capacitor) for link in partition.links)
        assert len(partition.links) == 4

    def test_grounded_resistor_forces_resistive_link(self):
        partition = tree_link_partition(fig9_grounded_resistor())
        resistive_links = [l for l in partition.links if isinstance(l, Resistor)]
        assert len(resistive_links) == 1
        assert not partition.explicit_dc

    def test_tree_spans_all_elements(self):
        ckt = fig4_rc_tree()
        partition = tree_link_partition(ckt)
        assert len(partition.tree) + len(partition.links) == len(ckt)

    def test_source_always_in_tree(self):
        partition = tree_link_partition(fig9_grounded_resistor())
        tree_names = {e.name for e in partition.tree}
        assert "Vin" in tree_names

    def test_mesh_has_resistor_links(self):
        partition = tree_link_partition(rc_mesh(2, 2))
        assert any(isinstance(l, Resistor) for l in partition.links)


class TestSeriesRcChains:
    def test_loops_and_rings_are_skipped(self):
        # in-a-b-out is a chain; out-l1-l2-out is a loop whose ends meet
        # at one anchor; r1-r2-r3-r1 is a ring of degree-2 nodes with no
        # anchor at all.  Only the chain is reported.
        circuit = Circuit("chains")
        circuit.add_voltage_source("Vin", "in", "0")
        for name, a, b in (("R1", "in", "a"), ("R2", "a", "b"),
                           ("R3", "b", "out"), ("Rl1", "out", "l1"),
                           ("Rl2", "l1", "l2"), ("Rl3", "l2", "out"),
                           ("Rr1", "r1", "r2"), ("Rr2", "r2", "r3"),
                           ("Rr3", "r3", "r1")):
            circuit.add_resistor(name, a, b, 100.0)
        for node in ("a", "b", "out", "l1", "l2", "r1", "r2", "r3"):
            circuit.add_capacitor(f"C{node}", node, "0", 1e-15)

        (chain,) = series_rc_chains(circuit)
        assert (chain.anchor_a, chain.anchor_b) == ("in", "out")
        assert chain.interior == ("a", "b")
        assert [r.name for r in chain.resistors] == ["R1", "R2", "R3"]
        assert [[c.name for c in caps] for caps in chain.capacitors] == [
            ["Ca"], ["Cb"]]

