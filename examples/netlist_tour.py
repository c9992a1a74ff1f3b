"""Netlist workflow: from a SPICE deck to a full timing report.

Extracted interconnect usually arrives as a SPICE deck.  This example
parses one (with stimuli on the sources), validates it, reports the exact
pole structure, runs AWE on every interesting node with automatic order
selection, and prints a closing comparison against the transient
reference.

Run:  python examples/netlist_tour.py
"""

from repro import AweAnalyzer, MnaSystem, circuit_poles, parse_netlist, simulate
from repro.circuit.topology import is_rc_tree, tree_link_partition
from repro.circuit.units import format_engineering as fmt
from repro.waveform import l2_error

DECK = """\
bus segment with coupling and a grounded termination
* --- aggressor line ---
Vagg ain 0 PWL(0 0 0.3n 5)
Ra1 ain a1 150
Ca1 a1 0 90f
Ra2 a1 a2 150
Ca2 a2 0 90f
Ra3 a2 a3 180
Ca3 a3 0 140f
* --- victim line, held low by its driver ---
Vvic vin 0 DC 0
Rv1 vin v1 200
Cv1 v1 0 80f
Rv2 v1 v2 200
Cv2 v2 0 80f
* --- coupling and a leaky termination ---
Ccp1 a2 v1 40f
Ccp2 a3 v2 60f
Rterm a3 0 25k
.end
"""


def main():
    deck = parse_netlist(DECK)
    circuit, stimuli = deck.circuit, deck.stimuli
    print(f"parsed: {deck.title!r}")
    print(f"  {len(circuit)} elements, {circuit.node_count} nodes, "
          f"{circuit.state_count} state variables")
    print(f"  RC tree? {is_rc_tree(circuit)}  "
          f"(coupling caps + grounded resistor: AWE territory)")

    partition = tree_link_partition(circuit)
    print(f"  tree/link partition: {len(partition.tree)} tree branches, "
          f"{len(partition.links)} links, explicit DC: {partition.explicit_dc}")

    decomposition = circuit_poles(MnaSystem(circuit))
    print(f"\nexact poles ({decomposition.order}):")
    for pole in decomposition.sorted_by_dominance():
        print(f"  {pole.real:+.4e}" + (f" {pole.imag:+.4e}j" if pole.imag else ""))

    analyzer = AweAnalyzer(circuit, stimuli)
    print("\nAWE timing report (auto order, 1% target):")
    print(f"  {'node':<5} {'order':>5} {'estimate':>9} {'final':>8} "
          f"{'50% delay / peak':>18}")
    reference = simulate(circuit, stimuli, 8e-9)
    for node in ("a3", "v1", "v2"):
        response = analyzer.response(node, error_target=0.01)
        final = response.waveform.final_value()
        if abs(final) > 0.5:  # a switching node: report delay
            metric = fmt(response.delay_50(), "s")
        else:  # a victim node: report the noise peak
            peak = response.waveform.to_waveform(samples=3000).values.max()
            metric = f"peak {peak*1e3:.1f} mV"
        err = l2_error(reference.voltage(node),
                       response.waveform.to_waveform(reference.voltage(node).times))
        print(f"  {node:<5} {response.order:>5} {response.error_estimate:>9.3%} "
              f"{final:>7.3f}V {metric:>18}   (true err {err:.3%})")

    print("\nnote the victim nodes: coupling noise rises and decays back -")
    print("nonmonotone waveforms that need at least two poles, and get them.")


if __name__ == "__main__":
    main()
