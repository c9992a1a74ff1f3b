"""PCB-level RLC interconnect — the paper's motivating frontier.

"Particularly at the printed circuit board level, input voltage rise time
can dominate the timing of a net" (Sec. I).  This example models a board
trace as a lossy LC ladder, shows why RC-tree methods cannot touch it
(complex poles, overshoot), and sweeps the driver rise time to find where
the net stops ringing.

Run:  python examples/pcb_rlc_line.py
"""

from repro import AweAnalyzer, MnaSystem, Ramp, Step, circuit_poles, simulate
from repro.circuit.topology import is_rc_tree
from repro.circuit.units import format_engineering as fmt
from repro.papercircuits import rlc_transmission_ladder
from repro.waveform import l2_error


def build_trace():
    # 8 cm microstrip-ish trace, lumped into 6 sections:
    # ~0.5 Ω, 2 nH, 1 pF per section; 25 Ω driver.
    return rlc_transmission_ladder(
        6, r_per_section=0.5, l_per_section=2e-9, c_per_section=1e-12,
        r_source=25.0, name="PCB trace (6-section lossy LC ladder)",
    )


def main():
    circuit = build_trace()
    output = "6"
    print(f"circuit: {circuit.title}")
    print(f"RC tree? {is_rc_tree(circuit)} - Elmore methods do not apply here")

    poles = circuit_poles(MnaSystem(circuit)).sorted_by_dominance()
    pairs = [p for p in poles if p.imag > 0]
    print(f"\n{len(poles)} poles, {len(pairs)} complex pairs; dominant pair "
          f"{pairs[0].real:.3g} ± {pairs[0].imag:.3g}j rad/s")

    # --- step response: order escalation on a ringing net ----------------
    stimuli = {"Vin": Step(0.0, 3.3)}
    analyzer = AweAnalyzer(circuit, stimuli, max_order=10)
    reference = simulate(circuit, stimuli, 2.5e-8).voltage(output)
    print(f"\nstep response at the far end: overshoot "
          f"{reference.overshoot():.1%} (ringing)")
    print("order escalation:")
    for order in (1, 2, 4, 8):
        response = analyzer.response(output, order=order)
        err = l2_error(reference, response.waveform.to_waveform(reference.times))
        flag = "stable" if response.waveform.is_stable else "UNSTABLE"
        print(f"  q={order}: true error {err:7.2%}  ({flag})")
    auto = analyzer.response(output, error_target=0.02)
    print(f"automatic order for 2% target: q = {auto.order}")
    print("(Padé convergence on 6 underdamped pairs is not monotone in q;")
    print(" the Sec. 3.4 estimator is what catches the bad intermediate fits)")

    # --- rise-time sweep: when does the net stop ringing? ----------------
    print("\ndriver rise-time sweep (AWE order 6):")
    print(f"  {'rise time':>10}  {'overshoot':>9}  {'50% delay':>10}")
    for rise in (None, 0.2e-9, 0.5e-9, 1e-9, 2e-9, 4e-9):
        stim = {"Vin": Step(0.0, 3.3) if rise is None else Ramp(0.0, 3.3, rise_time=rise)}
        sweep = AweAnalyzer(circuit, stim, max_order=10).response(output, order=6)
        overshoot = sweep.waveform.to_waveform().overshoot()
        label = "step" if rise is None else fmt(rise, "s")
        print(f"  {label:>10}  {overshoot:>8.1%}  "
              f"{fmt(sweep.delay_50(), 's'):>10}")
    print("\nslower edges trade delay for signal integrity - the paper's")
    print("point about rise time dominating board-level timing.")


if __name__ == "__main__":
    main()
