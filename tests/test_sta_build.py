"""The design → timing-graph freeze: library, design model, builder,
corners, and the full ``run_sta`` driver.

The AWE-backed interconnect delays are validated against the engine's
own Elmore mode (loose agreement — they are different models of the same
wire) and against physical monotonicity: slower corners and heavier
wires can only reduce slack.
"""

import math

import pytest

from repro.errors import StaError
from repro.sta import (
    NOMINAL,
    CellLibrary,
    Corner,
    Design,
    Instance,
    Net,
    PortIn,
    PortOut,
    WireSegment,
    build_timing_graph,
    default_library,
    run_sta,
)
from repro.sta.library import DelayTable, TimingArc, Cell
from repro.trace import Tracer


def demo_design(drive_resistance=500.0, wire_r=200.0, wire_c=15e-15):
    """One INV_X1 between a driven input and a constrained output."""
    return Design(
        name="demo",
        inputs=(PortIn("i1", net="n_in", arrival=0.0, slew=2e-11,
                       drive_resistance=drive_resistance),),
        outputs=(PortOut("o1", net="n_out", required=5e-10, load=4e-15),),
        instances=(Instance("u1", "INV_X1", {"A": "n_in", "Y": "n_out"}),),
        nets=(Net("n_in", ()),
              Net("n_out", (WireSegment("root", "o1", wire_r, wire_c),))),
    )


def two_stage_design():
    """input -> INV_X1 -> wire -> BUF_X2 -> output, all nets wired."""
    return Design(
        name="two-stage",
        inputs=(PortIn("clk", net="n0", arrival=0.0, slew=1e-11,
                       drive_resistance=200.0),),
        outputs=(PortOut("out", net="n2", required=2e-9, load=5e-15),),
        instances=(
            Instance("g1", "INV_X1", {"A": "n0", "Y": "n1"}),
            Instance("g2", "BUF_X2", {"A": "n1", "Y": "n2"}),
        ),
        nets=(
            Net("n0", ()),
            Net("n1", (WireSegment("root", "m", 150.0, 10e-15),
                       WireSegment("m", "g2.A", 150.0, 10e-15))),
            Net("n2", (WireSegment("root", "out", 100.0, 8e-15),)),
        ),
    )


class TestDelayTable:
    def test_linear_model_reproduced_exactly_on_grid(self):
        table = DelayTable.from_linear(1e-12, 0.5, 2.0,
                                       (1e-12, 1e-11), (1e-15, 1e-14))
        for s in (1e-12, 1e-11):
            for c in (1e-15, 1e-14):
                assert table.lookup(s, c) == pytest.approx(
                    1e-12 + 0.5 * s + 2.0 * c, rel=1e-12)

    def test_bilinear_interpolation_inside_the_grid(self):
        table = DelayTable((1.0, 3.0), (10.0, 30.0),
                           [[1.0, 2.0], [3.0, 4.0]])
        assert table.lookup(2.0, 20.0) == pytest.approx(2.5)

    def test_lookup_clamps_outside_the_grid(self):
        table = DelayTable((1.0, 2.0), (1.0, 2.0), [[5.0, 6.0], [7.0, 8.0]])
        assert table.lookup(0.0, 0.0) == 5.0
        assert table.lookup(99.0, 99.0) == 8.0

    def test_scaled(self):
        table = DelayTable((1.0,), (1.0,), [[3.0]])
        assert table.scaled(2.0).lookup(1.0, 1.0) == 6.0

    def test_dict_round_trip(self):
        table = DelayTable.from_linear(1e-12, 0.1, 0.2, (1.0, 2.0), (3.0, 4.0))
        assert DelayTable.from_dict(table.to_dict()) == table

    def test_axis_must_be_increasing(self):
        with pytest.raises(StaError, match="strictly increasing"):
            DelayTable((2.0, 1.0), (1.0,), [[1.0], [1.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StaError, match="shape"):
            DelayTable((1.0, 2.0), (1.0,), [[1.0]])

    def test_unknown_fields_rejected(self):
        with pytest.raises(StaError, match="unknown fields"):
            DelayTable.from_dict({"slews": [1.0], "loads": [1.0],
                                  "values": [[1.0]], "bogus": 1})


class TestLibrary:
    def test_default_library_contents(self):
        lib = default_library()
        assert lib.names == ("BUF_X2", "INV_X1", "INV_X4", "NAND2_X1",
                             "NOR2_X1")
        inv = lib["INV_X1"]
        assert inv.input_pins == ("A",) and inv.output_pins == ("Y",)
        assert inv.arcs_to("Y")[0].input == "A"

    def test_default_library_is_stable(self):
        assert default_library().to_dict() == default_library().to_dict()

    def test_unknown_cell_names_the_known_ones(self):
        with pytest.raises(StaError, match="INV_X1"):
            default_library()["FLUX_CAP"]

    def test_dict_round_trip(self):
        lib = default_library()
        again = CellLibrary.from_dict(lib.to_dict())
        assert again.to_dict() == lib.to_dict()

    def test_cell_validation(self):
        delay = DelayTable((1.0,), (1.0,), [[1.0]])
        arc = TimingArc("A", "Y", delay, delay)
        with pytest.raises(StaError, match="unknown input pin"):
            Cell("X", {"B": 1e-15}, {"Y": 100.0}, (arc,))
        with pytest.raises(StaError, match="must be > 0"):
            Cell("X", {"A": 1e-15}, {"Y": 0.0}, (arc,))
        with pytest.raises(StaError, match="duplicate arc"):
            Cell("X", {"A": 1e-15}, {"Y": 100.0}, (arc, arc))


class TestDesignModel:
    def test_canonical_dict_round_trip(self):
        design = two_stage_design()
        payload = design.to_canonical_dict()
        assert Design.from_dict(payload).to_canonical_dict() == payload

    def test_reserved_and_dotted_names_rejected(self):
        with pytest.raises(StaError, match="must not contain"):
            PortIn("a.b", net="n")
        with pytest.raises(StaError, match="reserved"):
            WireSegment("root", "drv", 1.0, 1e-15)

    def test_double_driven_net_rejected(self):
        design = Design(
            name="bad",
            inputs=(PortIn("i1", net="n1"), PortIn("i2", net="n1")),
            outputs=(PortOut("o1", net="n1", required=1e-9),),
            nets=(Net("n1"),),
        )
        with pytest.raises(StaError, match="driven by both"):
            design.validate(default_library())

    def test_undriven_and_sinkless_nets_rejected(self):
        lib = default_library()
        no_driver = Design(
            name="bad", inputs=(PortIn("i1", net="n1"),),
            outputs=(PortOut("o1", net="n2", required=1e-9),
                     PortOut("o2", net="n1", required=1e-9)),
            nets=(Net("n1"), Net("n2")),
        )
        with pytest.raises(StaError, match="no driver"):
            no_driver.validate(lib)
        no_sink = Design(
            name="bad", inputs=(PortIn("i1", net="n1"),),
            outputs=(PortOut("o1", net="n1", required=1e-9),),
            nets=(Net("n1"), Net("n2")),
        )
        with pytest.raises(StaError, match="has no driver|no sinks"):
            no_sink.validate(lib)

    def test_unconnected_pin_rejected(self):
        design = Design(
            name="bad", inputs=(PortIn("i1", net="n1"),),
            outputs=(PortOut("o1", net="n2", required=1e-9),),
            instances=(Instance("u1", "NAND2_X1", {"A": "n1", "Y": "n2"}),),
            nets=(Net("n1"), Net("n2")),
        )
        with pytest.raises(StaError, match="unconnected: B"):
            design.validate(default_library())

    def test_wire_must_tap_every_sink(self):
        design = demo_design()
        broken = Design(
            name="bad", inputs=design.inputs, outputs=design.outputs,
            instances=design.instances,
            nets=(Net("n_in", ()),
                  Net("n_out", (WireSegment("root", "elsewhere",
                                            100.0, 1e-15),))),
        )
        with pytest.raises(StaError, match="does not tap sink"):
            broken.validate(default_library())

    def test_combinational_cycle_rejected(self):
        design = Design(
            name="ring",
            inputs=(PortIn("i1", net="n_in"),),
            outputs=(PortOut("o1", net="n1", required=1e-9),),
            instances=(
                Instance("u1", "NAND2_X1",
                         {"A": "n_in", "B": "n2", "Y": "n1"}),
                Instance("u2", "INV_X1", {"A": "n1", "Y": "n2"}),
            ),
            nets=(Net("n_in"), Net("n1"), Net("n2")),
        )
        with pytest.raises(StaError, match="cycle"):
            design.validate(default_library())


class TestBuilder:
    def test_awe_build_produces_sane_timing(self):
        built = build_timing_graph(demo_design())
        assert built.interconnect == "awe"
        assert built.corner is NOMINAL
        order = built.graph.topological_order()
        assert set(order) == {"i1", "u1.A", "u1.Y", "o1"}
        # All delays positive and finite; arrival at the endpoint too.
        for edge in built.graph.edges():
            assert math.isfinite(edge.delay) and edge.delay >= 0.0
        assert built.arrivals == {"i1": 0.0}
        assert built.required == {"o1": 5e-10}
        assert 0.0 < built.loads["u1.Y"] < 1e-12
        assert built.slews["u1.Y"] > 0.0

    def test_elmore_and_awe_agree_loosely(self):
        design = demo_design()
        awe = build_timing_graph(design, interconnect="awe")
        elm = build_timing_graph(design, interconnect="elmore")

        def net_delay(built):
            (edge,) = [e for e in built.graph.edges()
                       if e.kind == "net" and e.src == "u1.Y"]
            return edge.delay

        assert net_delay(elm) == pytest.approx(net_delay(awe), rel=0.5)

    def test_ideal_net_has_zero_delay(self):
        built = build_timing_graph(demo_design())
        (edge,) = [e for e in built.graph.edges()
                   if e.kind == "net" and e.src == "i1"]
        assert edge.delay == 0.0

    def test_heavier_wire_corner_slows_the_net(self):
        design = demo_design()
        slow = Corner(name="slow_wire", wire_r=2.0, wire_c=2.0)
        nominal = build_timing_graph(design)
        derated = build_timing_graph(design, corner=slow)

        def net_delay(built):
            (edge,) = [e for e in built.graph.edges()
                       if e.kind == "net" and e.src == "u1.Y"]
            return edge.delay

        assert net_delay(derated) > net_delay(nominal)

    def test_cell_corner_scales_cell_arcs(self):
        design = demo_design()
        nominal = build_timing_graph(design)
        derated = build_timing_graph(design, corner=Corner(name="sc", cell=1.5))

        def cell_delay(built):
            (edge,) = [e for e in built.graph.edges() if e.kind == "cell"]
            return edge.delay

        assert cell_delay(derated) > cell_delay(nominal)

    def test_unknown_interconnect_rejected(self):
        with pytest.raises(StaError, match="interconnect"):
            build_timing_graph(demo_design(), interconnect="psychic")

    def test_tracer_records_net_events(self):
        tracer = Tracer(name="sta")
        build_timing_graph(demo_design(), tracer=tracer)
        record = tracer.to_record()
        text = str(record)
        assert "sta_net" in text and "sta_frozen" in text

    def test_two_stage_arrival_is_monotone_along_the_chain(self):
        built = build_timing_graph(two_stage_design())
        from repro.sta import analyze
        res = analyze(built.graph, built.arrivals, built.required)
        assert (res.arrival["clk"] < res.arrival["g1.Y"]
                < res.arrival["g2.Y"] <= res.arrival["out"])
        assert res.worst_slack is not None and res.worst_slack > 0


#: One input driving a four-sink RC daisy chain.  At the slow corner
#: the Sec. 3.4 error integral of its sinks cancels to ~3e-22 with a
#: ~7e-30j roundoff part; judged against the cancelled value rather than
#: the summands, that once raised ArithmeticError out of the build.
FOUR_SINK_CHAIN = {
    "name": "four-sink-chain",
    "inputs": [{"name": "i1", "net": "x1", "arrival": 1.5278e-11,
                "slew": 2.8461e-11, "drive_resistance": 101.132}],
    "outputs": [
        {"name": "s1", "net": "x1", "required": 2e-10, "load": 3.5e-15},
        {"name": "s2", "net": "x1", "required": 2e-10, "load": 3.5e-15},
        {"name": "s3", "net": "x1", "required": 2e-10, "load": 3e-15},
        {"name": "s7", "net": "x1", "required": 2e-10, "load": 3.5e-15},
    ],
    "instances": [],
    "nets": [{"name": "x1", "segments": [
        {"a": "root", "b": "s7", "resistance": 24.881, "capacitance": 9.908e-15},
        {"a": "s7", "b": "s3", "resistance": 290.163, "capacitance": 9.375e-15},
        {"a": "s3", "b": "s2", "resistance": 65.52, "capacitance": 7.702e-15},
        {"a": "s2", "b": "s1", "resistance": 139.405, "capacitance": 8.144e-15},
    ]}],
}


class TestFourSinkChain:
    slow = Corner(name="slow", wire_r=1.25, wire_c=1.1, cell=1.15)

    def test_awe_times_every_sink_in_chain_order(self):
        run = run_sta(Design.from_dict(FOUR_SINK_CHAIN), k=4,
                      corners=(self.slow,))
        arrival = run.corner("slow").result.arrival
        chain = [arrival[sink] for sink in ("i1", "s7", "s3", "s2", "s1")]
        assert all(math.isfinite(a) for a in chain)
        assert chain == sorted(chain)
        assert run.worst_slack is not None

    def test_awe_and_elmore_agree_loosely(self):
        design = Design.from_dict(FOUR_SINK_CHAIN)

        def net_delays(interconnect):
            built = build_timing_graph(design, corner=self.slow,
                                       interconnect=interconnect)
            return {e.dst: e.delay for e in built.graph.edges()}

        awe, elmore = net_delays("awe"), net_delays("elmore")
        assert awe.keys() == elmore.keys() == {"s1", "s2", "s3", "s7"}
        for sink, delay in awe.items():
            assert elmore[sink] == pytest.approx(delay, rel=0.5), sink


class TestNetLoad:
    """A driver's load is the net's summed capacitance, with no second
    analysis of the net."""

    corners = (Corner(name="slow", wire_r=1.25, wire_c=1.1, cell=1.15),
               Corner(name="fast", wire_r=0.85, wire_c=0.9, cell=0.9))

    @staticmethod
    def designs():
        return (two_stage_design(), Design.from_dict(FOUR_SINK_CHAIN))

    @pytest.mark.parametrize("corner", corners, ids=lambda c: c.name)
    def test_load_is_the_pi_model_total_capacitance(self, corner, monkeypatch):
        from repro.analysis.mna import MnaSystem
        from repro.sta import build
        from repro.timing.pi_model import pi_model

        circuits = {}
        original = build._wire_circuit

        def recording(net, *args):
            circuits[net.name] = original(net, *args)
            return circuits[net.name]

        monkeypatch.setattr(build, "_wire_circuit", recording)
        for design in self.designs():
            circuits.clear()
            built = build_timing_graph(design, corner=corner)
            wired = {net.name for net in design.nets if net.segments}
            assert circuits.keys() == wired
            for name, circuit in circuits.items():
                (driver,) = {e.src for e in built.graph.edges()
                             if e.kind == "net" and e.label == name}
                total = pi_model(MnaSystem(circuit), "Vdrv").total_capacitance
                assert built.loads[driver] == pytest.approx(total, rel=1e-12)

    def test_one_analyzer_per_wired_net_per_corner(self, monkeypatch):
        from repro.core.driver import AweAnalyzer

        built = []
        original = AweAnalyzer.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            original(self, *args, **kwargs)

        monkeypatch.setattr(AweAnalyzer, "__init__", counting)
        for design in self.designs():
            built.clear()
            run_sta(design, k=2, corners=self.corners)
            wired = sum(1 for net in design.nets if net.segments)
            assert len(built) == wired * len(self.corners)


class TestCorner:
    def test_round_trip(self):
        corner = Corner(name="fast", wire_r=0.8, wire_c=0.9, cell=0.7)
        assert Corner.from_dict(corner.to_dict()) == corner

    def test_bad_factors_rejected(self):
        with pytest.raises(StaError):
            Corner(name="bad", wire_r=0.0)
        with pytest.raises(StaError):
            Corner(name="bad", cell=float("nan"))

    def test_unknown_fields_rejected(self):
        with pytest.raises(StaError, match="unknown"):
            Corner.from_dict({"name": "x", "volts": 1.1})


class TestRunSta:
    def test_single_corner_run(self):
        run = run_sta(demo_design(), k=3)
        assert run.k == 3 and run.interconnect == "awe"
        assert len(run.corners) == 1
        analysis = run.corner("nominal")
        assert analysis.worst_slack == run.worst_slack
        assert analysis.paths
        assert analysis.paths[0].endpoint == "o1"
        assert analysis.paths[0].slack == run.worst_slack

    def test_slower_corner_reduces_slack(self):
        run = run_sta(demo_design(), corners=(
            NOMINAL, Corner(name="slow", wire_r=1.5, wire_c=1.5, cell=1.3)))
        assert run.corner("slow").worst_slack < run.corner("nominal").worst_slack
        assert run.worst_slack == run.corner("slow").worst_slack

    def test_duplicate_corner_names_rejected(self):
        with pytest.raises(StaError, match="unique"):
            run_sta(demo_design(), corners=(NOMINAL, Corner(name="nominal")))

    def test_k_validation(self):
        with pytest.raises(StaError):
            run_sta(demo_design(), k=-1)
        with pytest.raises(StaError):
            run_sta(demo_design(), k=True)

    def test_elmore_mode_runs_end_to_end(self):
        run = run_sta(two_stage_design(), interconnect="elmore", k=2)
        assert run.worst_slack is not None
        assert run.corners[0].built.interconnect == "elmore"
