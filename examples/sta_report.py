"""Whole-design static timing: build, analyze, report, serve.

Builds a small three-stage datapath by hand (ports, cells from the
built-in library, RC-wired nets), runs `run_sta` at a nominal and a
slow corner with AWE interconnect delays, walks the top-K critical
paths, and renders the `repro.sta-report/1` JSON + Markdown report.
Finishes by serving the same design through `POST /sta` on an ephemeral
daemon and showing the warm cache hit answering bit-identically.

Run:  python examples/sta_report.py
"""

from repro import AnalysisClient, ServiceServer
from repro.report import (build_sta_report, render_sta_markdown,
                          validate_sta_report)
from repro.sta import (NOMINAL, Corner, Design, Instance, Net, PortIn,
                       PortOut, WireSegment, default_library, run_sta)


def datapath():
    """a -> INV_X1 -> NAND2_X1 -> BUF_X2 -> out, with a side input b.

    Net n1 is a two-section RC wire (the kind of resistive interconnect
    the paper's AWE machinery exists for); n2 and n3 are single
    L-sections; the input nets are ideal.
    """
    return Design(
        name="datapath-3",
        inputs=(
            PortIn("a", net="na", arrival=0.0, slew=1.5e-11,
                   drive_resistance=300.0),
            PortIn("b", net="nb", arrival=2.0e-11, slew=2.5e-11,
                   drive_resistance=600.0),
        ),
        outputs=(PortOut("out", net="n3", required=6e-10, load=6e-15),),
        instances=(
            Instance("g1", "INV_X1", {"A": "na", "Y": "n1"}),
            Instance("g2", "NAND2_X1", {"A": "n1", "B": "nb", "Y": "n2"}),
            Instance("g3", "BUF_X2", {"A": "n2", "Y": "n3"}),
        ),
        nets=(
            Net("na", ()),
            Net("nb", ()),
            Net("n1", (WireSegment("root", "w1", 220.0, 12e-15),
                       WireSegment("w1", "g2.A", 220.0, 12e-15))),
            Net("n2", (WireSegment("root", "g3.A", 150.0, 9e-15),)),
            Net("n3", (WireSegment("root", "out", 120.0, 8e-15),)),
        ),
    )


def main():
    design = datapath()
    library = default_library()
    design.validate(library)
    print(f"design {design.name!r}: {len(design.instances)} cells, "
          f"{len(design.nets)} nets, library {library.name!r}")

    # 1. Two corners, AWE net delays, top-3 paths per corner.
    corners = (NOMINAL,
               Corner(name="slow", wire_r=1.4, wire_c=1.4, cell=1.25))
    run = run_sta(design, library=library, k=3, corners=corners)
    print(f"\nworst slack across corners: {run.worst_slack:.4g} s")

    for analysis in run.corners:
        print(f"\ncorner {analysis.corner.name!r}  "
              f"(worst slack {analysis.worst_slack:.4g} s)")
        for rank, path in enumerate(analysis.paths, start=1):
            chain = " -> ".join(path.nodes)
            print(f"  #{rank}  slack {path.slack:+.4g} s  "
                  f"arrival {path.arrival:.4g} s  {chain}")

    nominal = run.corner("nominal")
    slow = run.corner("slow")
    assert slow.worst_slack < nominal.worst_slack
    assert run.worst_slack == slow.worst_slack

    # 2. Elmore interconnect as the first-moment cross-check the paper
    #    generalises: same graph, same critical path, different net
    #    delays — close on these mildly resistive wires, increasingly
    #    wrong as wires get stiffer (see docs/sta.md).
    elmore = run_sta(design, library=library, k=1, interconnect="elmore")
    print(f"\nelmore cross-check: worst slack {elmore.worst_slack:.4g} s "
          f"(AWE nominal {nominal.worst_slack:.4g} s)")
    assert (elmore.corner("nominal").paths[0].nodes
            == nominal.paths[0].nodes)

    # 3. The versioned report document and its Markdown rendering.
    document = validate_sta_report(build_sta_report(run))
    markdown = render_sta_markdown(document)
    print(f"\nreport schema {document['schema']!r}: "
          f"{len(document['corners'])} corners, "
          f"{sum(len(c['paths']) for c in document['corners'])} paths, "
          f"{len(markdown.splitlines())} Markdown lines")

    # 4. The same analysis over the wire: POST /sta, then the cache hit.
    with ServiceServer(port=0, workers=1) as server:
        client = AnalysisClient(server.url, timeout=120)
        request = {"design": design.to_canonical_dict(), "k": 3,
                   "corners": [corner.to_dict() for corner in corners],
                   "interconnect": "awe"}
        cold = client.call("sta", request)
        warm = client.call("sta", request)
        assert not cold.cached and warm.cached
        assert warm.body == cold.body
        assert cold.document["worst_slack_s"] == run.worst_slack
        print(f"\ndaemon: cold {cold.server_elapsed_s * 1e3:.1f} ms, "
              f"warm hit {warm.server_elapsed_s * 1e3:.2f} ms, "
              f"bodies byte-identical (key {cold.key[:16]}…)")

    print("\ndone.")


if __name__ == "__main__":
    main()
