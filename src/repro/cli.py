"""Command-line interface: deck in, timing/pole/waveform report out.

Installed as ``python -m repro``.  The subcommands:

``report``
    AWE timing report for one or more decks and nodes: order (fixed or
    automatic), poles, error estimate, final value, 50 %/threshold
    delays.  With ``--json`` / ``--markdown`` it runs the decks through
    the batch engine with tracing on and emits the machine-readable run
    report and/or the human-readable Markdown report (per-phase wall
    time, pole/residue tables, order-escalation trajectory — see
    ``docs/observability.md``); ``-`` writes to stdout.

``poles``
    Exact natural frequencies of the deck (the reference AWE approximates)
    and, optionally, the AWE poles at a given order for comparison.

``simulate``
    Run the SPICE-style transient reference and dump CSV samples — the
    escape hatch for inspecting any waveform exactly.

``batch``
    Run several decks through the :class:`~repro.engine.batch.BatchEngine`
    in one shot: per-deck timing rows, structured failure reporting (a bad
    deck never aborts the batch), per-job timeouts, and ``--stats`` solver
    instrumentation (LU factorisations, triangular solves, moments, wall
    time) emitted as one JSON object on stderr — machine-parseable, never
    interleaved with the per-job table on stdout (``--stats-json PATH``
    writes it to a file instead).

``fuzz``
    Run the conformance fuzzer: seed-reproducible random circuits from
    every generator family pushed through the whole stack (parser →
    canonical writer → AWE → TR-BDF2 oracle → service cache key) and
    checked against the metamorphic-invariant registry (linearity,
    impedance/time/frequency-scaling covariance, Elmore equivalence,
    round-trip idempotence, batch-vs-sequential bit-identity,
    differential L2).  ``--shrink`` delta-debugs each failure to a
    minimal netlist; ``--report`` writes the deterministic JSON crash
    report (byte-identical across re-runs of the same seed range).  See
    ``docs/testing.md``.

``sta``
    Static timing analysis of a gate-level design (JSON): freeze a
    timing DAG whose net delays come from per-net AWE runs (or Elmore
    with ``--interconnect elmore``), propagate arrivals/requireds, and
    report per-endpoint slack plus the top-K critical paths — per
    corner (``--corner slow:wire_r=1.5,cell=1.3``, repeatable).  The
    ``POST /sta`` request, answered locally by default or by a daemon
    or gateway with ``--server URL``; ``--json`` / ``--markdown`` emit
    the ``repro.sta-report/1`` document and its rendering.  See
    ``docs/sta.md``.

``serve``
    Run the long-lived analysis daemon: a JSON HTTP API (``POST
    /analyze``, ``POST /sta``, ``POST /sweep``, ``GET /healthz``,
    ``GET /metrics``) over persistent worker threads with a
    content-addressed result cache, bounded-queue admission control
    (429 when full), and graceful SIGTERM drain.  See
    ``docs/service.md``.

``analyze``
    The ``POST /analyze`` request for one deck, sent to a daemon or
    gateway at ``--server URL``: print the timing table (or the raw
    run-report JSON with ``--json``).  Locally, ``report`` answers it.

``gateway``
    Run the sharded gateway: the daemon's HTTP front over N spawned
    single-engine ``serve`` children, routing ``/analyze`` / ``/sta`` /
    ``/sweep`` requests to them by canonical cache key, with a
    gateway-tier result cache, in-flight request coalescing, per-shard
    health with shed-load, and graceful drain.  Speaks the same protocol
    as ``serve``, so ``analyze --server`` and ``loadgen`` work against
    either.  See ``docs/service.md``.

``sweep``
    Incremental what-if sweep: parse and factor a deck once, then
    evaluate many perturbation points (scale or replace an R/C value,
    retune a source level) by recomputing only what each delta touches
    — adjoint first-order updates, Sherman–Morrison rank-1 updates, or
    a bit-exact re-stamp fallback.  The ``POST /sweep`` request,
    answered locally by default or by a daemon or gateway with
    ``--server URL``.  See ``docs/sweep.md``.

``loadgen``
    Drive a seeded, replayable request mix against a daemon or gateway
    at fixed concurrency and print p50/p99 latency, RPS, cache hits,
    and failures (JSON with ``--json``) — the measurement harness
    behind ``BENCH_scaling.json``'s ``gateway_scaling`` entry.

``analyze``, ``sta`` and ``sweep`` build the JSON payload their
endpoint takes.  With ``--server`` it is POSTed through
:meth:`repro.service.AnalysisClient.call`; without it
:func:`repro.service.answer` answers it in process.  Either way the
endpoint's row of :data:`repro.service.server.ENDPOINTS` parses and runs
it, so local and served documents agree, and a refused request prints
one ``error:`` line and exits 1.

Examples::

    python -m repro report net.sp --node out --target 0.01 --threshold 2.5
    python -m repro report net1.sp net2.sp --node out --json run.json --markdown run.md
    python -m repro poles net.sp --order 2 --node out --source Vin
    python -m repro simulate net.sp --node out --t-stop 5e-9 --csv out.csv
    python -m repro batch net1.sp net2.sp --node out --stats
    python -m repro fuzz --seeds 200 --shrink --report crashes.json
    python -m repro sta design.json --k 5 --corner slow:wire_r=1.5,cell=1.3
    python -m repro serve --port 8040 --workers 4 --cache-dir /var/cache/repro
    python -m repro analyze net.sp --server http://127.0.0.1:8040 --node out
    python -m repro gateway --port 8050 --shards 4 --cache-dir /var/cache/repro
    python -m repro sweep net.sp --node out --point R1:scale=1.2 --point C3:value=40f
    python -m repro loadgen --server http://127.0.0.1:8050 --mix hot --requests 128
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import __version__
from repro.analysis.mna import MnaSystem
from repro.analysis.poles import circuit_poles
from repro.analysis.transient import simulate
from repro.circuit.parser import parse_netlist_file
from repro.circuit.units import format_engineering as fmt
from repro.core.driver import AweAnalyzer
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AWE (Asymptotic Waveform Evaluation) timing analysis",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    report = commands.add_parser("report", help="AWE timing / run report")
    report.add_argument("decks", nargs="+", metavar="deck",
                        help="SPICE-style netlist file(s)")
    report.add_argument("--node", action="append", required=True,
                        help="output node, applied to every deck (repeatable)")
    group = report.add_mutually_exclusive_group()
    group.add_argument("--order", type=int, help="fixed AWE order")
    group.add_argument("--target", type=float, default=0.01,
                       help="error target for automatic order (default 0.01)")
    report.add_argument("--threshold", type=float,
                        help="logic threshold for an extra delay column (V)")
    report.add_argument("--max-order", type=int, default=8)
    report.add_argument("--timeout", type=float,
                        help="per-job wall-clock timeout in seconds")
    report.add_argument("--reduce", action="store_true",
                        help="collapse series RC chains before analysis "
                             "(docs/scaling.md)")
    report.add_argument("--json", metavar="PATH",
                        help="write the machine-readable run report "
                             "(schema repro.run-report/1) here; '-' = stdout")
    report.add_argument("--markdown", metavar="PATH",
                        help="write the human-readable Markdown run report "
                             "here; '-' = stdout")

    poles = commands.add_parser("poles", help="exact (and AWE) poles")
    poles.add_argument("deck")
    poles.add_argument("--order", type=int,
                       help="also print AWE poles of this order")
    poles.add_argument("--node", help="output node for the AWE poles")
    poles.add_argument("--source", help="driving source (default: first)")

    transient = commands.add_parser("simulate", help="transient reference run")
    transient.add_argument("deck")
    transient.add_argument("--node", action="append", required=True)
    transient.add_argument("--t-stop", type=float, required=True)
    transient.add_argument("--csv", help="write samples to this CSV file")
    transient.add_argument("--tolerance", type=float, default=1e-4)

    sens = commands.add_parser(
        "sensitivity",
        help="adjoint delay gradient: which R/C to change to fix a path",
    )
    sens.add_argument("deck")
    sens.add_argument("--node", required=True, help="output node")
    sens.add_argument("--top", type=int, default=8,
                      help="number of contributors to list (default 8)")

    batch = commands.add_parser(
        "batch", help="batch AWE timing across several decks"
    )
    batch.add_argument("decks", nargs="+", help="SPICE-style netlist files")
    batch.add_argument("--node", action="append", required=True,
                       help="output node, applied to every deck (repeatable)")
    batch_group = batch.add_mutually_exclusive_group()
    batch_group.add_argument("--order", type=int, help="fixed AWE order")
    batch_group.add_argument("--target", type=float, default=0.01,
                             help="error target for automatic order (default 0.01)")
    batch.add_argument("--max-order", type=int, default=8)
    batch.add_argument("--timeout", type=float,
                       help="per-job wall-clock timeout in seconds")
    batch.add_argument("--reduce", action="store_true",
                       help="collapse series RC chains before analysis "
                            "(docs/scaling.md)")
    batch.add_argument("--stats", action="store_true",
                       help="emit solver instrumentation counters as one "
                            "JSON object on stderr")
    batch.add_argument("--stats-json", metavar="PATH",
                       help="write the instrumentation JSON to this file "
                            "instead of stderr")

    fuzz = commands.add_parser(
        "fuzz", help="conformance fuzzing campaign (docs/testing.md)"
    )
    fuzz.add_argument("--seeds", type=int, default=50,
                      help="number of seeds to run (default 50)")
    fuzz.add_argument("--seed-start", type=int, default=0,
                      help="first seed of the range (default 0)")
    fuzz.add_argument("--family", choices=None,
                      help="pin every seed to one generator family")
    fuzz.add_argument("--check", action="append", metavar="NAME",
                      help="run only this invariant check (repeatable; "
                           "default: all)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="delta-debug each failure to a minimal netlist")
    fuzz.add_argument("--report", metavar="PATH",
                      help="write the JSON crash report here; '-' = stdout")
    fuzz.add_argument("--ablate-scaling", action="store_true",
                      help="disable eq. 47 frequency scaling in every AWE "
                           "solve — an injected bug for exercising the "
                           "fuzzer itself")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress the per-failure progress lines")

    sta = commands.add_parser(
        "sta", help="static timing analysis of a design (docs/sta.md)"
    )
    sta.add_argument("design", help="design JSON file ('-' = stdin)")
    sta.add_argument("--k", type=int, default=5,
                     help="critical paths to report per corner (default 5)")
    sta.add_argument("--interconnect", choices=["awe", "elmore"],
                     default="awe",
                     help="net-delay model: AWE waveforms (default) or "
                          "first-moment Elmore")
    sta.add_argument("--corner", action="append", metavar="SPEC",
                     help="analysis corner as NAME[:wire_r=F,wire_c=F,"
                          "cell=F] (repeatable; default: nominal)")
    sta.add_argument("--library", metavar="PATH",
                     help="cell-library JSON (default: the built-in "
                          "five-cell library)")
    sta.add_argument("--server", metavar="URL",
                     help="run on a daemon via POST /sta instead of locally")
    sta.add_argument("--timeout", type=float,
                     help="server-side per-request budget in seconds "
                          "(with --server)")
    sta.add_argument("--retries", type=int, default=2,
                     help="extra attempts for transient failures "
                          "(with --server; default 2)")
    sta.add_argument("--json", metavar="PATH",
                     help="write the repro.sta-report/1 JSON here; "
                          "'-' = stdout")
    sta.add_argument("--markdown", metavar="PATH",
                     help="write the Markdown report here; '-' = stdout")

    serve = commands.add_parser(
        "serve", help="run the long-lived analysis daemon (docs/service.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8040,
                       help="listening port; 0 picks a free one (default 8040)")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent analysis worker threads (default 2)")
    serve.add_argument("--queue-size", type=int, default=16,
                       help="admission bound: waiting requests beyond this "
                            "are refused with HTTP 429 (default 16)")
    serve.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                       help="in-memory result-cache budget (default 64 MiB)")
    serve.add_argument("--cache-dir", metavar="PATH",
                       help="persist cached reports here (restart-warm cache)")
    serve.add_argument("--timeout", type=float,
                       help="default per-request wall-clock budget in seconds")
    serve.add_argument("--faults", metavar="SPEC",
                       help="install a fault-injection plan for this process, "
                            "e.g. 'slow_job=1:x1,http_503=0.1' "
                            "(testing only; see docs/service.md)")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault plan's probability draws "
                            "(default 0)")

    analyze = commands.add_parser(
        "analyze", help="send one deck to a running daemon"
    )
    analyze.add_argument("deck", help="SPICE-style netlist file")
    analyze.add_argument("--server", required=True, metavar="URL",
                         help="daemon base URL, e.g. http://127.0.0.1:8040")
    analyze.add_argument("--node", action="append", required=True,
                         help="output node (repeatable)")
    analyze_group = analyze.add_mutually_exclusive_group()
    analyze_group.add_argument("--order", type=int, help="fixed AWE order")
    analyze_group.add_argument("--target", type=float, default=0.01,
                               help="error target for automatic order "
                                    "(default 0.01)")
    analyze.add_argument("--max-order", type=int, default=8)
    analyze.add_argument("--threshold", type=float,
                         help="logic threshold for an extra delay column (V)")
    analyze.add_argument("--timeout", type=float,
                         help="server-side per-request budget in seconds")
    analyze.add_argument("--reduce", action="store_true",
                         help="ask the server to collapse series RC chains "
                              "before analysis (docs/scaling.md)")
    analyze.add_argument("--retries", type=int, default=2,
                         help="extra attempts for transient failures "
                              "(429/503/connection errors; default 2)")
    analyze.add_argument("--json", metavar="PATH",
                         help="write the raw run-report JSON here; '-' = stdout")

    gateway = commands.add_parser(
        "gateway",
        help="run the sharded gateway over N serve children "
             "(docs/service.md)",
    )
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8050,
                         help="listening port; 0 picks a free one "
                              "(default 8050)")
    gateway.add_argument("--shards", type=int, default=4,
                         help="single-engine worker daemons to spawn "
                              "(default 4)")
    gateway.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                         help="gateway-tier in-memory result-cache budget "
                              "(default 64 MiB)")
    gateway.add_argument("--cache-dir", metavar="PATH",
                         help="shared disk cache directory — the gateway "
                              "and every shard write through to it")
    gateway.add_argument("--timeout", type=float,
                         help="default per-request wall-clock budget in "
                              "seconds")
    gateway.add_argument("--degraded-threshold", type=int, default=3,
                         help="consecutive forward failures before a shard "
                              "is shed (default 3)")
    gateway.add_argument("--shard-queue-size", type=int, default=64,
                         help="admission bound of each shard daemon "
                              "(default 64)")
    gateway.add_argument("--faults", metavar="SPEC",
                         help="install a fault plan in the gateway process, "
                              "e.g. 'shard_crash=1:x3' (testing only)")
    gateway.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the fault plan (default 0)")

    sweep = commands.add_parser(
        "sweep",
        help="incremental what-if sweep: one factorization, many points "
             "(docs/sweep.md)",
    )
    sweep.add_argument("deck", help="SPICE-style netlist file")
    sweep.add_argument("--node", required=True,
                       help="output node the swept moments belong to")
    sweep.add_argument("--point", action="append", metavar="SPEC",
                       help="one perturbation as ELEMENT:scale=F or "
                            "ELEMENT:value=V[,label=TEXT] — engineering "
                            "suffixes welcome (repeatable)")
    sweep.add_argument("--plan", metavar="PATH",
                       help="JSON plan file: a list of point objects or a "
                            "full plan payload ('-' = stdin); combined "
                            "with --point specs in that order")
    sweep.add_argument("--mode", choices=["auto", "first_order", "rank1",
                                          "exact"], default="auto",
                       help="pin every point to one tier (default auto: "
                            "cheapest valid tier per point)")
    sweep.add_argument("--first-order-threshold", type=float, default=0.05,
                       help="largest relative value change the gradient "
                            "tier may serve in auto mode (default 0.05)")
    sweep.add_argument("--error-bound", type=float, default=1e-3,
                       help="largest estimated relative error before a "
                            "point escalates a tier (default 1e-3)")
    sweep.add_argument("--server", metavar="URL",
                       help="run on a daemon/gateway via POST /sweep "
                            "instead of locally")
    sweep.add_argument("--timeout", type=float,
                       help="server-side per-request budget in seconds "
                            "(with --server)")
    sweep.add_argument("--retries", type=int, default=2,
                       help="extra attempts for transient failures "
                            "(with --server; default 2)")
    sweep.add_argument("--json", metavar="PATH",
                       help="write the repro.sweep-report/1 JSON here; "
                            "'-' = stdout")
    sweep.add_argument("--markdown", metavar="PATH",
                       help="write the Markdown report here; '-' = stdout")

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a seeded request mix against a daemon or gateway",
    )
    loadgen.add_argument("--server", required=True, metavar="URL",
                         help="target base URL (daemon or gateway)")
    loadgen.add_argument("--mix", choices=["miss", "hot", "mixed"],
                         default="miss",
                         help="request mix: distinct decks (miss), rounds "
                              "of identical decks (hot), or alternating "
                              "(mixed; default miss)")
    loadgen.add_argument("--requests", type=int, default=64,
                         help="total requests to send (default 64)")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="worker threads / herd width (default 8)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="mix seed — same seed, same byte-identical "
                              "request stream (default 0)")
    loadgen.add_argument("--sections", type=int, default=4,
                         help="RC-ladder sections per generated deck "
                              "(default 4; more = heavier requests)")
    loadgen.add_argument("--retries", type=int, default=2,
                         help="client retries for transient failures "
                              "(default 2)")
    loadgen.add_argument("--json", metavar="PATH",
                         help="write the measurement document here; "
                              "'-' = stdout")
    return parser


def _load(deck_path: str):
    deck = parse_netlist_file(deck_path)
    if deck.title:
        print(f"deck: {deck.title}")
    print(f"  {len(deck.circuit)} elements, {deck.circuit.node_count} nodes, "
          f"{deck.circuit.state_count} state variables")
    return deck


#: Columns of the per-response timing tables of ``report``, ``batch``
#: and ``analyze``.
_TABLE_HEADER = (f"{'node':<8} {'order':>5} {'estimate':>9} {'final':>9} "
                 f"{'50% delay':>11}")


def _table_header(threshold: float | None) -> str:
    return _TABLE_HEADER + ("" if threshold is None else f" {'thr delay':>11}")


def _response_row(record: dict, threshold: float | None) -> str:
    """One run-report response record as a table row; whatever the
    record leaves null (see :func:`repro.report.response_record`) prints
    as n/a."""
    def seconds(value):
        return "n/a" if value is None else fmt(value, "s")

    estimate, final = record["error_estimate"], record["final_value"]
    estimate_text = ("n/a" if estimate is None or not np.isfinite(estimate)
                     else f"{estimate:.3%}")
    final_text = "n/a" if final is None else f"{final:.4f}V"
    line = (f"{record['node']:<8} {record['order']:>5} {estimate_text:>9} "
            f"{final_text:>9} {seconds(record['delay_50_s']):>11}")
    if threshold is not None:
        line += f" {seconds(record['delay_threshold_s']):>11}"
    return line


def _write_text(target: str, text: str) -> None:
    """Write ``text`` to a path, or to stdout when the path is ``-``."""
    if target == "-":
        sys.stdout.write(text)
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {target}", file=sys.stderr)


def cmd_report(args) -> int:
    import time

    from repro.engine import AweJob, BatchEngine
    from repro.report import (
        build_report, render_markdown, response_record, validate_report,
    )

    # Document mode emits machine/human reports; the classic text table is
    # reserved for plain invocations so `--json -` stays valid JSON.
    document_mode = args.json is not None or args.markdown is not None

    jobs = []
    parse_seconds: dict[str, float] = {}
    for path in args.decks:
        started = time.perf_counter()
        deck = parse_netlist_file(path) if document_mode else _load(path)
        label = deck.title or path
        parse_seconds[label] = (
            parse_seconds.get(label, 0.0) + time.perf_counter() - started
        )
        jobs.append(
            AweJob(
                deck.circuit,
                tuple(args.node),
                stimuli=deck.stimuli,
                order=args.order,
                error_target=args.target,
                max_order=args.max_order,
                label=label,
                reduce=args.reduce,
            )
        )

    engine = BatchEngine(timeout=args.timeout)
    results = engine.run(jobs, trace=document_mode)
    failures = [result for result in results if not result.ok]

    if document_mode:
        document = validate_report(
            build_report(
                results,
                engine_stats=engine.stats(),
                parse_seconds=parse_seconds,
                threshold=args.threshold,
            )
        )
        if args.json is not None:
            _write_text(args.json, json.dumps(document, indent=2) + "\n")
        if args.markdown is not None:
            _write_text(args.markdown, render_markdown(document))
        for result in failures:
            print(f"error: {result.label}: [{result.error_type}] {result.error}",
                  file=sys.stderr)
        return 1 if failures else 0

    for result in results:
        if not result.ok:
            continue
        title = ("AWE timing report:" if len(results) == 1
                 else f"AWE timing report: {result.label}")
        print(f"\n{title}")
        print(f"  {_table_header(args.threshold)}")
        for node, response in result.responses.items():
            record = response_record(node, response, args.threshold)
            print(f"  {_response_row(record, args.threshold)}")
    for result in failures:
        print(f"error: {result.label}: [{result.error_type}] {result.error}",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_poles(args) -> int:
    deck = _load(args.deck)
    system = MnaSystem(deck.circuit)
    decomposition = circuit_poles(system)
    print(f"\nexact poles ({decomposition.order}), dominant first:")
    for pole in decomposition.sorted_by_dominance():
        imag = f" {pole.imag:+.6e}j" if pole.imag else ""
        print(f"  {pole.real:+.6e}{imag}")
    if args.order is not None:
        if not args.node:
            print("error: --order needs --node", file=sys.stderr)
            return 2
        analyzer = AweAnalyzer(deck.circuit, deck.stimuli)
        response = analyzer.response(args.node, order=args.order)
        print(f"\nAWE poles, order {args.order} at node {args.node}:")
        for pole in response.poles:
            imag = f" {pole.imag:+.6e}j" if pole.imag else ""
            print(f"  {pole.real:+.6e}{imag}")
    return 0


def cmd_simulate(args) -> int:
    deck = _load(args.deck)
    result = simulate(deck.circuit, deck.stimuli, args.t_stop,
                      refine_tolerance=args.tolerance)
    waveforms = {node: result.voltage(node) for node in args.node}
    print(f"\ntransient: {len(result.times)} points, "
          f"{result.refinements} refinement(s)")
    for node, waveform in waveforms.items():
        print(f"  v({node}): {waveform.values[0]:.4f} V -> "
              f"{waveform.values[-1]:.4f} V, extrema "
              f"[{waveform.values.min():.4f}, {waveform.values.max():.4f}]")
    if args.csv:
        header = "time," + ",".join(f"v({n})" for n in args.node)
        table = np.column_stack(
            [result.times] + [waveforms[n].values for n in args.node]
        )
        np.savetxt(args.csv, table, delimiter=",", header=header, comments="")
        print(f"wrote {args.csv}")
    return 0


def cmd_sensitivity(args) -> int:
    from repro.core.sensitivity import delay_sensitivities

    deck = _load(args.deck)
    # The gradient is defined on the post-switch levels: each stimulus's
    # final value (the parser stores the *pre*-switch level on the element).
    levels = {name: stim.final_value for name, stim in deck.stimuli.items()}
    sens = delay_sensitivities(deck.circuit, args.node, levels)
    print(f"\nfirst-moment (Elmore) delay at {args.node}: "
          f"{fmt(sens.elmore_delay, 's')}")
    print(f"top {args.top} contributors (x·dT/dx — delay bought per unit "
          "relative change):")
    for name, value in sens.top_contributors(args.top):
        element = deck.circuit[name]
        nominal = getattr(element, "resistance", None)
        unit = "ohm"
        if nominal is None:
            nominal, unit = element.capacitance, "F"
        print(f"  {name:<10} {fmt(value, 's'):>10}   (nominal {fmt(nominal, unit)})")
    return 0


def cmd_batch(args) -> int:
    from repro.engine import AweJob, BatchEngine
    from repro.errors import ReproError as _ReproError
    from repro.report import response_record

    jobs = []
    parse_failures: list[tuple[str, str]] = []
    for path in args.decks:
        try:
            deck = parse_netlist_file(path)
        except (FileNotFoundError, _ReproError) as exc:
            parse_failures.append((path, str(exc)))
            continue
        jobs.append(
            AweJob(
                deck.circuit,
                tuple(args.node),
                stimuli=deck.stimuli,
                order=args.order,
                error_target=args.target,
                max_order=args.max_order,
                label=deck.title or path,
                reduce=args.reduce,
            )
        )

    engine = BatchEngine(timeout=args.timeout)
    results = engine.run(jobs)

    print(f"batch: {len(jobs)} job(s)")
    print(f"  {'deck':<24} {_table_header(None)}")
    failed = len(parse_failures)
    for result in results:
        if not result.ok:
            failed += 1
            print(f"  {result.label:<24} FAILED [{result.error_type}] {result.error}")
            continue
        for node, response in result.responses.items():
            row = _response_row(response_record(node, response), None)
            print(f"  {result.label:<24} {row}")
    for path, message in parse_failures:
        print(f"  {path:<24} FAILED [parse] {message}")

    if args.stats or args.stats_json:
        # One JSON object, kept off stdout so the per-job table stays
        # clean and the stats block stays machine-parseable.
        stats_text = json.dumps(engine.stats(), sort_keys=True)
        if args.stats_json:
            with open(args.stats_json, "w", encoding="utf-8") as handle:
                handle.write(stats_text + "\n")
            print(f"wrote {args.stats_json}", file=sys.stderr)
        else:
            print(stats_text, file=sys.stderr)
    if failed:
        print(f"\n{failed} of {len(jobs) + len(parse_failures)} job(s) failed")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    from repro.conformance import FAMILIES, CHECKS, FuzzConfig, run_fuzz

    if args.family is not None and args.family not in FAMILIES:
        print(f"error: unknown family {args.family!r}; known: "
              f"{', '.join(sorted(FAMILIES))}", file=sys.stderr)
        return 2
    for name in args.check or ():
        if name not in CHECKS:
            print(f"error: unknown check {name!r}; known: "
                  f"{', '.join(CHECKS)}", file=sys.stderr)
            return 2

    config = FuzzConfig(checks=tuple(args.check or ()),
                        use_scaling=not args.ablate_scaling)

    def progress(event: dict) -> None:
        if args.quiet or not event["failures"]:
            return
        print(f"  seed {event['seed']} ({event['family']}): "
              f"{event['failures']} failing check(s)", file=sys.stderr)

    report = run_fuzz(
        range(args.seed_start, args.seed_start + args.seeds),
        config=config,
        family=args.family,
        shrink=args.shrink,
        progress=progress,
    )
    if args.report is not None:
        _write_text(args.report, json.dumps(report, indent=2, sort_keys=True) + "\n")

    # With `--report -` the JSON owns stdout; the human summary moves to
    # stderr so the output stays parseable.
    out = sys.stderr if args.report == "-" else sys.stdout
    totals = report["totals"]
    print(f"fuzz: {totals['cases']} case(s), {totals['checks']} check run(s): "
          f"{totals['passes']} passed, {totals['skips']} skipped, "
          f"{totals['violations']} violation(s), {totals['crashes']} crash(es)",
          file=out)
    for record in report["failures"]:
        what = (record["error"]["type"] + ": " + record["error"]["message"]
                if record["kind"] == "crash"
                else "; ".join(record["violations"]))
        shrunk = record.get("shrunk")
        suffix = (f" [shrunk to {shrunk['elements']} elements]"
                  if shrunk and "elements" in shrunk else "")
        print(f"  FAIL seed {record['seed']} {record['check']}: {what}{suffix}",
              file=out)
    return 0 if report["ok"] else 1


def _parse_corner_spec(spec: str) -> dict:
    """``NAME[:wire_r=F,wire_c=F,cell=F]`` → a ``/sta`` corner object."""
    name, _, rest = spec.partition(":")
    if not name:
        raise ReproError(f"corner spec {spec!r} needs a name")
    corner = {"name": name}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or key not in ("wire_r", "wire_c", "cell"):
                raise ReproError(
                    f"corner spec {spec!r}: expected wire_r=, wire_c= or "
                    f"cell= assignments, got {item!r}")
            try:
                corner[key] = float(value)
            except ValueError:
                raise ReproError(
                    f"corner spec {spec!r}: {key} must be a number, "
                    f"got {value!r}") from None
    return corner


def _read_json(path: str):
    """The JSON document in a file, or on stdin when the path is ``-``."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not valid JSON: {exc}") from None


def _read_deck(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _payload(**fields) -> dict:
    """A request payload: the fields that are not ``None``."""
    return {name: value for name, value in fields.items()
            if value is not None}


def _answer(args, kind: str, payload: dict):
    """Answer one ``kind`` request: POSTed to ``--server`` when given,
    else in process.  Both paths parse and run it through the endpoint's
    row of :data:`repro.service.server.ENDPOINTS` and return a
    :class:`repro.service.Outcome`."""
    if args.server is None:
        from repro.service import answer

        try:
            return answer(kind, payload)
        except ValueError as exc:  # a request the daemon refuses with 400
            raise ReproError(str(exc)) from None
    from repro.service import AnalysisClient

    outcome = AnalysisClient(args.server, retries=args.retries).call(
        kind, payload)
    print(f"server: {args.server} "
          f"[{'cache hit' if outcome.cached else 'computed'}, "
          f"{outcome.server_elapsed_s * 1e3:.2f} ms server-side]",
          file=sys.stderr)
    return outcome


def _emit(args, outcome, render) -> bool:
    """Write the outcome's ``--json`` body and ``--markdown`` rendering;
    whether either was asked for."""
    if args.json is not None:
        _write_text(args.json, outcome.body.decode("utf-8"))
    if args.markdown is not None:
        _write_text(args.markdown, render(outcome.document))
    return args.json is not None or args.markdown is not None


def cmd_sta(args) -> int:
    from repro.report import render_sta_markdown

    outcome = _answer(args, "sta", _payload(
        design=_read_json(args.design), k=args.k,
        corners=([_parse_corner_spec(spec) for spec in args.corner]
                 if args.corner else None),
        interconnect=args.interconnect,
        library=(None if args.library is None
                 else _read_json(args.library)),
        timeout=args.timeout))
    if _emit(args, outcome, render_sta_markdown):
        return 0
    document = outcome.document
    worst = document["worst_slack_s"]
    worst_text = "unconstrained" if worst is None else fmt(worst, "s")
    print(f"STA: {document['design']} "
          f"[{document['interconnect']}] worst slack {worst_text}")
    for corner in document["corners"]:
        print(f"\ncorner {corner['name']}: {corner['nodes']} nodes, "
              f"{corner['edges']} edges")
        print(f"  {'#':>2} {'slack':>12} {'endpoint':<18} path")
        for entry in corner["paths"]:
            chain = " > ".join(entry["nodes"])
            print(f"  {entry['rank']:>2} {fmt(entry['slack_s'], 's'):>12} "
                  f"{entry['endpoint']:<18} {chain}")
    return 0


def cmd_serve(args) -> int:
    from repro.service import serve

    def announce(server):
        # The parseable "where am I" line smoke tests and wrappers key on;
        # flushed immediately so a --port 0 caller can read the real port.
        print(f"repro service listening on {server.url}", flush=True)
        print(f"  workers={args.workers} queue_size={args.queue_size} "
              f"cache_bytes={args.cache_bytes}"
              + (f" cache_dir={args.cache_dir}" if args.cache_dir else "")
              + (f" faults={args.faults!r}" if args.faults else ""),
              flush=True)

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache_bytes=args.cache_bytes,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        fault_spec=args.faults,
        fault_seed=args.fault_seed,
        announce=announce,
    )


def cmd_analyze(args) -> int:
    outcome = _answer(args, "analyze", _payload(
        deck=_read_deck(args.deck), nodes=args.node, order=args.order,
        error_target=None if args.order is not None else args.target,
        max_order=args.max_order, threshold=args.threshold,
        timeout=args.timeout, reduce=True if args.reduce else None))
    if args.json is not None:
        _write_text(args.json, outcome.body.decode("utf-8"))
    else:
        for job in outcome.document["jobs"]:
            print(f"\nAWE timing report: {job['label']}")
            print(f"  {_table_header(args.threshold)}")
            for response in job["responses"]:
                print(f"  {_response_row(response, args.threshold)}")
    failures = [job for job in outcome.document["jobs"] if not job["ok"]]
    for job in failures:
        print(f"error: {job['label']}: [{job['error_type']}] {job['error']}",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_gateway(args) -> int:
    from repro.gateway import serve_gateway

    def announce(server):
        # Same parseable shape as serve's announce line, s/service/gateway/.
        print(f"repro gateway listening on {server.url}", flush=True)
        shard_urls = " ".join(
            shard.url for shard in server.service.shards)
        print(f"  shards={args.shards} cache_bytes={args.cache_bytes}"
              + (f" cache_dir={args.cache_dir}" if args.cache_dir else "")
              + (f" faults={args.faults!r}" if args.faults else ""),
              flush=True)
        print(f"  shard urls: {shard_urls}", flush=True)

    return serve_gateway(
        host=args.host,
        port=args.port,
        shards=args.shards,
        cache_bytes=args.cache_bytes,
        cache_dir=args.cache_dir,
        timeout=args.timeout,
        degraded_threshold=args.degraded_threshold,
        shard_queue_size=args.shard_queue_size,
        fault_spec=args.faults,
        fault_seed=args.fault_seed,
        announce=announce,
    )


def _parse_point_spec(spec: str) -> dict:
    """``ELEMENT:scale=F`` / ``ELEMENT:value=V[,label=TEXT]`` → point dict."""
    from repro.circuit.units import parse_value

    element, sep, rest = spec.partition(":")
    if not element or not sep or not rest:
        raise ReproError(
            f"malformed point spec {spec!r}; expected "
            "ELEMENT:scale=F or ELEMENT:value=V[,label=TEXT]")
    point: dict = {"element": element}
    for assignment in rest.split(","):
        name, sep, raw = assignment.partition("=")
        name = name.strip()
        if not sep or name not in ("scale", "value", "label"):
            raise ReproError(
                f"malformed point spec {spec!r}: bad field {assignment!r}")
        point[name] = raw if name == "label" else parse_value(raw.strip())
    if ("scale" in point) == ("value" in point):
        raise ReproError(
            f"point spec {spec!r} needs exactly one of scale= or value=")
    return point


def cmd_sweep(args) -> int:
    from repro.report import render_sweep_markdown

    points = [_parse_point_spec(spec) for spec in (args.point or [])]
    plan: dict = {}
    if args.plan is not None:
        plan = _read_json(args.plan)
        if isinstance(plan, list):
            plan = {"points": plan}
        elif not isinstance(plan, dict):
            raise ReproError("--plan must be a JSON list or object")
        points.extend(plan.get("points", []))
    if not points:
        raise ReproError("no sweep points: give --point and/or --plan")

    outcome = _answer(args, "sweep", _payload(
        deck=_read_deck(args.deck), node=args.node, points=points,
        mode=plan.get("mode", args.mode),
        first_order_threshold=plan.get("first_order_threshold",
                                       args.first_order_threshold),
        error_bound=plan.get("error_bound", args.error_bound),
        timeout=args.timeout))
    if _emit(args, outcome, render_sweep_markdown):
        return 0
    document = outcome.document
    base = document["base"]
    stats = document["stats"]
    print(f"sweep: node {document['node']}, "
          f"base Elmore delay {fmt(base['elmore_delay'], 's')}")
    print(f"  {len(document['points'])} point(s): "
          f"{document['incremental_points']} incremental "
          f"(first_order {stats['first_order']}, rank1 {stats['rank1']}), "
          f"{stats['exact']} exact, {stats['fallbacks']} fallback(s), "
          f"{stats['factorizations']} extra factorization(s)")
    print(f"  {'element':<10} {'value':>12} {'mode':<13} "
          f"{'dc':>9} {'Elmore delay':>13} {'est. err':>9}")
    for entry in document["points"]:
        estimate = entry["error_estimate"]
        mode = entry["mode"] + ("*" if entry["fallback"] else "")
        print(f"  {entry['element']:<10} {entry['value']:>12.6g} "
              f"{mode:<13} {entry['dc']:>9.4g} "
              f"{fmt(entry['elmore_delay'], 's'):>13} "
              f"{'n/a' if estimate is None else f'{estimate:.2g}':>9}")
    if any(entry["fallback"] for entry in document["points"]):
        print("  (* demoted tier; see the sweep_fallback trace events)")
    return 0


def cmd_loadgen(args) -> int:
    from repro.gateway import build_mix, coalesced_delta, run_loadgen
    from repro.service import AnalysisClient, ServiceError

    payloads = build_mix(args.mix, args.requests,
                         concurrency=args.concurrency, seed=args.seed,
                         sections=args.sections)
    probe = AnalysisClient(args.server, retries=0)
    try:
        before = probe.metrics()
    except (ServiceError, OSError) as exc:
        print(f"error: cannot reach {args.server}: {exc}", file=sys.stderr)
        return 2
    document = run_loadgen(args.server, payloads,
                           concurrency=args.concurrency,
                           retries=args.retries)
    document["mix"] = args.mix
    document["seed"] = args.seed
    document["coalesced"] = coalesced_delta(before, probe.metrics())

    if args.json is not None:
        _write_text(args.json, json.dumps(document, indent=2,
                                          sort_keys=True) + "\n")
    out = sys.stderr if args.json == "-" else sys.stdout
    print(f"loadgen: {document['requests']} request(s) "
          f"[{args.mix}] x{args.concurrency} against {args.server}", file=out)
    print(f"  {document['rps']:.1f} RPS, p50 {document['p50_ms']:.2f} ms, "
          f"p99 {document['p99_ms']:.2f} ms, "
          f"{document['cache_hits']} cache hit(s), "
          f"{document['coalesced']} coalesced, "
          f"{document['failed']} failure(s)", file=out)
    for failure in document["failures"][:5]:
        print(f"  FAIL request {failure['index']}: {failure['error']}",
              file=out)
    return 1 if document["failed"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "report": cmd_report,
        "poles": cmd_poles,
        "simulate": cmd_simulate,
        "sensitivity": cmd_sensitivity,
        "batch": cmd_batch,
        "fuzz": cmd_fuzz,
        "sta": cmd_sta,
        "serve": cmd_serve,
        "analyze": cmd_analyze,
        "gateway": cmd_gateway,
        "sweep": cmd_sweep,
        "loadgen": cmd_loadgen,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
