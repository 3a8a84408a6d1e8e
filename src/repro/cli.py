"""Command-line interface: ``python -m repro.cli``.

Mirrors how BDS itself was used as a tool::

    python -m repro.cli optimize input.blif -o output.blif [--flow bds|sis]
        [--verify [sim|cec|full]] [--map | --lut K] [--balance] [--stats]
        [--check LEVEL] [--trace FILE] [--json]
        [--cache-dir DIR]
    python -m repro.cli generate bshift32 -o bshift32.blif
    python -m repro.cli verify a.blif b.blif [--mode sim|cec|full]
    python -m repro.cli check input.blif [--level cheap|full]
    python -m repro.cli lint [paths...] [--format text|json]
        [--baseline FILE] [--write-baseline] [--select CODES]
    python -m repro.cli fuzz [--minutes N] [--seed S] [--jobs J]
        [--corpus DIR]
    python -m repro.cli batch <dir-or-files...> [--cache-dir DIR]
        [--jobs J] [--timeout S] [--out-dir DIR] [--json]
    python -m repro.cli serve [--cache-dir DIR] [--jobs J] [--timeout S]
        [--socket PATH | --port N [--host H]] [--backlog N]
    python -m repro.cli client <dir-or-files...>
        (--socket PATH | --port N [--host H]) [--timeout S]
        [--out-dir DIR] [--json]
    python -m repro.cli bench [circuits...] [--out FILE]
        [--compare BASELINE]

Exit codes: 0 clean; 1 failure (verification mismatch, lint violation,
fuzz find, failed/timed-out batch or client job, bench regression,
unreachable server); 2 inconclusive (outputs the size-capped verifier
could not prove, bench baselines not comparable) or parse error for
``check``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bds import BDSOptions, bds_optimize
from repro.check import lint_network
from repro.circuits import build_circuit
from repro.mapping import map_network
from repro.mapping.lut import map_luts
from repro.network import parse_blif, write_blif
from repro.sis import script_rugged
from repro.verify import DEFAULT_SIZE_CAP, VerifyError, verify_networks


def _cmd_optimize(args) -> int:
    with open(args.input) as fh:
        source = fh.read()
    net = parse_blif(source)
    verify_mode = args.verify or "off"
    unknown = []
    perf = {}
    tracer = None
    if getattr(args, "trace", None):
        if args.flow != "bds":
            print("--trace requires --flow bds", file=sys.stderr)
            return 1
        from repro.obs.trace import Tracer

        tracer = Tracer()
    t0 = time.perf_counter()
    if args.flow == "bds":
        options = BDSOptions(balance_trees=args.balance,
                             check_level=args.check,
                             verify=verify_mode)
        if args.cache_dir:
            from repro.service import (ArtifactCache, OptimizationService,
                                       ServiceRequest)

            # Through the service: a cache hit skips the flow; a miss runs
            # it in a worker process and stores the artifact.
            service = OptimizationService(cache=ArtifactCache(args.cache_dir))
            request = ServiceRequest(blif=source, options=options,
                                     name=args.input,
                                     trace=tracer is not None)
            if tracer is None:
                reply = service.optimize_one(request)
            else:
                # Grafted inside the request's span, the worker's spans
                # start where the request started, not at reply time.
                with tracer.span("service.request") as span:
                    reply = service.optimize_one(request)
                    span.attrs["cached"] = reply.cached
                    if reply.trace:
                        tracer.graft(reply.trace)
            if not reply.ok:
                print("optimization %s: %s" % (reply.status, reply.error),
                      file=sys.stderr)
                return 1
            optimized = parse_blif(reply.blif)
            unknown = reply.verify_unknown_outputs
            perf = reply.perf
        else:
            try:
                result = bds_optimize(net, options, tracer=tracer)
            except VerifyError as exc:
                print("VERIFICATION FAILED (%s) at output %s, e.g. %r"
                      % (exc.mode, exc.failing_output, exc.counterexample),
                      file=sys.stderr)
                return 1
            optimized = result.network
            unknown = result.verify_unknown_outputs
            perf = result.perf
            if args.stats:
                print("decompositions:", result.decomp_stats.as_dict(),
                      file=sys.stderr)
    else:
        optimized = script_rugged(net).network
        if verify_mode != "off":
            outcome = verify_networks(net, optimized, mode=verify_mode)
            if not outcome.equivalent:
                print("VERIFICATION FAILED (%s) at output %s, e.g. %r"
                      % (outcome.mode, outcome.failing_output,
                         outcome.counterexample), file=sys.stderr)
                return 1
            unknown = outcome.unknown_outputs
    cpu = time.perf_counter() - t0
    if tracer is not None:
        with open(args.trace, "w") as fh:
            json.dump(tracer.to_chrome(), fh, sort_keys=True)
        print("trace: %d span(s) -> %s (chrome://tracing / ui.perfetto.dev)"
              % (len(tracer.to_chrome()["traceEvents"]), args.trace),
              file=sys.stderr)
    if args.stats:
        print("in: %s" % net.stats(), file=sys.stderr)
        print("out: %s  (%.2fs)" % (optimized.stats(), cpu), file=sys.stderr)
    if verify_mode != "off":
        print("verified (%s): result equivalent to input%s"
              % (verify_mode,
                 "" if not unknown else "; %d output(s) UNPROVEN: %s"
                 % (len(unknown), ", ".join(sorted(unknown)))),
              file=sys.stderr)
    emit = optimized
    if args.map:
        mapped = map_network(optimized)
        print("mapped: %s" % mapped.summary(), file=sys.stderr)
        emit = mapped.network
    elif args.lut:
        mapped = map_luts(optimized, k=args.lut)
        print("mapped: %s" % mapped.summary(), file=sys.stderr)
        emit = mapped.network
    text = write_blif(emit)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    elif not args.json:
        sys.stdout.write(text)
    # Unproven outputs are not a pass: distinct exit code so scripts notice.
    rc = 2 if unknown else 0
    if args.json:
        # One JSON object on stdout: the flow's perf counters (incl. the
        # artifact_cache_* traffic when --cache-dir is given) plus the
        # run facts scripts key on.  The BLIF goes to -o, never stdout.
        obj = {
            "input": net.stats(),
            "output": optimized.stats(),
            "cpu_s": round(cpu, 6),
            "verify_mode": verify_mode,
            "verify_unknown_outputs": sorted(unknown),
            "cached": bool(perf.get("artifact_cache_hits", 0)),
            "perf": perf,
            "exit_code": rc,
        }
        print(json.dumps(obj, sort_keys=True))
    return rc


def _cmd_generate(args) -> int:
    net = build_circuit(args.circuit)
    text = write_blif(net)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    """Equivalence-check two BLIFs.

    Exit 0 when every output is proven equivalent, 1 on a mismatch, and 2
    when some outputs stayed unproven (size cap hit) -- "inconclusive" is
    not a pass, and the unproven output names are reported.
    """
    with open(args.a) as fh:
        net_a = parse_blif(fh.read())
    with open(args.b) as fh:
        net_b = parse_blif(fh.read())
    outcome = verify_networks(net_a, net_b, mode=args.mode,
                              size_cap=args.size_cap, seed=args.seed)
    if not outcome.equivalent:
        print("NOT equivalent (%s): output %s differs under %r"
              % (outcome.mode, outcome.failing_output,
                 outcome.counterexample))
        return 1
    if outcome.unknown_outputs:
        total = outcome.outputs_checked + len(outcome.unknown_outputs)
        print("inconclusive (%s): %d of %d output(s) UNPROVEN: %s"
              % (outcome.mode, len(outcome.unknown_outputs), total,
                 ", ".join(sorted(outcome.unknown_outputs))))
        return 2
    print("equivalent (%s, %d outputs%s)"
          % (outcome.mode, outcome.outputs_checked,
             "" if outcome.proven else ", simulation only"))
    return 0


def _cmd_fuzz(args) -> int:
    """Differential fuzzing: random netlists x random flow options.

    Every failure is shrunk and written to the corpus directory; exit 1
    when anything was found.
    """
    from repro.fuzz import run_fuzz

    report = run_fuzz(budget_seconds=args.minutes * 60.0, seed=args.seed,
                      jobs=args.jobs, corpus_dir=args.corpus,
                      max_failures=args.max_failures,
                      shrink_checks=args.shrink_checks,
                      log=lambda msg: print(msg, file=sys.stderr))
    print(report.summary())
    for i, rec in enumerate(report.failures, 1):
        print("  #%d %s/%s %s (%d -> %d nodes)%s"
              % (i, rec.failure.kind, rec.failure.stage, rec.failure.detail,
                 rec.original_nodes, rec.shrunk_nodes,
                 " -> %s" % rec.corpus_path if rec.corpus_path else ""))
    return 1 if report.failures else 0


def _batch_inputs(paths) -> list:
    """Expand file/directory arguments to a sorted BLIF file list."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(os.path.join(path, name)
                         for name in sorted(os.listdir(path))
                         if name.endswith(".blif"))
        else:
            files.append(path)
    return files


def _service_from_args(args):
    from repro.service import ArtifactCache, OptimizationService

    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    return OptimizationService(cache=cache, max_workers=args.jobs,
                               default_timeout=args.timeout)


def _cmd_batch(args) -> int:
    """Optimize a set of BLIFs through the service (cache + scheduler).

    Exit 0 when every job succeeded and was fully proven, 1 when any job
    failed / timed out / was cancelled, 2 when all jobs succeeded but
    some outputs stayed UNPROVEN under the verifier's cap.
    """
    from repro.service import ServiceRequest

    files = _batch_inputs(args.inputs)
    if not files:
        print("batch: no BLIF inputs found", file=sys.stderr)
        return 1
    options = BDSOptions(balance_trees=args.balance, check_level=args.check,
                         verify=args.verify or "off")
    service = _service_from_args(args)
    requests = []
    for path in files:
        with open(path) as fh:
            requests.append(ServiceRequest(blif=fh.read(), options=options,
                                           name=path, timeout=args.timeout))
    t0 = time.perf_counter()
    responses = service.process(requests)
    elapsed = time.perf_counter() - t0
    replies = [r.to_json_obj() for r in responses]
    return _report_replies(
        "batch", args, files, replies, elapsed,
        cache_hits=sum(r["perf"].get("artifact_cache_hits", 0)
                       for r in replies),
        cache_misses=sum(r["perf"].get("artifact_cache_misses", 0)
                         for r in replies),
        cache=(service.cache.perf_snapshot()
               if service.cache is not None else {}))


def _report_replies(command, args, files, replies, elapsed, **extra) -> int:
    """The end of ``batch`` and ``client``, over reply dicts aligned
    with ``files``: write each ok reply's BLIF to ``--out-dir``, print a
    line per file and the JSON (plus ``extra``) or text summary, and
    return the exit code of ``_cmd_batch``'s docstring."""
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for path, reply in zip(files, replies):
        status = reply.get("status", "failed")
        if args.out_dir and status == "ok" and reply.get("blif") is not None:
            stem = os.path.splitext(os.path.basename(path))[0]
            with open(os.path.join(args.out_dir, stem + ".opt.blif"),
                      "w") as fh:
                fh.write(reply["blif"])
        if not args.json:
            note = "cached" if reply.get("cached") \
                else "%.2fs" % reply.get("elapsed", 0.0)
            print("%-40s %-9s %s%s"
                  % (path, status, note,
                     " [%s]" % reply["error"] if reply.get("error") else ""),
                  file=sys.stderr)
    ok = sum(r.get("status") == "ok" for r in replies)
    if args.json:
        obj = dict(extra, files=files, elapsed_s=round(elapsed, 6),
                   results=[{k: v for k, v in r.items() if k != "blif"}
                            for r in replies])
        print(json.dumps(obj, sort_keys=True))
    else:
        print("%s: %d file(s) in %.2fs -- %d ok (%d cached), %d failed"
              % (command, len(files), elapsed, ok,
                 sum(bool(r.get("cached")) for r in replies),
                 len(replies) - ok), file=sys.stderr)
    if ok < len(replies):
        return 1
    return 2 if any(r.get("verify_unknown_outputs") for r in replies) else 0


def _cmd_serve(args) -> int:
    """Long-lived JSON-lines daemon.

    Default transport is stdin/stdout (one stream); ``--socket PATH`` /
    ``--port N`` instead serves many concurrent clients with a SIGTERM
    drain.  Both speak one protocol -- see docs/SERVICE.md.
    """
    from repro.service.server import SocketServer, serve_stdio

    service = _service_from_args(args)
    if args.socket or args.port is not None:
        server = SocketServer(service, socket_path=args.socket,
                              host=args.host, port=args.port,
                              backlog=args.backlog)
        server.serve_forever()
        print("serve: drained cleanly", file=sys.stderr)
        return 0
    served = serve_stdio(service, sys.stdin, sys.stdout, backlog=args.backlog)
    print("serve: handled %d request(s)" % served, file=sys.stderr)
    return 0


def _cmd_client(args) -> int:
    """Send BLIFs to a running ``repro serve --socket/--port`` server.

    Same exit contract as ``batch``: 0 all ok and proven, 1 any job
    failed / timed out / was cancelled (or the server is unreachable),
    2 all ok but some outputs UNPROVEN.  Overloaded replies are retried
    with jittered exponential backoff before giving up.
    """
    from repro.service.client import ServiceClient, ServiceUnavailable

    if (args.socket is None) == (args.port is None):
        print("client: exactly one of --socket / --port is required",
              file=sys.stderr)
        return 1
    files = _batch_inputs(args.inputs)
    if not files:
        print("client: no BLIF inputs found", file=sys.stderr)
        return 1
    options = BDSOptions(verify=args.verify or "off").to_dict()
    requests = []
    for path in files:
        with open(path) as fh:
            requests.append({"blif": fh.read(), "options": options,
                             "timeout": args.timeout})
    client = ServiceClient(socket_path=args.socket, host=args.host,
                           port=args.port, retries=args.retries)
    t0 = time.perf_counter()
    try:
        with client:
            responses = client.request_many(requests)
    except ServiceUnavailable as exc:
        print("client: %s" % exc, file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    return _report_replies("client", args, files, responses, elapsed,
                           backpressure_retries=client.backpressure_seen)


def _cmd_lint(args) -> int:
    """Static analysis over Python sources (exit 0/1/2, docs/LINTING.md)."""
    from repro.lint import (BaselineError, LintConfig, empty_baseline,
                            lint_paths, load_baseline, write_baseline)
    from repro.lint.reporters import (render_json, render_rule_catalog,
                                      render_text)

    config = LintConfig()
    if args.select:
        config.select = frozenset(
            code.strip().upper() for code in args.select.split(","))
    if args.list_rules:
        render_rule_catalog(sys.stdout, config)
        return 0
    baseline = empty_baseline()
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and os.path.exists("lint-baseline.json"):
        baseline_path = "lint-baseline.json"
    if baseline_path is not None and not args.no_baseline \
            and not args.write_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print("lint: %s" % exc, file=sys.stderr)
            return 2
    report = lint_paths(args.paths, config, baseline)
    if args.write_baseline:
        out = baseline_path or "lint-baseline.json"
        write_baseline(out, report.findings)
        print("lint: wrote %d entr%s to %s (edit the justifications "
              "before committing)"
              % (len(report.findings),
                 "y" if len(report.findings) == 1 else "ies", out),
              file=sys.stderr)
        return 0
    if args.format == "json":
        render_json(report, sys.stdout, config)
    else:
        render_text(report, sys.stdout, config)
    return report.exit_code()


def _cmd_bench(args) -> int:
    """Run the standard flow bench set; optionally diff a baseline.

    ``--compare BASELINE`` turns the run into a work gate: exit 0 when
    nodes, literals and every counter, total and per phase, equal the
    baseline's, 1 when one differs or is on one side only, 2 when the
    runs are not comparable (schema drift, missing circuits, broken
    counters).  Without ``--compare`` the payload is written/printed and
    the exit is 0.
    """
    from repro.obs.regress import (DEFAULT_BENCH_CIRCUITS,
                                   collect_flow_payload, compare_payloads,
                                   load_baseline)

    circuits = tuple(args.circuits) if args.circuits \
        else DEFAULT_BENCH_CIRCUITS
    payload = collect_flow_payload(circuits)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("bench: wrote %d circuit(s) to %s"
              % (len(payload["circuits"]), args.out), file=sys.stderr)
    if args.compare is None:
        if not args.out:
            print(json.dumps(payload, sort_keys=True))
        return 0
    try:
        baseline = load_baseline(args.compare)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print("bench: cannot load baseline: %s" % exc, file=sys.stderr)
        return 2
    report = compare_payloads(baseline, payload)
    print(report.render())
    return report.exit_code()


def _cmd_check(args) -> int:
    """Lint a BLIF netlist; exit 1 on violations, 2 on parse errors."""
    with open(args.input) as fh:
        text = fh.read()
    try:
        net = parse_blif(text, validate=False)
    except ValueError as exc:
        print("%s: PARSE ERROR: %s" % (args.input, exc), file=sys.stderr)
        return 2
    report = lint_network(net, level=args.level, subject=args.input,
                          raise_on_violation=False)
    if report.violations:
        for v in report.violations:
            print("%s: %s" % (args.input, v), file=sys.stderr)
        print("%s: FAILED -- %d violation(s) of %s"
              % (args.input, len(report.violations),
                 ", ".join(report.invariants())), file=sys.stderr)
        return 1
    print("%s: clean (%d nodes, %d outputs, %s lint)"
          % (args.input, report.stats.get("nodes", 0),
             report.stats.get("outputs", 0), args.level))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="BDS reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="optimize a BLIF netlist")
    p_opt.add_argument("input")
    p_opt.add_argument("-o", "--output")
    p_opt.add_argument("--flow", choices=["bds", "sis"], default="bds")
    p_opt.add_argument("--verify", nargs="?", const="cec", default=None,
                       choices=["sim", "cec", "full"], metavar="MODE",
                       help="verify the result against the input inside the "
                            "flow (sim|cec|full; bare --verify means cec); "
                            "up to 20 inputs every mode compares full truth "
                            "tables, a proof; mismatch exits 1, unproven "
                            "outputs exit 2")
    p_opt.add_argument("--map", action="store_true",
                       help="map onto the mcnc-style cell library")
    p_opt.add_argument("--lut", type=int, metavar="K",
                       help="map onto K-input LUTs")
    p_opt.add_argument("--balance", action="store_true",
                       help="balance factoring trees (delay)")
    p_opt.add_argument("--stats", action="store_true")
    p_opt.add_argument("--check", choices=["off", "cheap", "full"],
                       default="off",
                       help="run the BDD/network invariant sanitizer at "
                            "flow safe points")
    p_opt.add_argument("--trace", metavar="FILE",
                       help="record a span trace of the flow and write it "
                            "as Chrome trace_event JSON (load in "
                            "chrome://tracing or ui.perfetto.dev)")
    p_opt.add_argument("--json", action="store_true",
                       help="print the run's perf counters (incl. "
                            "artifact-cache traffic) as one JSON object "
                            "on stdout; the network then only goes to -o")
    p_opt.add_argument("--cache-dir", metavar="DIR",
                       help="optimize through the service with this "
                            "content-addressed artifact cache: a prior "
                            "result for the same input x options is "
                            "returned without re-running the flow")
    p_opt.set_defaults(func=_cmd_optimize)

    p_gen = sub.add_parser("generate", help="emit a benchmark circuit")
    p_gen.add_argument("circuit", help="e.g. C1355, bshift32, m8x8, add16")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="equivalence-check two BLIFs")
    p_ver.add_argument("a")
    p_ver.add_argument("b")
    p_ver.add_argument("--mode", choices=["sim", "cec", "full"],
                       default="cec",
                       help="up to 20 inputs every mode compares full "
                            "truth tables (a proof); above that, sim = "
                            "random simulation, cec = size-capped BDD "
                            "proof, full = cec + simulation of capped "
                            "outputs")
    p_ver.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                       help="BDD work budget (node allocations) per output "
                            "before giving up (reported as UNPROVEN, exit "
                            "2); bounds only the BDD proof above 20 inputs")
    p_ver.add_argument("--seed", type=int, default=1355,
                       help="seed for the simulation patterns")
    p_ver.set_defaults(func=_cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="differential-fuzz the BDS flow")
    p_fuzz.add_argument("--minutes", type=float, default=1.0,
                        help="time budget (default: 1 minute)")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="worker processes (cases fan out in waves)")
    p_fuzz.add_argument("--corpus", default="tests/corpus",
                        help="directory for shrunk failing netlists "
                             "(default: tests/corpus)")
    p_fuzz.add_argument("--max-failures", type=int, default=10,
                        help="stop after this many distinct finds")
    p_fuzz.add_argument("--shrink-checks", type=int, default=300,
                        help="delta-debugging predicate budget per find")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_chk = sub.add_parser("check", help="lint a BLIF netlist for "
                                         "structural violations")
    p_chk.add_argument("input")
    p_chk.add_argument("--level", choices=["cheap", "full"], default="full")
    p_chk.set_defaults(func=_cmd_check)

    p_lint = sub.add_parser("lint", help="static analysis of Python "
                                         "sources (RPL rules)")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files and/or directories (default: src)")
    p_lint.add_argument("--format", choices=["text", "json"],
                        default="text")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="baseline of grandfathered findings "
                             "(default: lint-baseline.json when present)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="report baselined findings too")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="write current findings as a fresh baseline "
                             "(justifications must then be filled in)")
    p_lint.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(e.g. RPL001,RPL002)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.set_defaults(func=_cmd_lint)

    p_bat = sub.add_parser("batch", help="optimize many BLIFs through the "
                                         "cache-backed service")
    p_bat.add_argument("inputs", nargs="+",
                       help="BLIF files and/or directories of *.blif")
    p_bat.add_argument("--cache-dir", metavar="DIR",
                       help="artifact cache directory (omit to disable "
                            "result reuse)")
    p_bat.add_argument("--out-dir", metavar="DIR",
                       help="write each result as <name>.opt.blif here")
    p_bat.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    p_bat.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock budget in seconds")
    p_bat.add_argument("--verify", nargs="?", const="cec", default=None,
                       choices=["sim", "cec", "full"], metavar="MODE",
                       help="verify every result inside the flow; cached "
                            "artifacts carry their stored verdict")
    p_bat.add_argument("--balance", action="store_true")
    p_bat.add_argument("--check", choices=["off", "cheap", "full"],
                       default="off")
    p_bat.add_argument("--json", action="store_true",
                       help="print one JSON summary object on stdout")
    p_bat.set_defaults(func=_cmd_batch)

    p_ben = sub.add_parser("bench", help="run the flow bench set; "
                                         "--compare gates on a baseline")
    p_ben.add_argument("circuits", nargs="*",
                       help="circuits to bench (default: the standard "
                            "set, see repro.obs.regress)")
    p_ben.add_argument("--out", metavar="FILE",
                       help="write the fresh payload as JSON (the "
                            "BENCH_flow.json format)")
    p_ben.add_argument("--compare", metavar="BASELINE",
                       help="diff against a baseline payload (the "
                            "BENCH_flow.json format); exit 0/1/2")
    p_ben.set_defaults(func=_cmd_bench)

    p_srv = sub.add_parser("serve", help="JSON-lines optimization daemon "
                                         "(stdin/stdout, or a socket "
                                         "with --socket/--port)")
    p_srv.add_argument("--cache-dir", metavar="DIR")
    p_srv.add_argument("--jobs", type=int, default=1)
    p_srv.add_argument("--timeout", type=float, default=None, metavar="S")
    p_srv.add_argument("--socket", metavar="PATH",
                       help="serve many concurrent clients on a Unix-domain "
                            "socket instead of stdin/stdout")
    p_srv.add_argument("--port", type=int, default=None, metavar="N",
                       help="serve on TCP port N (0 = ephemeral)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address for --port (default 127.0.0.1)")
    p_srv.add_argument("--backlog", type=int, default=64, metavar="N",
                       help="outstanding jobs at which a socket refuses "
                            "requests with an 'overloaded' reply and "
                            "stdin stops being read (default 64)")
    p_srv.set_defaults(func=_cmd_serve)

    p_cli = sub.add_parser("client", help="send BLIFs to a running "
                                          "'repro serve' socket server")
    p_cli.add_argument("inputs", nargs="+",
                       help="BLIF files and/or directories of *.blif")
    p_cli.add_argument("--socket", metavar="PATH",
                       help="Unix-domain socket of the server")
    p_cli.add_argument("--port", type=int, default=None, metavar="N",
                       help="TCP port of the server")
    p_cli.add_argument("--host", default="127.0.0.1")
    p_cli.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock budget in seconds")
    p_cli.add_argument("--retries", type=int, default=10,
                       help="rounds of backoff-retry for connect refusals "
                            "and 'overloaded' replies (default 10)")
    p_cli.add_argument("--verify", nargs="?", const="cec", default=None,
                       choices=["sim", "cec", "full"], metavar="MODE")
    p_cli.add_argument("--out-dir", metavar="DIR",
                       help="write each result as <name>.opt.blif here")
    p_cli.add_argument("--json", action="store_true",
                       help="print one JSON summary object on stdout")
    p_cli.set_defaults(func=_cmd_client)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
