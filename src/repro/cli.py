"""Command-line interface.

    python -m repro run PROGRAM.f [--input n=100] [--scheme LLS] ...
    python -m repro dump PROGRAM.f [--scheme LLS] [--no-optimize]
    python -m repro compare PROGRAM.f [--input n=100]
    python -m repro tables [--small]
    python -m repro figures
    python -m repro serve [--port P] [--workers N]
    python -m repro loadgen --url URL [--requests N] [--concurrency C]

``run`` executes a mini-Fortran file and reports outputs and dynamic
counts; ``dump`` prints the (optimized) IR; ``compare`` runs every
placement scheme and prints one Table 2 column for the file; ``tables``
regenerates the paper's Tables 1-3 on the benchmark suite; ``figures``
prints the figure reproductions; ``serve`` runs the long-lived compile
service and ``loadgen`` drives traffic at it.

Exit codes (the contract ``docs/API.md`` documents and
``tests/pipeline/test_cli.py`` locks in):

* 0 -- success;
* 1 -- the program trapped a range check at run time (or a fuzz
  campaign found failures);
* 2 -- usage or compile-time errors: bad flags, unreadable files,
  lex/parse/semantic diagnostics;
* 3 -- internal errors (unexpected exceptions, compiler resource
  exhaustion).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import __version__
from .checks.config import CheckKind, ImplicationMode, OptimizerOptions, Scheme
from .errors import RangeTrap, ReproError
from .ir.printer import format_module
from .pipeline.driver import ENGINE_NAMES, compile_source
from .pipeline.stats import measure_baseline

EXIT_OK = 0
EXIT_TRAP = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _usage_exit(message: str) -> "SystemExit":
    print("error: %s" % message, file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _validate_engine(command: str, engine: str) -> str:
    """Exit-code-2 contract: an unknown engine name is a usage error
    with a one-line message, never an argparse usage dump or a
    traceback."""
    if engine not in ENGINE_NAMES:
        raise _usage_exit("%s: unknown engine %r (choose from %s)"
                          % (command, engine, ", ".join(ENGINE_NAMES)))
    return engine


def _parse_inputs(pairs: List[str]) -> Dict[str, float]:
    inputs: Dict[str, float] = {}
    for pair in pairs:
        name, _, text = pair.partition("=")
        name = name.strip()
        text = text.strip()
        if not name or not text:
            raise _usage_exit("--input expects NAME=VALUE, got %r" % pair)
        try:
            value = float(text) if "." in text or "e" in text.lower() \
                else int(text)
        except ValueError:
            raise _usage_exit(
                "--input %s: %r is not a decimal number" % (name, text))
        inputs[name] = value
    return inputs


def _options(args: argparse.Namespace) -> OptimizerOptions:
    return OptimizerOptions(
        scheme=Scheme[args.scheme],
        kind=CheckKind[args.kind],
        implication=ImplicationMode[args.implication],
        inline=getattr(args, "inline", False))


def _profile_options(command: str, spec: str, source: str,
                     inputs: Dict[str, float],
                     options: OptimizerOptions) -> OptimizerOptions:
    """Resolve a ``--profile PATH|auto|off`` flag into options.

    ``auto`` trains a fresh profile (LLS, same inputs); a path loads a
    serialized artifact.  Exit-code-2 contract: a missing, corrupt, or
    mismatched artifact is a one-line usage error, never a traceback
    (ProfileError is a ReproError, which ``main`` maps to exit 2; the
    fingerprint/source validation itself runs inside compile_source).
    """
    from .pipeline.profile import with_profile

    if spec and spec != "off" and options.scheme is not Scheme.LO:
        raise _usage_exit("%s: --profile requires --scheme LO (the "
                          "profile-guided scheme); got %s"
                          % (command, options.scheme.name))
    return with_profile(options, source, inputs, spec)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="mini-Fortran source file")
    parser.add_argument("--scheme", default="LLS",
                        choices=[s.name for s in Scheme])
    parser.add_argument("--kind", default="PRX",
                        choices=[k.name for k in CheckKind])
    parser.add_argument("--implication", default="ALL",
                        choices=[m.name for m in ImplicationMode])
    parser.add_argument("--inline", action="store_true",
                        help="inline eligible subroutine calls before "
                             "check optimization (interprocedural "
                             "elimination)")
    parser.add_argument("--rotate-loops", action="store_true",
                        help="apply loop rotation before optimization")
    parser.add_argument("--verify-ir", action="store_true",
                        help="run the IR verifier after every pass")


def _cmd_run(args: argparse.Namespace) -> int:
    _validate_engine("run", args.engine)
    if args.profile_out and args.engine != "interp":
        raise _usage_exit("run: --profile-out records edge counts on "
                          "the interpreter only; got --engine %s"
                          % args.engine)
    with open(args.file) as handle:
        source = handle.read()
    inputs = _parse_inputs(args.input)
    options = _profile_options("run", args.profile, source, inputs,
                               _options(args))
    program = compile_source(source, options,
                             optimize=not args.no_optimize,
                             rotate_loops=args.rotate_loops,
                             verify_ir=args.verify_ir)
    execution = program.execute(inputs, args.engine,
                                collect_edges=bool(args.profile_out))
    trap = execution.trap
    if args.profile_out:
        if trap is None:
            from .pipeline.profile import profile_from_counters

            profile_from_counters(
                source, execution.counters,
                kind=options.kind.value,
                implication=options.implication.value,
                scheme=options.scheme.value).write(args.profile_out)
            print("wrote %s" % args.profile_out, file=sys.stderr)
        else:
            print("profile not written: the program trapped",
                  file=sys.stderr)
    if args.json:
        import json

        from .reporting.jsonout import execution_to_dict

        print(json.dumps(execution_to_dict(_options(args).label(),
                                           execution),
                         indent=2, sort_keys=True))
        return EXIT_TRAP if trap is not None else EXIT_OK
    if trap is not None:
        raise trap
    for value in execution.output:
        print(value)
    counters = execution.counters
    print("-- %d instructions, %d range checks executed"
          % (counters.instructions, counters.checks), file=sys.stderr)
    return EXIT_OK


def _cmd_dump(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    program = compile_source(source, _options(args),
                             optimize=not args.no_optimize,
                             rotate_loops=args.rotate_loops,
                             verify_ir=args.verify_ir)
    print(format_module(program.module))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .benchsuite import run_compare

    with open(args.file) as handle:
        source = handle.read()
    inputs = _parse_inputs(args.input)
    baseline = measure_baseline(args.file, source, inputs)
    cells = run_compare(source, CheckKind[args.kind],
                        baseline.dynamic_checks, inputs, jobs=args.jobs,
                        profile_mode=args.profile)
    if args.json:
        import json

        from .reporting import compare_to_dict

        print(json.dumps(compare_to_dict(args.file, baseline, cells),
                         indent=2, sort_keys=True))
        return 0
    print("naive checking: %d dynamic checks (%.1f%% of instructions)"
          % (baseline.dynamic_checks, baseline.dynamic_ratio))
    print("%-6s %12s %12s" % ("scheme", "dyn.checks", "eliminated"))
    for scheme, cell in cells:
        print("%-6s %12d %11.2f%%"
              % (scheme.value, cell.dynamic_checks,
                 cell.percent_eliminated))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .reporting import explain_optimization

    with open(args.file) as handle:
        source = handle.read()
    inputs = _parse_inputs(args.input)
    report = explain_optimization(source, _options(args), inputs,
                                  rotate_loops=args.rotate_loops,
                                  verify_ir=args.verify_ir)
    print(report.render())
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    _validate_engine("tables", args.engine)
    from .benchsuite import run_suite
    from .reporting import (TABLE3_LABELS, render_tables_text,
                            table2_labels, tables_summary_line)

    suite = run_suite(small=args.small, jobs=args.jobs, engine=args.engine,
                      profile_mode=args.profile)
    if args.json:
        import json

        from .reporting import tables_to_dict

        print(json.dumps(tables_to_dict(suite, args.small,
                                        table2_labels(), TABLE3_LABELS),
                         indent=2, sort_keys=True))
        return EXIT_OK
    # The Range(s) wall-clock column is opt-in so the default table
    # text is byte-identical across runs and --jobs values (and to the
    # compile service's tables responses, which share this renderer).
    sys.stdout.write(render_tables_text(suite, timings=args.timings))
    print(tables_summary_line(suite), file=sys.stderr)
    if args.timings:
        for name in suite.names:
            stats = suite.cache_stats.get(name, {})
            print("-- cache[%s]: %d compiles, %d hits, %d misses, "
                  "%d disk hits, %d evictions"
                  % (name, stats.get("frontend_compiles", 0),
                     stats.get("hits", 0), stats.get("misses", 0),
                     stats.get("disk_hits", 0),
                     stats.get("evictions", 0)), file=sys.stderr)
    return EXIT_OK


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_campaign

    config_labels = None
    if args.configs:
        config_labels = [label.strip()
                         for chunk in args.configs
                         for label in chunk.split(",") if label.strip()]
    if args.faults:
        from . import faults

        try:
            faults.parse_spec(args.faults)  # reject bad specs up front
        except faults.FaultSpecError as error:
            raise _usage_exit("fuzz: %s" % error)
    try:
        result = run_campaign(
            count=args.count, seed=args.seed, jobs=args.jobs,
            config_labels=config_labels, engines=not args.no_engines,
            corpus_dir=args.corpus, shrink_failures=not args.no_shrink,
            max_failures=args.max_failures,
            faults_spec=args.faults or None,
            cache_dir=args.cache_dir or None,
            log=lambda message: print(message, file=sys.stderr))
    except ValueError as error:
        raise _usage_exit("fuzz: %s" % error)
    print("fuzzed %d programs (seeds %d..%d): %d failure(s)"
          % (result.programs, args.seed, args.seed + args.count - 1,
             len(result.failures)))
    for failure in result.failures:
        print("-" * 60)
        print(failure.describe())
        print("program:")
        print(failure.source)
    return EXIT_OK if result.ok else EXIT_TRAP


def _cmd_figures(_args: argparse.Namespace) -> int:
    from .reporting import all_figures

    for name, report in all_figures().items():
        print(report)
        print()
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from .service import CompileService

    if args.faults:
        from . import faults

        try:
            faults.parse_spec(args.faults)
        except faults.FaultSpecError as error:
            raise _usage_exit("serve: %s" % error)
        # the env var is the transport: process-pool workers re-arm
        # from it in their initializer
        os.environ[faults.ENV_VAR] = args.faults
        faults.arm_from_env()

    service = CompileService(host=args.host, port=args.port,
                             workers=args.workers,
                             worker_mode=args.worker_mode,
                             queue_limit=args.queue_limit,
                             request_timeout=args.request_timeout,
                             drain_timeout=args.drain_timeout)

    def _graceful(_signum, _frame):
        # drain from a helper thread: shutdown() must not run on the
        # accept-loop thread (and signal handlers run on the main one).
        import threading

        threading.Thread(target=service.shutdown, daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _graceful)
    print("repro-serve %s listening on %s (%d %s workers, "
          "queue limit %d, %.0fs timeout)"
          % (__version__, service.url, service.pool.workers,
             service.pool.mode, service.queue_limit,
             service.request_timeout), file=sys.stderr)
    service.serve_forever()
    service.wait_stopped(timeout=service.drain_timeout + 5.0)
    print("repro-serve: drained and stopped", file=sys.stderr)
    return EXIT_OK


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceClient, run_loadgen

    slo_spec = None
    if args.slo:
        from .cluster.slo import SloParseError, parse_slo

        try:
            slo_spec = parse_slo(args.slo)
        except SloParseError as error:
            raise _usage_exit("loadgen: %s" % error)
    shard_urls = list(args.shard or [])
    if args.cluster:
        # the cluster admin /healthz reports every live shard's direct
        # URL — resolve them once so requests route with affinity
        try:
            health = ServiceClient(args.cluster, timeout=10.0).healthz()
        except (OSError, ValueError) as error:
            raise _usage_exit("loadgen: cannot reach cluster admin %s "
                              "(%s)" % (args.cluster, error))
        shard_urls.extend(
            shard["direct_url"]
            for shard in health.get("shard_status", ())
            if shard.get("alive") and shard.get("direct_url"))
        if not shard_urls:
            raise _usage_exit("loadgen: cluster %s reports no live "
                              "shards" % args.cluster)
    url = args.url or (shard_urls[0] if shard_urls else None)
    if url is None:
        raise _usage_exit("loadgen: need --url, --cluster, or --shard")
    report = run_loadgen(url, requests_total=args.requests,
                         concurrency=args.concurrency,
                         small=not args.large,
                         corpus_dir=args.corpus,
                         include_trap=not args.no_trap,
                         include_malformed=not args.no_malformed,
                         timeout=args.request_timeout,
                         out_path=args.out,
                         qps=args.qps, arrival_seed=args.seed,
                         slo=slo_spec,
                         shard_urls=shard_urls or None)
    print(report.summary(), file=sys.stderr)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    elif args.out:
        print(args.out)
    transport_errors = report.by_status().get("transport-error", 0)
    if report.slo_passed is False:
        print("loadgen: SLO %r FAILED" % report.slo_spec.spec,
              file=sys.stderr)
        return EXIT_TRAP
    return EXIT_OK if transport_errors == 0 else EXIT_TRAP


def _cmd_cluster(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .cluster import ClusterSupervisor

    if args.faults:
        from . import faults

        try:
            faults.parse_spec(args.faults)
        except faults.FaultSpecError as error:
            raise _usage_exit("cluster: %s" % error)
        # the env var is the transport: shards and their workers re-arm
        # from it after the fork
        os.environ[faults.ENV_VAR] = args.faults
        faults.arm_from_env()

    if args.bench:
        from .cluster.scaling import (record_section, render_section,
                                      run_scaling_ladder)

        shard_counts = [int(item) for chunk in (args.bench_shards or ["1,2,4,8"])
                        for item in chunk.split(",") if item.strip()]
        qps_ladder = [float(item) for chunk in (args.bench_qps or ["25,50,100"])
                      for item in chunk.split(",") if item.strip()]
        points = run_scaling_ladder(
            shard_counts=shard_counts, qps_ladder=qps_ladder,
            requests_total=args.bench_requests, workers=args.workers,
            worker_mode=args.worker_mode,
            log=lambda message: print(message, file=sys.stderr))
        section = render_section(points)
        record_section(args.bench_out, section)
        print(section)
        print("cluster: scaling curve written to %s" % args.bench_out,
              file=sys.stderr)
        return EXIT_OK

    supervisor = ClusterSupervisor(
        shards=args.shards, host=args.host, port=args.port,
        workers=args.workers, worker_mode=args.worker_mode,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
        cache_dir=args.cache_dir or None,
        admin_port=args.admin_port)
    supervisor.start()

    def _graceful(_signum, _frame):
        threading.Thread(target=supervisor.shutdown,
                         daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _graceful)
    print("repro-cluster %s: %d shard(s) on %s (admin %s)"
          % (__version__, supervisor.shards, supervisor.url,
             supervisor.admin_url), file=sys.stderr)
    for url in supervisor.shard_urls:
        print("repro-cluster: shard direct %s" % url, file=sys.stderr)
    supervisor.wait_stopped()
    clean = supervisor.shutdown()  # idempotent: reports drain status
    print("repro-cluster: %s"
          % ("drained clean" if clean else "unclean shutdown"),
          file=sys.stderr)
    return EXIT_OK if clean else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Range-check optimization (Kolte & Wolfe, PLDI 1995)")
    parser.add_argument("--version", action="version",
                        version="repro %s" % __version__)
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="compile and execute")
    _add_common(run_parser)
    run_parser.add_argument("--input", action="append", default=[],
                            metavar="NAME=VALUE")
    run_parser.add_argument("--no-optimize", action="store_true")
    run_parser.add_argument("--engine", default="interp",
                            metavar="ENGINE",
                            help="tree-walking interpreter, the "
                                 "direct-threaded back-end, or the "
                                 "tier-2 specialized back-end "
                                 "(interp, compiled, specialized)")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the machine-readable run document "
                                 "(same schema as the compile service)")
    run_parser.add_argument("--profile", default="off",
                            metavar="PATH|auto|off",
                            help="edge profile guiding --scheme LO: a "
                                 "--profile-out artifact, 'auto' to "
                                 "self-train (LLS, same inputs), or "
                                 "'off' (default)")
    run_parser.add_argument("--profile-out", metavar="PATH",
                            help="collect per-edge execution counts "
                                 "during the run and write the training "
                                 "artifact to PATH (interpreter only)")
    run_parser.set_defaults(handler=_cmd_run)

    dump_parser = commands.add_parser("dump", help="print optimized IR")
    _add_common(dump_parser)
    dump_parser.add_argument("--no-optimize", action="store_true")
    dump_parser.set_defaults(handler=_cmd_dump)

    compare_parser = commands.add_parser(
        "compare", help="run every scheme on one file")
    compare_parser.add_argument("file")
    compare_parser.add_argument("--input", action="append", default=[],
                                metavar="NAME=VALUE")
    compare_parser.add_argument("--kind", default="PRX",
                                choices=[k.name for k in CheckKind])
    compare_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                                help="measure schemes N at a time in a "
                                     "process pool")
    compare_parser.add_argument("--json", action="store_true",
                                help="emit machine-readable results")
    compare_parser.add_argument("--profile", default="auto",
                                choices=["auto", "off"],
                                help="LO row training: 'auto' (default) "
                                     "self-trains an edge profile, "
                                     "'off' degrades LO to LCM-latest")
    compare_parser.set_defaults(handler=_cmd_compare)

    explain_parser = commands.add_parser(
        "explain", help="per-family report of what the optimizer did")
    _add_common(explain_parser)
    explain_parser.add_argument("--input", action="append", default=[],
                                metavar="NAME=VALUE")
    explain_parser.set_defaults(handler=_cmd_explain)

    tables_parser = commands.add_parser(
        "tables", help="regenerate the paper's tables")
    tables_parser.add_argument("--small", action="store_true",
                               help="use test-sized inputs")
    tables_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                               help="run benchmark programs N at a time "
                                    "in a process pool")
    tables_parser.add_argument("--json", action="store_true",
                               help="emit machine-readable results "
                                    "(counts + per-pass timings)")
    tables_parser.add_argument("--timings", action="store_true",
                               help="include the wall-clock Range(s) "
                                    "column (nondeterministic output)")
    tables_parser.add_argument("--engine", default="interp",
                               metavar="ENGINE",
                               help="execution engine for every "
                                    "measurement (interp, compiled, "
                                    "specialized); the rendered tables "
                                    "are identical either way")
    tables_parser.add_argument("--profile", default="auto",
                               choices=["auto", "off"],
                               help="LO column training: 'auto' "
                                    "(default) self-trains an edge "
                                    "profile per program, 'off' "
                                    "degrades LO to LCM-latest")
    tables_parser.set_defaults(handler=_cmd_tables)

    fuzz_parser = commands.add_parser(
        "fuzz", help="differential fuzzing of the check optimizer")
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="first generator seed (default 0)")
    fuzz_parser.add_argument("--count", type=int, default=100, metavar="N",
                             help="number of programs to generate")
    fuzz_parser.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="fuzz N seeds at a time in a process "
                                  "pool")
    fuzz_parser.add_argument("--configs", action="append", default=[],
                             metavar="LABELS",
                             help="comma-separated configuration labels "
                                  "(e.g. PRX-LLS,INX-SE); default: the "
                                  "full scheme x kind x implication "
                                  "matrix")
    fuzz_parser.add_argument("--corpus", metavar="DIR",
                             help="persist minimized failures into DIR")
    fuzz_parser.add_argument("--max-failures", type=int, default=10,
                             metavar="N",
                             help="keep at most N failures (default 10)")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="keep failing programs unminimized")
    fuzz_parser.add_argument("--faults", metavar="SPEC",
                             help="arm fault injection inside each oracle "
                                  "check (see docs/RESILIENCE.md; e.g. "
                                  "'diskcache.write:corrupt:p=0.5')")
    fuzz_parser.add_argument("--cache-dir", metavar="DIR",
                             help="on-disk frontend-cache directory for "
                                  "oracle compiles (required for the "
                                  "diskcache.* fault points to matter)")
    fuzz_parser.add_argument("--no-engines", action="store_true",
                             help="skip the Python back-end comparison "
                                  "(interpreter-only oracle)")
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    figures_parser = commands.add_parser(
        "figures", help="print figure reproductions")
    figures_parser.set_defaults(handler=_cmd_figures)

    serve_parser = commands.add_parser(
        "serve", help="run the long-lived compile service")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8377,
                              help="listen port (0 picks a free one)")
    serve_parser.add_argument("--workers", type=int, default=2, metavar="N",
                              help="worker pool size (default 2)")
    serve_parser.add_argument("--worker-mode", default="process",
                              choices=["process", "thread", "inline"],
                              help="process pool (default), in-process "
                                   "threads, or inline execution")
    serve_parser.add_argument("--queue-limit", type=int, default=32,
                              metavar="N",
                              help="max admitted requests before 429 "
                                   "(default 32)")
    serve_parser.add_argument("--request-timeout", type=float, default=60.0,
                              metavar="SECONDS",
                              help="per-request deadline before 504 "
                                   "(default 60)")
    serve_parser.add_argument("--faults", metavar="SPEC",
                              help="arm deterministic fault injection "
                                   "(also honors the REPRO_FAULTS env "
                                   "var; see docs/RESILIENCE.md)")
    serve_parser.add_argument("--drain-timeout", type=float, default=30.0,
                              metavar="SECONDS",
                              help="max wait for in-flight work on "
                                   "shutdown (default 30)")
    serve_parser.set_defaults(handler=_cmd_serve)

    loadgen_parser = commands.add_parser(
        "loadgen", help="drive benchmark traffic at a compile service")
    loadgen_parser.add_argument("--url",
                                help="service base URL, e.g. "
                                     "http://127.0.0.1:8377 (optional "
                                     "when --cluster/--shard is given)")
    loadgen_parser.add_argument("--requests", type=int, default=50,
                                metavar="N",
                                help="total requests to send (default 50)")
    loadgen_parser.add_argument("--concurrency", type=int, default=8,
                                metavar="C",
                                help="concurrent client threads "
                                     "(default 8)")
    loadgen_parser.add_argument("--corpus", metavar="DIR",
                                help="also replay fuzz-corpus programs "
                                     "from DIR")
    loadgen_parser.add_argument("--large", action="store_true",
                                help="use full-sized benchmark inputs")
    loadgen_parser.add_argument("--no-trap", action="store_true",
                                help="omit the deliberately trapping "
                                     "program from the mix")
    loadgen_parser.add_argument("--no-malformed", action="store_true",
                                help="omit the malformed source from "
                                     "the mix")
    loadgen_parser.add_argument("--request-timeout", type=float,
                                default=120.0, metavar="SECONDS")
    loadgen_parser.add_argument("--out", metavar="PATH",
                                default="benchmarks/results/loadgen.json",
                                help="JSON artifact path (default "
                                     "benchmarks/results/loadgen.json)")
    loadgen_parser.add_argument("--json", action="store_true",
                                help="also print the report to stdout")
    loadgen_parser.add_argument("--qps", type=float, metavar="RATE",
                                help="open-loop arrivals at RATE qps "
                                     "(seeded Poisson; default: closed "
                                     "loop)")
    loadgen_parser.add_argument("--seed", type=int, default=0,
                                metavar="N",
                                help="arrival-process seed (default 0)")
    loadgen_parser.add_argument("--slo", metavar="SPEC",
                                help="grade the run, e.g. "
                                     "'p99<50ms@200qps' (comma-separated "
                                     "clauses; failing exits 1)")
    loadgen_parser.add_argument("--cluster", metavar="ADMIN_URL",
                                help="resolve live shard direct URLs "
                                     "from a cluster admin /healthz and "
                                     "route with consistent hashing")
    loadgen_parser.add_argument("--shard", action="append", metavar="URL",
                                help="explicit shard direct URL "
                                     "(repeatable; alternative to "
                                     "--cluster)")
    loadgen_parser.set_defaults(handler=_cmd_loadgen)

    cluster_parser = commands.add_parser(
        "cluster", help="pre-fork N compile-service shards on one "
                        "SO_REUSEPORT address")
    cluster_parser.add_argument("--shards", type=int, default=2,
                                metavar="N",
                                help="shard process count (default 2)")
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--port", type=int, default=8377,
                                help="shared listen port (0 picks a "
                                     "free one)")
    cluster_parser.add_argument("--admin-port", type=int, default=0,
                                metavar="PORT",
                                help="supervisor admin port for "
                                     "aggregated /metrics and /healthz "
                                     "(default: ephemeral)")
    cluster_parser.add_argument("--workers", type=int, default=2,
                                metavar="N",
                                help="worker pool size per shard "
                                     "(default 2)")
    cluster_parser.add_argument("--worker-mode", default="thread",
                                choices=["process", "thread", "inline"],
                                help="per-shard worker mode (default "
                                     "thread: shards are already "
                                     "processes)")
    cluster_parser.add_argument("--queue-limit", type=int, default=32,
                                metavar="N")
    cluster_parser.add_argument("--request-timeout", type=float,
                                default=60.0, metavar="SECONDS")
    cluster_parser.add_argument("--drain-timeout", type=float,
                                default=30.0, metavar="SECONDS")
    cluster_parser.add_argument("--cache-dir", metavar="DIR",
                                help="shared artifact store directory "
                                     "(sets REPRO_CACHE_DIR for every "
                                     "shard)")
    cluster_parser.add_argument("--faults", metavar="SPEC",
                                help="arm deterministic fault injection "
                                     "cluster-wide (docs/RESILIENCE.md)")
    cluster_parser.add_argument("--bench", action="store_true",
                                help="run the shard-count x QPS scaling "
                                     "ladder and record "
                                     "benchmarks/results/scaling.txt")
    cluster_parser.add_argument("--bench-shards", action="append",
                                metavar="N,N,...",
                                help="ladder shard counts (default "
                                     "1,2,4,8)")
    cluster_parser.add_argument("--bench-qps", action="append",
                                metavar="Q,Q,...",
                                help="ladder QPS rungs (default "
                                     "25,50,100)")
    cluster_parser.add_argument("--bench-requests", type=int, default=60,
                                metavar="N",
                                help="requests per ladder cell "
                                     "(default 60)")
    cluster_parser.add_argument("--bench-out", metavar="PATH",
                                default="benchmarks/results/scaling.txt",
                                help="scaling curve artifact path")
    cluster_parser.set_defaults(handler=_cmd_cluster)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RangeTrap as error:
        print("TRAP: %s" % error, file=sys.stderr)
        return EXIT_TRAP
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    except OSError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: nesting too deep for the compiler "
              "(simplify the expression or raise the recursion limit)",
              file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as error:  # last resort: bounded, no traceback
        message = "%s: %s" % (type(error).__name__, error)
        if len(message) > 300:
            message = message[:300] + "..."
        print("internal error: %s" % message, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
