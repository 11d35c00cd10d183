"""Command-line interface.

Usage::

    ofence analyze FILE.c [FILE2.c ...]   # analyze real C files
    ofence corpus [--seed N] [--small]    # generate + analyze the corpus
    ofence sweep [--small]                # Figure 6 window sweep
    ofence report [--seed N] [--small]    # full §6 evaluation report
    ofence serve [--port N]               # analysis-as-a-service daemon
    ofence submit DIR --server URL        # submit a tree to the daemon
    ofence history --store-dir DIR        # recorded runs in the store
    ofence diff [A B] --store-dir DIR     # classify findings across runs
    ofence triage list|mark ...           # per-fingerprint triage states
    ofence report FILES --store-dir DIR   # store-aware findings report

All subcommands print the pairings, findings and patches to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.barrier_scan import ScanLimits
from repro.core.engine import AnalysisOptions, KernelSource, OFenceEngine
from repro.core.report import (
    EvaluationReport,
    read_distance_histogram,
    render_table,
    sweep_write_window,
)
from repro.corpus import CorpusSpec, generate_corpus, score_run


def _add_perf_args(parser: argparse.ArgumentParser) -> None:
    """Performance pipeline flags shared by analyze/corpus/report."""
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for the CPU-bound stages "
                             "(scan, pairing candidates, CFG checkers); "
                             "runs in one process share a persistent "
                             "warm pool (default: serial)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        metavar="DIR",
                        help="content-addressed on-disk scan cache "
                             "(repeated runs skip unchanged files)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="N",
                        help="byte-size cap for --cache-dir; LRU entries "
                             "are evicted past it")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-stage timing/counter "
                             "breakdown")


def _add_store_args(parser: argparse.ArgumentParser,
                    required: bool = False) -> None:
    """Findings-store flags shared by analyze/serve/history/diff/..."""
    parser.add_argument("--store-dir", type=Path, default=None,
                        required=required, metavar="DIR",
                        help="persistent findings store directory; runs "
                             "are recorded with stable fingerprints for "
                             "cross-revision diffing and triage")
    parser.add_argument("--store-label", default="", metavar="TEXT",
                        help="free-text label stamped on recorded runs")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofence",
        description="Pair memory barriers and check ordering constraints "
                    "(OFence reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze C source files")
    analyze.add_argument("files", nargs="+", type=Path)
    analyze.add_argument("--write-window", type=int, default=5)
    analyze.add_argument("--read-window", type=int, default=50)
    analyze.add_argument("--patches", action="store_true",
                         help="print generated patches")
    analyze.add_argument("--trace", type=Path, default=None, metavar="PATH",
                         help="trace the run and write a Chrome "
                              "trace_event JSON (Perfetto-loadable) "
                              "to PATH")
    analyze.add_argument("--checks", default=None, metavar="C1,C2",
                         help="comma-separated checker names to enable "
                              "(default: all registered checkers)")
    _add_perf_args(analyze)
    _add_store_args(analyze)

    corpus = sub.add_parser("corpus", help="generate + analyze the "
                                           "synthetic kernel corpus")
    corpus.add_argument("--seed", type=int, default=2023)
    corpus.add_argument("--small", action="store_true")
    corpus.add_argument("--write", type=Path, default=None, metavar="DIR",
                        help="materialize the corpus tree under DIR")
    _add_perf_args(corpus)

    sweep = sub.add_parser("sweep", help="Figure 6 write-window sweep")
    sweep.add_argument("--seed", type=int, default=2023)
    sweep.add_argument("--small", action="store_true")

    report = sub.add_parser(
        "report",
        help="full evaluation report (§6); with FILES + --store-dir, a "
             "store-aware findings report instead",
    )
    report.add_argument("files", nargs="*", type=Path,
                        help="C files or a tree for a store-aware "
                             "findings report (default: corpus "
                             "evaluation report)")
    report.add_argument("--seed", type=int, default=2023)
    report.add_argument("--small", action="store_true")
    report.add_argument("--suppress-known", action="store_true",
                        help="drop findings whose fingerprint was "
                             "already triaged (confirmed, "
                             "false-positive, or fixed)")
    _add_perf_args(report)
    _add_store_args(report)

    json_cmd = sub.add_parser(
        "json", help="analyze C files and emit a JSON report (for CI)"
    )
    json_cmd.add_argument("files", nargs="+", type=Path)
    json_cmd.add_argument("--diffs", action="store_true",
                          help="include patch diffs in the JSON")

    litmus = sub.add_parser(
        "litmus",
        help="analyze C files and litmus-validate every pairing "
             "(Figures 2/3 semantics)",
    )
    litmus.add_argument("files", nargs="+", type=Path)

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded fuzzing with crash, differential, and metamorphic "
             "oracles; failures are minimized into fuzz/artifacts/",
    )
    fuzz.add_argument("--iterations", type=int, default=50)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--case-seed", type=int, default=None,
                      help="raw per-case seed (bypasses the seed "
                           "stride; used by repro.json replay lines)")
    fuzz.add_argument("--artifacts", type=Path,
                      default=Path("fuzz/artifacts"),
                      help="directory for minimized reproducers")
    fuzz.add_argument("--max-files", type=int, default=3,
                      help="files per generated case")
    fuzz.add_argument("--modes", default=None, metavar="M1,M2",
                      help="comma-separated run modes for the "
                           "differential oracle (default: all)")
    fuzz.add_argument("--no-reduce", action="store_true",
                      help="skip delta-debugging of failing inputs")

    eval_cmd = sub.add_parser(
        "eval",
        help="per-checker precision/recall against planted ground truth",
    )
    eval_cmd.add_argument("--cases", type=int, default=20)
    eval_cmd.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the analysis daemon (JSON over HTTP; warm engine "
             "pool, job queue, /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731)
    serve.add_argument("--pool-size", type=int, default=4,
                       help="warm engines kept (LRU evicted past it)")
    serve.add_argument("--queue-capacity", type=int, default=32,
                       help="queued jobs before 503 backpressure")
    serve.add_argument("--job-workers", type=int, default=1,
                       help="concurrent job-executing threads (one job "
                            "per tree at a time)")
    serve.add_argument("--exec-workers", type=int, default=None,
                       metavar="N",
                       help="process-pool workers shared by all warm "
                            "engines for CPU-bound stages (default: "
                            "--workers; 0/1 disables the pool)")
    _add_perf_args(serve)
    _add_store_args(serve)

    submit = sub.add_parser(
        "submit",
        help="submit C files or a tree to a running analysis daemon",
    )
    submit.add_argument("files", nargs="+", type=Path)
    submit.add_argument("--server", default="http://127.0.0.1:8731",
                        metavar="URL")
    submit.add_argument("--write-window", type=int, default=5)
    submit.add_argument("--read-window", type=int, default=50)
    submit.add_argument("--json", action="store_true",
                        help="print the raw JSON response")
    submit.add_argument("--timeout", type=float, default=300.0)
    submit.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="trace the job server-side and write the "
                             "Chrome trace_event JSON to PATH")

    history = sub.add_parser(
        "history",
        help="recorded analysis runs in a findings store",
    )
    history.add_argument("--limit", type=int, default=None, metavar="N",
                         help="only the last N runs")
    history.add_argument("--json", action="store_true",
                         help="print the raw run records as JSON")
    _add_store_args(history, required=True)

    diff = sub.add_parser(
        "diff",
        help="classify findings between two recorded runs as "
             "new / reappeared / persistent / resolved",
    )
    diff.add_argument("runs", nargs="*", type=int, metavar="RUN",
                      help="two run ids (default: the last two runs)")
    diff.add_argument("--json", action="store_true",
                      help="print the canonical JSON diff")
    _add_store_args(diff, required=True)

    triage = sub.add_parser(
        "triage",
        help="inspect and update per-fingerprint triage states",
    )
    triage_sub = triage.add_subparsers(dest="triage_command", required=True)

    tlist = triage_sub.add_parser("list", help="stored findings with "
                                               "their triage states")
    tlist.add_argument("--state", default=None,
                       help="filter by state (open, confirmed, "
                            "false-positive, fixed)")
    tlist.add_argument("--checker", default=None,
                       help="filter by checker kind")
    tlist.add_argument("--suppress", action="store_true",
                       help="hide false-positive findings (the default "
                            "report view)")
    tlist.add_argument("--json", action="store_true")
    _add_store_args(tlist, required=True)

    tmark = triage_sub.add_parser("mark", help="move a fingerprint to a "
                                               "new triage state")
    tmark.add_argument("fingerprint")
    tmark.add_argument("state",
                       help="target state (open, confirmed, "
                            "false-positive, fixed)")
    tmark.add_argument("--note", default="",
                       help="free-text note recorded with the transition")
    _add_store_args(tmark, required=True)
    return parser


def _spec(args) -> CorpusSpec:
    return CorpusSpec.small() if args.small else CorpusSpec.paper()


def _perf_options(args, limits: ScanLimits | None = None) -> AnalysisOptions:
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
        if cache_dir.exists() and not cache_dir.is_dir():
            raise SystemExit(
                f"error: --cache-dir {cache_dir} exists and is not a directory"
            )
    options = AnalysisOptions(
        workers=args.workers, cache_dir=args.cache_dir,
        cache_max_bytes=getattr(args, "cache_max_bytes", None),
    )
    if limits is not None:
        options.limits = limits
    return options


def _maybe_profile(args, result) -> None:
    if args.profile:
        print()
        print(result.profile.render())


def _export_trace(path: Path, trace_id: str, spans: list[dict]) -> None:
    """Write the Chrome trace_event JSON and print the span tree."""
    import json as _json

    from repro.trace import render_tree, to_chrome

    path.write_text(
        _json.dumps(to_chrome(trace_id, spans), indent=2) + "\n"
    )
    print(f"\ntrace {trace_id}: {len(spans)} spans -> {path}")
    print("(open in https://ui.perfetto.dev or chrome://tracing)")
    print(render_tree(spans))


def _record_into_store(args, source, options, result) -> None:
    """Persist one CLI run into ``--store-dir`` (no-op without it)."""
    if getattr(args, "store_dir", None) is None:
        return
    from repro.serve.wire import encode_options, tree_key
    from repro.store import FindingsStore

    with FindingsStore(args.store_dir) as store:
        outcome = store.record_run(
            result,
            tree_hash=tree_key(source, options),
            label=getattr(args, "store_label", ""),
            source="cli",
            config=encode_options(options),
        )
        print(f"\nrecorded run {outcome.run.id} into {args.store_dir} "
              f"({len(outcome.new_fingerprints)} new, "
              f"{len(outcome.known_fingerprints)} known fingerprints)")


def cmd_analyze(args) -> int:
    if len(args.files) == 1 and args.files[0].is_dir():
        source = KernelSource.from_directory(args.files[0])
    else:
        files = {str(path): path.read_text() for path in args.files}
        source = KernelSource(files=files)
    options = _perf_options(args, ScanLimits(
        write_window=args.write_window, read_window=args.read_window
    ))
    if args.checks is not None:
        from repro.checkers import registry

        names = frozenset(
            name.strip() for name in args.checks.split(",") if name.strip()
        )
        try:
            options.checks = registry.validate_checks(names)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    trace = None
    if args.trace is not None:
        from repro.trace import start_trace

        with start_trace("analyze", node="cli") as trace:
            result = OFenceEngine(source, options).analyze()
    else:
        result = OFenceEngine(source, options).analyze()
    print(f"{result.total_barriers} barriers, "
          f"{len(result.pairing.pairings)} pairings\n")
    for pairing in result.pairing.pairings:
        print("pairing:", pairing.describe())
    for finding in result.report.all_findings:
        print("finding:", finding.describe())
    if args.patches:
        for patch in result.patches:
            print()
            print(patch.render())
    _maybe_profile(args, result)
    _record_into_store(args, source, options, result)
    if trace is not None:
        _export_trace(args.trace, trace.trace_id, trace.export())
    return 0


def cmd_corpus(args) -> int:
    corpus = generate_corpus(_spec(args), seed=args.seed)
    if args.write is not None:
        count = corpus.source.write_to(args.write)
        print(f"wrote {count} files under {args.write}")
    result = OFenceEngine(corpus.source, _perf_options(args)).analyze()
    score = score_run(result, corpus.truth)
    print(EvaluationReport(result, score).render())
    _maybe_profile(args, result)
    return 0


def cmd_sweep(args) -> int:
    corpus = generate_corpus(_spec(args), seed=args.seed)
    windows = [1, 2, 3, 5, 8, 10, 15, 20]
    points = sweep_write_window(corpus.source, windows, corpus.truth)
    rows = [
        (f"window={p.write_window}",
         f"pairings={p.pairings}  incorrect={p.incorrect_pairings}")
        for p in points
    ]
    print(render_table("Figure 6: pairings vs. write window", rows))
    return 0


def cmd_report(args) -> int:
    if args.files:
        return _cmd_store_report(args)
    corpus = generate_corpus(_spec(args), seed=args.seed)
    result = OFenceEngine(corpus.source, _perf_options(args)).analyze()
    score = score_run(result, corpus.truth)
    print(EvaluationReport(result, score).render())
    print()
    print(read_distance_histogram(result).render())
    _maybe_profile(args, result)
    return 0


def _cmd_store_report(args) -> int:
    """Store-aware findings report over FILES (or a tree).

    Findings are annotated with their triage state from ``--store-dir``;
    false-positive fingerprints are suppressed by default (counted in
    the footer), and ``--suppress-known`` additionally drops everything
    a human already triaged, so only never-seen work remains.
    """
    from repro.store.triage import KNOWN_STATES, SUPPRESSED_STATES

    if len(args.files) == 1 and args.files[0].is_dir():
        source = KernelSource.from_directory(args.files[0])
    else:
        source = KernelSource(
            files={str(path): path.read_text() for path in args.files}
        )
    result = OFenceEngine(source, _perf_options(args)).analyze()
    findings = list(result.report.all_findings)
    states: dict[str, str] = {}
    if args.store_dir is not None:
        from repro.store import FindingsStore

        with FindingsStore(args.store_dir) as store:
            states = store.states_of(
                f.fingerprint for f in findings if f.fingerprint
            )
    shown = 0
    dropped: dict[str, int] = {}
    hidden = SUPPRESSED_STATES | (
        KNOWN_STATES if args.suppress_known else frozenset()
    )
    for finding in findings:
        state = states.get(finding.fingerprint or "", "open")
        if state in hidden:
            dropped[state] = dropped.get(state, 0) + 1
            continue
        shown += 1
        print(f"finding [{state}] {finding.fingerprint}: "
              f"{finding.describe()}")
    note = ", ".join(f"{count} {state}"
                     for state, count in sorted(dropped.items()))
    print(f"\n{shown} finding(s) shown"
          + (f"; suppressed: {note}" if dropped else ""))
    _maybe_profile(args, result)
    return 0


def cmd_history(args) -> int:
    import json as _json

    from repro.store import FindingsStore

    with FindingsStore(args.store_dir) as store:
        runs = store.runs(limit=args.limit)
        if args.json:
            print(_json.dumps([run.as_dict() for run in runs], indent=2))
            return 0
        if not runs:
            print("no recorded runs")
            return 0
        for run in runs:
            print(run.describe())
    return 0


def cmd_diff(args) -> int:
    from repro.store import FindingsStore, StoreError

    if args.runs and len(args.runs) != 2:
        print("error: give exactly two run ids (or none for the last "
              "two runs)", file=sys.stderr)
        return 2
    with FindingsStore(args.store_dir) as store:
        try:
            if args.runs:
                diff = store.diff(args.runs[0], args.runs[1])
            else:
                diff = store.diff()
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.json:
            sys.stdout.write(diff.to_json())
        else:
            print(diff.render())
    # CI-friendly: non-zero exit when the newer run introduced findings.
    return 1 if diff.new or diff.reappeared else 0


def cmd_triage(args) -> int:
    import json as _json

    from repro.store import FindingsStore, StoreError, TriageError

    with FindingsStore(args.store_dir) as store:
        if args.triage_command == "list":
            try:
                found = store.findings(
                    state=args.state, checker=args.checker,
                    suppress=args.suppress,
                )
            except TriageError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if args.json:
                print(_json.dumps([f.as_dict() for f in found], indent=2))
                return 0
            if not found:
                print("no stored findings match")
                return 0
            for finding in found:
                print(finding.describe())
                if finding.note:
                    print(f"    note: {finding.note}")
            return 0
        try:
            finding = store.triage(
                args.fingerprint, args.state, note=args.note, actor="cli"
            )
        except (TriageError, StoreError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(finding.describe())
        return 0


def cmd_json(args) -> int:
    from repro.core.export import result_to_json

    files = {str(path): path.read_text() for path in args.files}
    result = OFenceEngine(KernelSource(files=files)).analyze()
    print(result_to_json(result, include_diffs=args.diffs))
    # Non-zero exit when ordering bugs are found (CI-friendly).
    return 1 if result.report.ordering_findings else 0


def cmd_litmus(args) -> int:
    from repro.api import analyze_files

    files = {str(path): path.read_text() for path in args.files}
    analysis = analyze_files(files, annotate=False)
    if not analysis.pairings:
        print("no pairings found")
        return 0
    bad = 0
    for summary in analysis.validate():
        print(summary.describe())
        if not summary.consistent:
            bad += 1
    return 1 if bad else 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import DEFAULT_MODES, run_fuzz

    modes = DEFAULT_MODES
    if args.modes:
        modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
        if "serial" not in modes:
            modes = ("serial",) + modes
    report = run_fuzz(
        iterations=args.iterations,
        seed=args.seed,
        artifacts_dir=str(args.artifacts),
        reduce=not args.no_reduce,
        modes=modes,
        max_files=args.max_files,
        case_seed=args.case_seed,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_eval(args) -> int:
    from repro.fuzz import evaluate

    print(evaluate(cases=args.cases, seed=args.seed).render())
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import AnalysisServer

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())

    server = AnalysisServer(
        host=args.host,
        port=args.port,
        options=_perf_options(args),
        pool_capacity=args.pool_size,
        queue_capacity=args.queue_capacity,
        workers=args.job_workers,
        exec_workers=args.exec_workers,
        store_dir=str(args.store_dir) if args.store_dir else None,
        store_label=args.store_label,
    )
    server.start()
    executor = server.service.executor
    exec_note = (
        f" exec-workers={executor.workers}" if executor is not None else ""
    )
    print(f"ofence-serve listening on {server.url} "
          f"(pool={args.pool_size} queue={args.queue_capacity} "
          f"workers={args.job_workers}{exec_note})", flush=True)
    stop.wait()
    print("draining: finishing accepted jobs ...", flush=True)
    drained = server.drain(timeout=120)
    print("shutdown complete" if drained else "drain timed out",
          flush=True)
    return 0 if drained else 1


def _load_submit_source(args):
    from repro.core.engine import KernelSource

    if len(args.files) == 1 and args.files[0].is_dir():
        return KernelSource.from_directory(args.files[0])
    return KernelSource(
        files={str(path): path.read_text() for path in args.files}
    )


def cmd_submit(args) -> int:
    import json as _json

    from repro.serve import ClientError, ServeClient

    source = _load_submit_source(args)
    options = AnalysisOptions(limits=ScanLimits(
        write_window=args.write_window, read_window=args.read_window
    ))
    client = ServeClient(args.server, timeout=args.timeout)
    trace_id = None
    if args.trace is not None:
        from repro.trace import new_id

        trace_id = new_id()
    try:
        response = client.submit_with_retry(
            lambda: client.analyze(
                source, options, wait=True, trace=trace_id
            )
        )
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.server}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(response, indent=2, default=str))
        return 0 if response.get("status") == "done" else 1
    if response.get("status") != "done":
        print(f"job {response.get('job_id')} failed: "
              f"{response.get('error')}", file=sys.stderr)
        return 1
    summary = response["result"]
    # Mirror ``repro analyze`` output so the outputs diff cleanly
    # (the CI serve-smoke job relies on this).
    print(f"{summary['total_barriers']} barriers, "
          f"{len(summary['pairings'])} pairings\n")
    for line in summary["pairings"]:
        print("pairing:", line)
    for line in summary["findings"]:
        print("finding:", line)
    print(f"\njob {response['job_id']} tree {response['tree_key'][:12]} "
          f"signature {summary['signature'][:12]} "
          f"({summary['elapsed_seconds']:.2f}s engine time)")
    if trace_id is not None:
        try:
            payload = client.job_trace(response["job_id"])
        except (ClientError, OSError) as exc:
            print(f"warning: could not fetch trace: {exc}",
                  file=sys.stderr)
        else:
            _export_trace(
                args.trace, payload["trace_id"], payload["spans"]
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "corpus": cmd_corpus,
        "sweep": cmd_sweep,
        "report": cmd_report,
        "json": cmd_json,
        "litmus": cmd_litmus,
        "fuzz": cmd_fuzz,
        "eval": cmd_eval,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "history": cmd_history,
        "diff": cmd_diff,
        "triage": cmd_triage,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
