#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the OFence analysis pipeline.

Run one workload from the root of a checkout::

    python3 pipebench/bench_pipeline.py --workload cold --seed 2023 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, measured on every other
timed step with the layer wrappers of ``pipeline_layers`` installed.
Lines before it are a human-readable table.  The command exits 1 when
an output is wrong and 2 when the program under test cannot be found.

``--append FILE`` adds the result as one JSON line to ``FILE``;
``--compare BASE NEW`` compares two such files under the bounds of
``BENCHMARK.json``.  ``--smoke`` runs on the small corpus.  See
``pipebench/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout: caches, stores, trace files.
WORK = ROOT / ".pipebench"

DEFAULT_SEED = 2023
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and check it won."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def quantiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(values: list[float], pct: int) -> float:
    """The value ``pct`` percent of ``values`` do not exceed."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


# -- one run ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    from pipeline_layers import LayerTracer
    from pipeline_workloads import WORKLOADS, OpClock

    from repro.corpus.generator import CorpusSpec

    spec = CorpusSpec.small() if smoke else CorpusSpec.paper()
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    os.environ["TMPDIR"] = str(workdir)
    workload = WORKLOADS[name](spec, seed, workdir)
    imported_s = time.perf_counter() - _START
    setups = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
                workload = WORKLOADS[name](spec, seed, workdir)
                gc.collect()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = imported_s + statistics.median(setups)
        gc.collect()

        tracer = LayerTracer() if trace else None
        clock = OpClock(tracer)
        # A traced run alternates untraced and traced steps, so it needs
        # two at least.
        min_steps = 2 if trace else 1
        deadline = time.perf_counter() + seconds
        steps = 0
        try:
            while steps < min_steps or time.perf_counter() < deadline:
                clock.tracing = trace and steps % 2 == 1
                if clock.tracing:
                    with tracer.installed():
                        workload.step(clock)
                else:
                    workload.step(clock)
                steps += 1
            workload.verify()
        except Exception as exc:
            traceback.print_exc()
            workload.problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = clock.ops
    failed = sum(1 for op in ops if not op.ok)
    result = {
        "correct": bool(ops) and failed == 0 and not workload.problems,
        "attempted": len(ops),
        "failed": failed,
    }
    lines = [f"workload {name}  seed {seed}  corpus "
             f"{'small' if smoke else 'paper'}  steps {steps}  "
             f"cpus {os.cpu_count()}"]
    lines += [f"problem: {problem}" for problem in workload.problems]
    lines += op_table(ops, traced=False)
    if trace:
        traced = {i for i, op in enumerate(ops) if op.traced}
        metrics = layer_metrics(tracer, ops, traced, workload.primary)
        lines += ["", "traced:"] + op_table(ops, traced=True)
        lines += layer_table(tracer, ops, traced)
        out = WORK / f"trace-{name}-{seed}.json"
        tracer.dump(out)
        lines.append(f"spans written to {out}")
    else:
        metrics = end_to_end_metrics(ops, workload.primary, setup_s,
                                     clock.peak_rss_mb)
        lines.append(f"setup {setup_s:.3f} s (imports {imported_s:.3f} s "
                     f"+ median of {[round(s, 3) for s in setups]})")
    result["metrics"] = with_units(metrics)
    return result, lines


def op_table(ops, traced: bool) -> list[str]:
    lines = [f"  {'op':<10}{'n':>5}{'p10 ms':>11}{'q1 ms':>11}"
             f"{'p50 ms':>11}{'q3 ms':>11}{'p90 ms':>11}"]
    for kind in dict.fromkeys(op.kind for op in ops):
        times = [op.seconds * 1000 for op in ops
                 if op.kind == kind and op.traced == traced]
        if not times:
            continue
        q1, q2, q3 = quantiles(times)
        lines.append(f"  {kind:<10}{len(times):>5}"
                     f"{nearest_rank(times, 10):>11.2f}{q1:>11.2f}"
                     f"{q2:>11.2f}{q3:>11.2f}"
                     f"{nearest_rank(times, 90):>11.2f}")
    return lines


def end_to_end_metrics(ops, primary: str, setup_s: float,
                       peak_rss_mb: float) -> dict:
    """The ``--trace 0`` metrics.

    Latency is the nearest-rank 10th percentile, which is the fastest op
    when a run has fewer than ten: interference on the shared host only
    ever adds time and comes in bursts that can cover most of a run, so
    a low percentile moves far less between runs than the median does.
    """
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    return {
        "setup_s": setup_s,
        "op_p10_ms": nearest_rank(by_kind[primary], 10) * 1000,
        # Each op kind at its own 10th-percentile latency, in the run's
        # mix: on serve this is the one metric that revisions move.
        "files_per_s": sum(op.files for op in ops) / sum(
            len(times) * nearest_rank(times, 10)
            for times in by_kind.values()
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(tracer, ops, traced: set[int], primary: str) -> dict:
    seconds = sum(ops[i].seconds for i in traced)
    metrics = tracer.metrics(traced, seconds)
    jobs = [ops[i] for i in traced if ops[i].run_s is not None]

    def share(values) -> float:
        return sum(values) * 100 / seconds

    # A daemon job's round trip is its queue wait, its run, and the rest
    # (HTTP, codec, client), which is the dispatch overhead.
    metrics["serve.queue_pct"] = share(op.queue_s for op in jobs)
    metrics["serve.overhead_pct"] = share(
        op.seconds - op.queue_s - op.run_s for op in jobs
    )
    on = [op.seconds for op in ops if op.kind == primary and op.traced]
    off = [op.seconds for op in ops if op.kind == primary and not op.traced]
    metrics["trace.overhead_pct"] = (
        statistics.median(on) / statistics.median(off) - 1
    ) * 100
    return metrics


def layer_table(tracer, ops, traced: set[int]) -> list[str]:
    """Per op kind: each layer's self ms per op and share of the op."""
    lines = []
    for kind in dict.fromkeys(ops[i].kind for i in sorted(traced)):
        chosen = {i for i in traced if ops[i].kind == kind}
        op_ms = sum(ops[i].seconds for i in chosen) * 1000 / len(chosen)
        lines += ["", f"layers per {kind} op ({len(chosen)} traced, "
                      f"{op_ms:.2f} ms each):",
                  f"  {'layer':<22}{'self ms':>11}{'share':>8}"
                  f"{'total ms':>11}{'calls':>9}"]
        totals = tracer.layer_totals(chosen)
        for layer, row in sorted(totals.items(),
                                 key=lambda item: -item[1]["self"]):
            self_ms = row["self"] * 1000 / len(chosen)
            lines.append(
                f"  {layer:<22}{self_ms:>11.2f}{self_ms / op_ms:>8.1%}"
                f"{row['total'] * 1000 / len(chosen):>11.2f}"
                f"{row['calls'] / len(chosen):>9.1f}"
            )
    return lines


def with_units(metrics: dict) -> dict:
    declared = load_benchmark()
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


# -- comparison ---------------------------------------------------------


def load_runs(path: Path) -> dict[str, list[dict]]:
    """``--append`` lines of ``path``, grouped by workload in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            runs.setdefault(row["workload"], []).append(row)
    return runs


def verdict(base: list[float], new: list[float], lower: bool,
            bound: float | None) -> tuple[str, int]:
    """(verdict, pairs won by NEW); runs pair up in file order.

    A gain needs 9 of 10 pairs won and a median shift beyond the base
    runs' interquartile range.  A metric with a bound regresses when the
    new median is worse by more than the bound, and is unresolved when
    the base runs' own spread exceeds it.  A metric without a bound
    regresses by the mirror image of the gain rule.
    """
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if better(n, b))
    lost = sum(1 for b, n in pairs if better(b, n))
    q1, mid, q3 = quantiles(base)
    new_mid = statistics.median(new)
    worse_by = (new_mid - mid) / abs(mid) if mid else 0.0
    if not lower:
        worse_by = -worse_by
    if all(better(n, b) for n in new for b in base):
        return "improved", won
    if bound is not None and mid and (q3 - q1) / abs(mid) > bound:
        return "unresolved", won
    shifted = bool(pairs) and abs(new_mid - mid) > q3 - q1
    if shifted and won >= 0.9 * len(pairs):
        return "improved", won
    if bound is not None:
        return ("regressed" if worse_by > bound else "unchanged"), won
    if shifted and lost >= 0.9 * len(pairs):
        return "regressed", won
    return "unchanged", won


def compare(base_path: Path, new_path: Path) -> int:
    declared = load_benchmark()
    metrics = declared["end_to_end"] + declared["per_layer"]
    base, new = load_runs(base_path), load_runs(new_path)
    print(f"{'workload':<9}{'metric':<34}{'base q1/p50/q3':>28}"
          f"{'new q1/p50/q3':>28}{'won':>8}  verdict")
    status = 0
    for workload in [w["name"] for w in declared["workloads"]]:
        if workload not in base or workload not in new:
            continue
        for side, rows in (("base", base[workload]), ("new", new[workload])):
            wrong = sum(1 for row in rows if not row["correct"])
            if wrong:
                print(f"{workload}: {wrong} {side} runs not correct")
                status = 1
        for metric in metrics:
            name = metric["name"]
            b = [row["metrics"][name]["value"] for row in base[workload]
                 if name in row["metrics"]]
            n = [row["metrics"][name]["value"] for row in new[workload]
                 if name in row["metrics"]]
            if not b or not n:
                continue
            result, won = verdict(b, n, metric["better"] == "lower",
                                  metric.get("bound"))
            if result == "regressed":
                status = 1
            cells = ["/".join(f"{v:.4g}" for v in quantiles(side))
                     for side in (b, n)]
            print(f"{workload:<9}{name:<34}{cells[0]:>28}{cells[1]:>28}"
                  f"{f'{won}/{min(len(b), len(n))}':>8}  {result}")
    return status


# -- command line -------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["cold", "cached", "edit", "serve"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, for tests")
    parser.add_argument("--append", type=Path, default=None,
                        help="also append the result as a JSON line here")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    import_program()
    seconds = args.seconds if args.seconds is not None \
        else load_benchmark()["run_seconds"]
    result, lines = run_workload(args.workload, args.seed, seconds,
                                 bool(args.trace), args.smoke)
    for line in lines:
        print(line)
    if args.append is not None:
        row = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, **result}
        with open(args.append, "a") as handle:
            handle.write(json.dumps(row) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
