"""``repro-observe`` — inspect what runs wrote: traces, metrics and
forensics stores.

Usage::

    repro-observe summary run.trace.json           # span/decision digest
    repro-observe summary run.metrics.jsonl        # final values + recon
    repro-observe breakdown run.trace.json --pct 99.9
    repro-observe validate run.trace.json          # Perfetto schema check
    repro-observe convert run.trace.json spans.csv # flat CSV
    repro-observe compare a.metrics.jsonl b.metrics.jsonl --tolerance 0.1
    repro-observe bench --root . --baseline bench-baseline.json
    repro-observe blame run.trace.json --pct 99.9 --json
    repro-observe herding rack.trace.json --fail-on-herding
    repro-observe collect --store F --trace-dir T  # traces -> registry
    repro-observe registry F                       # list the store
    repro-observe diff F system=Persephone system=Shenango
    repro-observe report F -o observatory.html --bench 'BENCH_*.json'

``summary`` reads either document: a metrics JSONL (one record per
line, each with a ``kind``) or a trace export (one JSON object).

Exit codes: 0 ok, 1 a failed check (validation, reconciliation, drift,
benchmark regression, or ``--fail-on-herding`` with a flagged log),
2 usage, read or write errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..errors import ReproError, UsageError
from ..forensics.blame import (
    DEFAULT_PCT,
    DEFAULT_WARMUP_FRAC,
    analyze_blame,
    render_blame,
)
from ..forensics.collect import collect_directory
from ..forensics.herding import (
    DEFAULT_BURST_MIN,
    DEFAULT_FLAG_FRACTION,
    detect_herding,
    render_herding,
)
from ..forensics.registry import RunRegistry, diff_groups, render_diff
from ..forensics.report import write_report
from ..telemetry import bench as bench_mod
from ..telemetry.export import read_metrics
from ..trace.breakdown import LatencyBreakdown
from ..trace.export import load_trace, spans_to_csv, validate_chrome_trace
from ..trace.span import COMPLETE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-observe",
        description="Inspect the Persephone reproduction's run artifacts: "
        "per-request span traces, virtual-time metrics, benchmark "
        "artifacts, and causal tail forensics.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "summary", help="print a trace or metrics digest (and reconciliation)"
    )
    p.add_argument(
        "path", help="trace JSON (--trace) or metrics JSONL (--metrics)"
    )
    p.add_argument(
        "--family", action="append", default=None,
        help="metrics only: show series of this family (repeatable)",
    )

    p = sub.add_parser("breakdown", help="per-type latency-stage decomposition")
    p.add_argument("path", help="trace file")
    p.add_argument("--pct", type=float, default=99.9, help="tail percentile")
    p.add_argument(
        "--warmup-frac", type=float, default=0.0,
        help="drop the earliest-arriving fraction of spans first",
    )

    p = sub.add_parser("validate", help="check the Perfetto/Chrome event layer")
    p.add_argument("path", help="trace file")

    p = sub.add_parser("convert", help="write a trace's spans as a CSV table")
    p.add_argument("path", help="trace file")
    p.add_argument("out", help="output CSV path")

    p = sub.add_parser("compare", help="diff two runs' metrics and flag drift")
    p.add_argument("a", help="baseline metrics JSONL")
    p.add_argument("b", help="candidate metrics JSONL")
    p.add_argument(
        "--tolerance", type=float, default=0.0,
        help="relative drift allowed per series (0 = exact)",
    )
    p.add_argument(
        "--counters-only", action="store_true",
        help="compare monotonic counter series only (gauges are "
        "load-dependent snapshots)",
    )

    p = sub.add_parser(
        "bench",
        help="aggregate BENCH_*.json into BENCH_summary.json and gate "
        "against a baseline",
    )
    p.add_argument("--root", default=".", help="directory holding BENCH_*.json")
    p.add_argument("--out", default="BENCH_summary.json")
    p.add_argument("--baseline", default=None, help="bench-baseline.json to gate against")
    p.add_argument(
        "--write-baseline", default=None,
        help="write a fresh baseline from this aggregation and exit",
    )
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="override the baseline's tolerance",
    )

    p = sub.add_parser("blame", help="per-victim blame attribution")
    p.add_argument("trace", help="trace file (native trace export)")
    p.add_argument(
        "--pct", type=float, default=DEFAULT_PCT,
        help=f"victim threshold percentile per type (default {DEFAULT_PCT:g})",
    )
    p.add_argument(
        "--warmup", type=float, default=DEFAULT_WARMUP_FRAC, metavar="FRAC",
        help="fraction of earliest arrivals discarded before picking "
        f"victims, as in the paper's §5.1 (default {DEFAULT_WARMUP_FRAC:g})",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("herding", help="balancer herding detection")
    p.add_argument("trace", help="rack trace file (carries the route log)")
    p.add_argument(
        "--burst-min", type=int, default=DEFAULT_BURST_MIN,
        help=f"minimum counted burst length (default {DEFAULT_BURST_MIN})",
    )
    p.add_argument(
        "--flag-fraction", type=float, default=DEFAULT_FLAG_FRACTION,
        help="herded-decision fraction that trips the flag "
        f"(default {DEFAULT_FLAG_FRACTION:g})",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--fail-on-herding", action="store_true",
        help="exit 1 when the log is flagged (CI gate)",
    )

    p = sub.add_parser("collect", help="fold trace exports into a store")
    p.add_argument("--store", required=True, help="forensics store directory")
    p.add_argument(
        "--trace-dir", required=True, help="directory of *.trace.json exports"
    )
    p.add_argument(
        "--experiment", default=None, help="experiment tag for the run records"
    )
    p.add_argument(
        "--pct", type=float, default=DEFAULT_PCT,
        help=f"victim threshold percentile (default {DEFAULT_PCT:g})",
    )
    p.add_argument(
        "--warmup", type=float, default=DEFAULT_WARMUP_FRAC, metavar="FRAC",
        help=f"warmup discard fraction (default {DEFAULT_WARMUP_FRAC:g})",
    )

    p = sub.add_parser("registry", help="list the runs in a forensics store")
    p.add_argument("store", help="forensics store directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("diff", help="compare two run groups of a store")
    p.add_argument("store", help="forensics store directory")
    p.add_argument("a", help="baseline selector (run-id prefix or k=v,... filter)")
    p.add_argument("b", help="candidate selector")
    p.add_argument(
        "--significant-only", action="store_true",
        help="show only deltas beyond the combined 95%% half-widths",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("report", help="render the observatory HTML page")
    p.add_argument("store", help="forensics store directory")
    p.add_argument("-o", "--output", required=True, help="HTML file to write")
    p.add_argument(
        "--bench", default=None, metavar="GLOB",
        help="BENCH_*.json glob for the benchmark-trajectory section",
    )
    p.add_argument(
        "--title", default="repro forensics observatory", help="page title"
    )
    return parser


def _fmt_counters(counters: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in counters.items())


def _reconciliation(lines: List[str], what: str, recon: Optional[dict]) -> int:
    """Append a document's reconciliation verdict; 1 on a mismatch."""
    if recon is None:
        return 0
    lines.append(f"{what} reconciliation: {'OK' if recon.get('ok') else 'MISMATCH'}")
    if recon.get("ok"):
        return 0
    lines.append("  " + _fmt_counters(recon))
    return 1


def _is_metrics(path: str) -> bool:
    """A metrics JSONL opens with a one-line record carrying a ``kind``;
    a trace export is one JSON object without one.  A file that cannot
    be read goes to the loader its suffix names, which reports it."""
    try:
        with open(path) as fp:
            record = json.loads(fp.readline())
    except OSError:
        return path.endswith(".jsonl")
    except ValueError:
        return False
    return isinstance(record, dict) and "kind" in record


def cmd_summary(args: argparse.Namespace) -> int:
    if _is_metrics(args.path):
        return _metrics_summary(args)
    if args.family:
        raise UsageError(f"--family applies to metrics JSONL, not {args.path}")
    return _trace_summary(args)


def _trace_summary(args: argparse.Namespace) -> int:
    doc = load_trace(args.path)
    terminal = {"complete": 0, "drop": 0, "dispatcher_drop": 0, "open": 0}
    for span in doc.spans:
        terminal[span.terminal or "open"] += 1
    lines = [f"trace: {args.path}"]
    if doc.meta:
        lines.append("meta: " + _fmt_counters(doc.meta))
    lines.append(
        f"spans: {len(doc.spans)} "
        f"(complete={terminal['complete']}, drop={terminal['drop']}, "
        f"dispatcher_drop={terminal['dispatcher_drop']}, open={terminal['open']})"
    )
    lines.append(f"decisions: {len(doc.decisions)}")
    kinds: dict = {}
    for entry in doc.decisions:
        kinds[entry[1]] = kinds.get(entry[1], 0) + 1
    for kind in sorted(kinds):
        lines.append(f"  {kind}: {kinds[kind]}")
    lines.append(f"samples: {len(doc.samples)}")
    if doc.tail_monitor:
        lines.append("streaming tail estimates (P2):")
        for key in sorted(doc.tail_monitor):
            est = doc.tail_monitor[key]
            lines.append(
                f"  {key}: p{est['pct']} ~= {est['estimate']:.1f}us "
                f"(n={est['count']})"
            )
    if doc.recorder is not None:
        lines.append("recorder: " + _fmt_counters(doc.recorder))
    status = _reconciliation(lines, "span/recorder", doc.reconciliation)
    print("\n".join(lines))
    return status


def _metrics_summary(args: argparse.Namespace) -> int:
    doc = read_metrics(args.path)
    lines = [f"metrics: {args.path}"]
    if doc.meta:
        lines.append("meta: " + _fmt_counters(doc.meta))
    span = doc.timeline.times[-1] if doc.timeline.times else 0.0
    lines.append(
        f"scrapes: {doc.timeline.n_scrapes} over {span:.0f} us virtual, "
        f"{len(doc.timeline.series)} series"
    )
    if doc.counters:
        lines.append("push counters: " + _fmt_counters(doc.counters))
    wanted = set(args.family) if args.family else None
    lines.append("final values:")
    for key, track in doc.timeline.series.items():
        if wanted is not None and track.family not in wanted:
            continue
        if track.last_value is not None:
            lines.append(f"  {key} = {track.last_value:g}")
    status = _reconciliation(lines, "telemetry/recorder", doc.reconciliation)
    print("\n".join(lines))
    return status


def cmd_breakdown(args: argparse.Namespace) -> int:
    doc = load_trace(args.path)
    completed = [s for s in doc.spans if s.terminal == COMPLETE]
    if not completed:
        print("no completed spans in trace")
        return 1
    breakdown = LatencyBreakdown(
        completed, pct=args.pct, warmup_frac=args.warmup_frac
    )
    breakdown.verify()
    print(breakdown.render())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    doc = load_trace(args.path)
    problems = validate_chrome_trace(doc.raw)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"INVALID: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"OK: {len(doc.trace_events)} trace events validate")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    doc = load_trace(args.path)
    with open(args.out, "w", newline="") as fp:
        rows = spans_to_csv(doc.spans, fp)
    print(f"wrote {rows} spans to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    doc_a = read_metrics(args.a)
    doc_b = read_metrics(args.b)
    final_a = doc_a.timeline.final_values()
    final_b = doc_b.timeline.final_values()
    counter_families: Dict[str, bool] = {}
    if args.counters_only:
        for doc in (doc_a, doc_b):
            if doc.registry is None:
                raise UsageError("--counters-only needs registry dumps in both files")
            for name, kind, _help, _series in doc.registry.families():
                counter_families[name] = kind == "counter"

    def keep(doc, key: str) -> bool:
        if not args.counters_only:
            return True
        family = doc.timeline.series[key].family
        return counter_families.get(family, False)

    drift: List[str] = []
    for key in sorted(set(final_a) | set(final_b)):
        in_a, in_b = key in final_a, key in final_b
        if not in_a:
            if keep(doc_b, key):
                drift.append(f"only in {args.b}: {key} = {final_b[key]:g}")
            continue
        if not in_b:
            if keep(doc_a, key):
                drift.append(f"only in {args.a}: {key} = {final_a[key]:g}")
            continue
        if not keep(doc_a, key):
            continue
        va, vb = final_a[key], final_b[key]
        if va == vb:
            continue
        denom = max(abs(va), abs(vb))
        rel = abs(vb - va) / denom if denom else 0.0
        if rel > args.tolerance:
            drift.append(f"{key}: {va:g} -> {vb:g} (drift {rel:.1%})")
    common = len(set(final_a) & set(final_b))
    print(
        f"compared {common} common series "
        f"({len(final_a)} in a, {len(final_b)} in b), "
        f"tolerance {args.tolerance:.1%}"
    )
    if drift:
        for line in drift:
            print("  " + line)
        print(f"DRIFT: {len(drift)} series differ")
        return 1
    print("OK: no metric drift")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    paths = bench_mod.discover(args.root)
    if not paths:
        raise UsageError(f"no BENCH_*.json under {args.root}")
    summary = bench_mod.aggregate(paths)
    bench_mod.write_json(args.out, summary)
    n_metrics = sum(len(m) for m in summary["benchmarks"].values())
    print(
        f"wrote {args.out}: {len(summary['benchmarks'])} benchmark(s), "
        f"{n_metrics} metric(s) from {len(paths)} artifact(s)"
    )
    if args.write_baseline:
        baseline = bench_mod.make_baseline(
            summary,
            tolerance=(
                args.tolerance
                if args.tolerance is not None
                else bench_mod.DEFAULT_TOLERANCE
            ),
        )
        bench_mod.write_json(args.write_baseline, baseline)
        print(f"wrote baseline {args.write_baseline}")
        return 0
    if args.baseline:
        baseline = bench_mod._load_json(args.baseline)
        regressions, report = bench_mod.compare(
            summary, baseline, tolerance=args.tolerance
        )
        gated = [r for r in report if r.get("direction")]
        print(f"gated {len(gated)} directional metric(s) against {args.baseline}")
        if regressions:
            for row in regressions:
                if row["status"] == "missing":
                    print(f"  MISSING {row['benchmark']} :: {row['metric']}")
                else:
                    print(
                        f"  REGRESSED {row['benchmark']} :: {row['metric']}: "
                        f"{row['baseline']:g} -> {row['value']:g} "
                        f"({row['change']:+.1%})"
                    )
            print(f"FAIL: {len(regressions)} regression(s)")
            return 1
        print("OK: no benchmark regressions")
    return 0


def cmd_blame(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    report = analyze_blame(doc.spans, pct=args.pct, warmup_frac=args.warmup)
    report.verify()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_blame(report))
    return 0


def cmd_herding(args: argparse.Namespace) -> int:
    doc = load_trace(args.trace)
    report = detect_herding(
        doc.decisions, burst_min=args.burst_min, flag_fraction=args.flag_fraction
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_herding(report, balancer=doc.meta.get("balancer")))
    if args.fail_on_herding and report.flagged:
        return 1
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    run_ids = collect_directory(
        args.store, args.trace_dir, experiment=args.experiment,
        pct=args.pct, warmup_frac=args.warmup,
    )
    for run_id in run_ids:
        print(f"registered {run_id}")
    print(f"repro-observe: {len(run_ids)} run(s) collected into {args.store}")
    return 0


def cmd_registry(args: argparse.Namespace) -> int:
    registry = RunRegistry(args.store)
    if args.json:
        print(json.dumps(registry.run_ids(), indent=2))
        return 0
    for run_id in registry.run_ids():
        record = registry.load(run_id)
        digests = record.get("digests", {})
        herd = digests.get("herding_flagged")
        herd_text = "n/a" if herd is None else ("HERDING" if herd else "clean")
        print(f"{run_id}  blame={digests.get('blame', '?')[:12]}  herding={herd_text}")
    print(f"repro-observe: {len(registry.run_ids())} run(s) in {args.store}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    registry = RunRegistry(args.store)
    diff = diff_groups(registry.match(args.a), registry.match(args.b))
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, only_significant=args.significant_only))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    path = write_report(
        args.output, args.store, bench_glob=args.bench, title=args.title
    )
    print(f"repro-observe: wrote {path}")
    return 0


_COMMANDS = {
    "summary": cmd_summary,
    "breakdown": cmd_breakdown,
    "validate": cmd_validate,
    "convert": cmd_convert,
    "compare": cmd_compare,
    "bench": cmd_bench,
    "blame": cmd_blame,
    "herding": cmd_herding,
    "collect": cmd_collect,
    "registry": cmd_registry,
    "diff": cmd_diff,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
