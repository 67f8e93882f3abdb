"""Command-line interface: ``repro-experiments`` / ``python -m repro.cli``.

Runs any paper experiment at a chosen scale, prints the text figure, and
optionally archives the underlying data as CSV::

    repro-experiments figure1 --n-requests 60000
    repro-experiments figure5 --quick
    repro-experiments figure3 --csv results/
    repro-experiments tables
    repro-experiments all --quick

With ``--out DIR`` or ``--jobs N`` the experiment's grid runs as
checkpointed cells instead (see :mod:`repro.sweep`): every cell is
recorded under DIR as it completes, ``--resume`` continues an
interrupted run, and the cells merge into multi-seed tables::

    repro-experiments plan figure5 --seeds 1,2,3 --out sweeps/fig5
    repro-experiments figure5 --seeds 1,2,3 --jobs 4 --out sweeps/fig5
    repro-experiments figure5 --seeds 1,2,3 --jobs 4 --out sweeps/fig5 --resume
    repro-experiments status sweeps/fig5
    repro-experiments merge sweeps/fig5

Exit codes: 0 ok, 1 failed or pending cells, 2 usage errors.  The
inspection commands live in ``repro-observe`` (:mod:`repro.cli.observe`).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError, UsageError
from ..experiments import (
    chaos,
    figure1,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    rack,
    tables,
)
from ..experiments.export import figure_to_csv, findings_to_csv
from ..experiments.results import FigureResult
from ..sweep.cells import parse_seeds
from ..sweep.checkpoint import CheckpointStore
from ..sweep.orchestrator import merge_store, run_plan
from ..sweep.planner import plan_experiment, supported_experiments

#: Load-sweep request counts for --quick runs.
QUICK_N = 8_000


def _tables_run(
    n, seed, sanitize, trace_dir, metrics_dir, seeds, forensics_dir,
    utilizations=None,
):
    """Tables are static text — no runs, so no run settings to honor."""
    for flag, value in (
        ("--trace", trace_dir),
        ("--metrics", metrics_dir),
        ("--forensics", forensics_dir),
        ("--utilizations", utilizations),
    ):
        if value is not None:
            raise UsageError(
                f"tables cannot honor {flag}: it renders static summary "
                "tables and runs no simulations"
            )
    return None


def _run_driver(
    driver, n, seed, sanitize, trace_dir, metrics_dir, seeds, forensics_dir,
    utilizations=None,
):
    """Run one experiment driver module with the CLI's settings.

    ``n=None`` runs the driver's declared request count
    (``EXPERIMENT.n_requests``).  Figure 7 runs fixed-length phases, so
    it takes no request count.
    """
    sized = {}
    if driver is not figure7:
        sized["n_requests"] = driver.EXPERIMENT.n_requests if n is None else n
    return driver.run(
        seed=seed,
        sanitize=sanitize,
        trace_dir=trace_dir,
        metrics_dir=metrics_dir,
        seeds=seeds,
        forensics_dir=forensics_dir,
        utilizations=utilizations,
        **sized,
    )


def _render(result):
    return result.render()


#: name -> (run(n, seed, sanitize, trace_dir, metrics_dir, seeds,
#: forensics_dir, utilizations) -> result, render(result) -> str).
#: ``seeds`` is None for the legacy single-seed path or a sequence for
#: replicated (CI-table) runs.
EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    name: (functools.partial(_run_driver, driver), render)
    for name, driver, render in (
        ("chaos", chaos, chaos.render),
        ("figure1", figure1, figure1.render),
        ("figure3", figure3, figure3.render),
        ("figure4", figure4, _render),
        ("figure5", figure5, figure5.render),
        ("figure6", figure6, figure6.render),
        ("figure7", figure7, _render),
        ("figure8", figure8, figure8.render),
        ("figure9", figure9, figure9.render),
        ("figure10", figure10, figure10.render),
        ("rack", rack, rack.render),
    )
}
EXPERIMENTS["tables"] = (_tables_run, lambda r: tables.render_all())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce Persephone/DARC (SOSP 2021) figures and tables.",
        epilog="Checkpoint commands: 'repro-experiments plan EXPERIMENT "
        "--out DIR', 'repro-experiments status DIR', 'repro-experiments "
        "merge DIR'.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--n-requests",
        type=int,
        default=None,
        help="arrivals per load point (default: the experiment's declared "
        "count, 60000 for most load sweeps)",
    )
    parser.add_argument(
        "--utilizations",
        metavar="U,V",
        default=None,
        help="comma-separated load points replacing the declared grid "
        "(refused by experiments without one)",
    )
    parser.add_argument("--seed", type=int, default=1, help="root RNG seed")
    parser.add_argument(
        "--seeds",
        metavar="A,B,C",
        default=None,
        help="replicate every point under these seeds (comma-separated; "
        "≥2 turns the tables into mean±CI cells, ≥3 recommended); "
        "per-run seeds are derived per cell, so in-process and "
        "checkpointed runs of the same grid match",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the experiment's grid as checkpointed cells on N "
        "parallel worker processes (needs --seeds; default 1 = in-process)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="run the grid as checkpointed cells recorded in DIR (needs "
        "--seeds; with 'all', one DIR/<experiment> each); without it, "
        "--jobs checkpoints into a fresh temporary directory",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the checkpoint in --out, skipping completed cells",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="stop a checkpointed run after N cells (resume it later)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-cell wall-clock timeout in seconds (--jobs > 1 only)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small runs ({QUICK_N} requests/point) for a fast sanity pass",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write the sweep data and findings as CSV files into DIR",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime invariant sanitizer to every run "
        "(slower; raises SanitizerViolation on the first broken invariant)",
    )
    parser.add_argument(
        "--shadow",
        action="store_true",
        help="implies --sanitize and additionally runs the tie-break "
        "shadow check: same-timestamp sibling events are detected and "
        "their handlers' write sets compared (hazards are recorded, "
        "never raised — results are bit-identical to a plain run)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="record a per-request span trace of every run into DIR "
        "(Perfetto-loadable JSON; inspect with repro-observe)",
    )
    parser.add_argument(
        "--metrics",
        metavar="DIR",
        default=None,
        help="collect virtual-time metrics for every run into DIR "
        "(Prometheus text, JSONL timeline, HTML dashboard; inspect "
        "with repro-observe)",
    )
    parser.add_argument(
        "--forensics",
        metavar="DIR",
        default=None,
        help="after the runs, fold every trace export into a forensics "
        "store under DIR (blame attribution + herding detection + run "
        "registry; requires --trace; inspect with repro-observe)",
    )
    return parser


def build_checkpoint_parser() -> argparse.ArgumentParser:
    """The ``plan`` / ``status`` / ``merge`` checkpoint commands."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Plan, inspect and merge checkpointed experiment runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="expand the cell grid and write plan.json")
    p.add_argument(
        "experiment",
        choices=supported_experiments(),
        help="experiment grid to expand",
    )
    p.add_argument(
        "--seeds", default="1",
        help="comma-separated replicate seeds (default: 1); 3+ seeds "
        "turn on confidence intervals",
    )
    p.add_argument(
        "--n-requests", type=int, default=None,
        help="arrivals per cell (default: the experiment's own)",
    )
    p.add_argument(
        "--utilizations", default=None,
        help="comma-separated load points replacing the declared grid",
    )
    p.add_argument("--out", required=True, help="checkpoint directory")

    p = sub.add_parser("status", help="report a checkpoint's progress")
    p.add_argument("dir", help="checkpoint directory")

    p = sub.add_parser("merge", help="(re-)aggregate a checkpoint's results")
    p.add_argument("dir", help="checkpoint directory")
    return parser


def _parse_utilizations(text: Optional[str]) -> Optional[List[float]]:
    if text is None:
        return None
    return [float(u) for u in text.split(",") if u.strip()]


def _export_csv(name: str, result, directory: str) -> List[str]:
    """Write CSVs for any FigureResult(s) in ``result``; returns paths."""
    figures: Dict[str, FigureResult] = {}
    if isinstance(result, FigureResult):
        figures[name] = result
    elif isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, FigureResult):
                figures[f"{name}_{key}"] = value
    written: List[str] = []
    os.makedirs(directory, exist_ok=True)
    for label, figure in figures.items():
        data_path = os.path.join(directory, f"{label}.csv")
        with open(data_path, "w") as fp:
            figure_to_csv(figure, fp)
        written.append(data_path)
        if figure.findings:
            findings_path = os.path.join(directory, f"{label}_findings.csv")
            with open(findings_path, "w") as fp:
                findings_to_csv(figure, fp)
            written.append(findings_path)
    return written


def _refusal(args: argparse.Namespace, checkpointed: bool) -> Optional[str]:
    """Why this flag combination cannot run, or None.

    The checkpointed path writes per-cell traces and metrics; every
    other run setting must be honored in-process or refused here, never
    dropped.
    """
    if args.forensics is not None and args.trace is None:
        return (
            "--forensics needs --trace (forensics analyzes the "
            "per-request trace exports)"
        )
    if checkpointed:
        if args.seeds is None:
            flag = "--jobs" if args.jobs > 1 else "--out"
            return (
                f"{flag} needs --seeds (checkpointed cells run the derived "
                "per-cell seeds of --seeds, never the raw --seed)"
            )
        for flag, value in (
            ("--csv", args.csv),
            ("--forensics", args.forensics),
            ("--sanitize", args.sanitize),
            ("--shadow", args.shadow),
        ):
            if value:
                return (
                    f"{flag} is not supported with --out/--jobs: run the "
                    "experiment in-process to use it"
                )
    if args.resume and args.out is None:
        return "--resume needs --out (the checkpoint to continue)"
    if args.max_cells is not None and not checkpointed:
        return "--max-cells needs --out or --jobs (a checkpointed run)"
    if args.timeout is not None and args.jobs < 2:
        return "--timeout needs --jobs > 1 (only worker processes can be timed out)"
    return None


def _resume_command(name: str, args: argparse.Namespace, directory: str) -> str:
    words = ["repro-experiments", name, "--seeds", args.seeds]
    if args.quick:
        words.append("--quick")
    elif args.n_requests is not None:
        words += ["--n-requests", str(args.n_requests)]
    if args.utilizations is not None:
        words += ["--utilizations", args.utilizations]
    words += ["--jobs", str(args.jobs), "--resume", "--out", directory]
    return " ".join(words)


def _run_checkpointed(
    name: str, args: argparse.Namespace, n: Optional[int], seeds, utils
) -> int:
    """Run one experiment's grid as checkpointed cells; returns the exit
    code (1 while cells failed or remain pending)."""
    plan = plan_experiment(name, seeds=seeds, n_requests=n, utilizations=utils)
    directory = args.out
    if directory is None:
        directory = tempfile.mkdtemp(prefix=f"repro-sweep-{name}-")
        print(f"pooling {len(plan.cells)} cells over {args.jobs} workers in {directory}")
        print(f"(resumable: {_resume_command(name, args, directory)})")
    elif args.experiment == "all":
        directory = os.path.join(directory, name)
    run = run_plan(
        plan,
        directory,
        jobs=args.jobs,
        resume=args.resume,
        timeout_s=args.timeout,
        trace_dir=args.trace,
        metrics_dir=args.metrics,
        max_cells=args.max_cells,
        progress=print,
    )
    if run.n_failed:
        for outcome in run.outcomes:
            if not outcome.ok:
                print(
                    f"FAILED {outcome.cell.cell_id}: {outcome.status} "
                    f"({outcome.error})",
                    file=sys.stderr,
                )
        return 1
    if run.merged is None:
        remaining = len(run.store.pending_cells(run.plan))
        print(
            f"stopped with {remaining} cell(s) pending; rerun with --resume "
            "to finish"
        )
        return 1
    print()
    print(run.merged.render())
    print(f"\nmerged {run.merged.n_cells} cells -> {run.store.merged_path}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_experiment(
        args.experiment,
        seeds=parse_seeds(args.seeds),
        n_requests=args.n_requests,
        utilizations=_parse_utilizations(args.utilizations),
    )
    store = CheckpointStore(args.out)
    store.init(plan, resume=False)
    print(
        f"planned {args.experiment}: {len(plan.cells)} cells "
        f"({len(plan.seeds)} seed(s)) -> {store.plan_path}"
    )
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    store = CheckpointStore(args.dir)
    status = store.status()
    print(
        f"{status['experiment']} @ {status['root']}: "
        f"{status['completed']}/{status['total']} cells complete, "
        f"{status['failed']} failed, seeds {status['seeds']}"
    )
    for cell_id, error in status["failures"].items():
        print(f"  FAILED {cell_id}: {error}")
    if status["merged"]:
        print(f"  merged: {store.merged_path}")
    return 0 if status["pending"] == 0 and status["failed"] == 0 else 1


def cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_store(args.dir)
    print(merged.render())
    print(f"\nmerged {merged.n_cells} cells -> "
          f"{CheckpointStore(args.dir).merged_path}")
    return 0


_COMMANDS = {"plan": cmd_plan, "status": cmd_status, "merge": cmd_merge}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args = build_checkpoint_parser().parse_args(argv)
        try:
            return _COMMANDS[args.command](args)
        except (ReproError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args = build_parser().parse_args(argv)
    checkpointed = args.experiment != "tables" and (
        args.out is not None or args.jobs > 1
    )
    problem = _refusal(args, checkpointed)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        seeds = None if args.seeds is None else parse_seeds(args.seeds)
        utils = _parse_utilizations(args.utilizations)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = QUICK_N if args.quick else args.n_requests
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    status = 0
    for name in names:
        if checkpointed and name != "tables":
            try:
                status = max(status, _run_checkpointed(name, args, n, seeds, utils))
            except (ReproError, ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            continue
        run, render = EXPERIMENTS[name]
        start = time.time()
        sanitize = "shadow" if args.shadow else args.sanitize
        try:
            result = run(
                n, args.seed, sanitize, args.trace, args.metrics, seeds,
                args.forensics, utils,
            )
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.time() - start
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(render(result))
        if args.csv is not None:
            for path in _export_csv(name, result, args.csv):
                print(f"wrote {path}")
        print()
    return status
