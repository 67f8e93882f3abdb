"""The simulator benchmark: host throughput per paper system, with a
per-layer ledger and a digest gate.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hb-trio --seed 1 --seconds 25 --trace 0

Each invocation runs one workload (see ``perfbench/cells.py`` and
``perfbench/README.md``) in this single-threaded process:

1. ``setup_s``: fresh processes (one at a time, in batches between
   passes) each import ``repro`` and build the workload's cells up to
   their first event; the median, normalised like every timing, is
   reported.
2. ``--trace 0``: whole passes over the workload's cells are timed until
   ``--seconds`` is spent (at least two, so every cell runs twice).
   Timings are normalised to a reference host speed (``hostspeed.py``)
   and each cell's time is its median over passes.
3. ``--trace 1``: one bare pass, then one pass with the ledger's span
   wrappers installed; prints the per-layer metrics.

Every cell execution is a run: it fails if it raises, if its digest
differs from a pinned, repeated or bare-reference digest, or if
completed + dropped differs from the arrivals generated.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the program's sources beside this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Ledger files are written here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Set-up samples per run (fresh processes, one at a time), taken in
#: batches between passes; a traced run takes one batch.
SETUP_SAMPLES = 6
SETUP_BATCH = 3
MIN_PASSES = 2

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="arrivals per cell (default: the workload's size; digests are pinned only there)",
    )
    return parser.parse_args(argv)


def load_program():
    """Import the program from ``src/`` beside this directory, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [SRC, HERE]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import cells

    return cells


def measure_setup(workload: str, seed: int, n_requests: int, samples: int):
    """One row per fresh process: set-up seconds (process start to the
    first event), import and build seconds, and the seconds the spawn
    reference took right before it."""
    from hostspeed import SPAWN_REFERENCE

    probe = os.path.join(HERE, "setup_probe.py")
    rows = []
    for _ in range(samples):
        started = time.monotonic()
        subprocess.run([sys.executable, *SPAWN_REFERENCE], cwd=ROOT, check=True, timeout=120)
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed), str(n_requests)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["setup_s"] = row["ready_at"] - spawned
        row["ref_s"] = spawned - started
        rows.append(row)
    return rows


def run_pass(cells, workload, seed, n_requests, timer=None):
    """Run every cell of ``workload`` once; with a ``timer``, each
    outcome keeps its chunk and reference times."""
    start = clock()
    outcomes = []
    for cell in workload.cells:
        # Each cell starts from a collected heap, as a fresh CLI call would,
        # so the previous cell's garbage is not collected on its clock.
        gc.collect()
        if timer is not None:
            timer.chunks, timer.refs = [], []
        outcome = cells.run_cell(cell, n_requests, seed, clock)
        if timer is not None:
            outcome.chunks, outcome.refs = timer.chunks, timer.refs
        outcomes.append(outcome)
    return clock() - start, outcomes


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed(cells, workload, seed, n_requests, seconds):
    """``--trace 0``: whole passes until ``seconds`` are spent.  Cell
    timings are normalised to a reference host speed (see
    ``hostspeed.py``); a cell's time is its median over passes.

    Set-up samples are taken in batches between passes, so their median
    spans the run rather than one moment of it, and each is normalised
    by the spawn reference timed right before it.
    """
    from hostspeed import SPAWN_REFERENCE_S, ChunkTimer, normalised_host_s

    timer = ChunkTimer()
    timer.install()
    deadline = clock() + seconds
    passes = []
    setup_rows = []
    peak_rss_mb = None
    while True:
        if len(setup_rows) < SETUP_SAMPLES:
            setup_rows += measure_setup(workload.name, seed, n_requests, SETUP_BATCH)
        passes.append(run_pass(cells, workload, seed, n_requests, timer))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(passes) >= MIN_PASSES and clock() + passes[-1][0] > deadline:
            break
    while len(setup_rows) < SETUP_SAMPLES:
        setup_rows += measure_setup(workload.name, seed, n_requests, SETUP_BATCH)
    runs = [o for _, outcomes in passes for o in outcomes]
    runs += [cells.run_cell(cell, n_requests, seed, clock) for cell in workload.references]
    setup_s = statistics.median(row["setup_s"] * SPAWN_REFERENCE_S / row["ref_s"] for row in setup_rows)
    metrics = {"setup_s": metric(setup_s, "s")}
    if not any(o.error for o in runs):
        cell_s = {
            cell: statistics.median(normalised_host_s(outcomes[i]) for _, outcomes in passes)
            for i, cell in enumerate(workload.cells)
        }
        for system in cells.SYSTEMS:
            mine = [cell for cell in workload.cells if cell.system == system]
            rate = len(mine) * n_requests / sum(cell_s[cell] for cell in mine)
            metrics[f"req_per_s.{system}"] = metric(rate, "1/s")
        metrics["wall_s"] = metric(sum(cell_s.values()), "s")
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    print(f"# {len(passes)} timed passes of {len(workload.cells)} cells, {n_requests} arrivals each")
    return runs, metrics


def traced(cells, workload, seed, n_requests):
    """``--trace 1``: a bare pass, then a pass with the ledger installed."""
    from ledger import LAYER_ID, LAYERS, Ledger

    _, bare = run_pass(cells, workload, seed, n_requests)
    runs = bare + [cells.run_cell(cell, n_requests, seed, clock) for cell in workload.references]
    ledger = Ledger()
    ledger.install()
    traced_runs, books = [], []
    for cell in workload.cells:
        outcome = cells.run_cell(cell, n_requests, seed, clock)
        books.append(ledger.end_cell(outcome.host_s))
        traced_runs.append(outcome)
    ledger.uninstall()
    runs += traced_runs
    for outcome, book in zip(traced_runs, books):
        if not book.reconciles():
            outcome.fail(
                f"ledger does not reconcile: self {book.cause_s.sum():.6f} s + "
                f"unattributed {book.unattributed_s:.6f} s vs wall {book.wall_s:.6f} s"
            )

    def total(fn, cells_filter=lambda o: True):
        return sum(fn(o, b) for o, b in zip(traced_runs, books) if cells_filter(o))

    def count(name):
        return total(lambda o, b: o.counters.get(name, 0))

    arrivals = count("arrivals")
    picks = total(lambda o, b: sum(b.entry_calls(n) for n in b.names if n.endswith(".pick")))
    view_reads = count("rack.stale_reads") + count("rack.fresh_reads")
    evals = total(lambda o, b: b.entry_calls("compute_reservation"))
    installs = count("core.alg2_installs")
    m = {}
    for layer in ("sim", "workload", "server", "policies", "core", "metrics", "rack"):
        m[f"{layer}.self_s"] = metric(total(lambda o, b: b.layer_self_s(layer)), "s")
    m["sim.events"] = metric(count("sim.events"), "count")
    m["sim.events_per_req"] = metric(count("sim.events") / arrivals, "1/req")
    m["workload.calls"] = metric(total(lambda o, b: b.layer_calls("workload")), "count")
    m["server.is_free_per_req"] = metric(total(lambda o, b: b.entry_calls("Worker.is_free")) / arrivals, "1/req")
    m["server.in_flight_calls"] = metric(total(lambda o, b: b.entry_calls("Server.in_flight")), "count")
    m["server.rack_caused_s"] = metric(
        total(lambda o, b: float(b.cause_s[LAYER_ID["server"], LAYER_ID["rack"]])), "s"
    )
    m["policies.steals"] = metric(count("policies.steals"), "count")
    m["policies.preemptions"] = metric(count("policies.preemptions"), "count")
    m["core.alg2_evals"] = metric(evals, "count")
    for rho in (0.8, 0.95):
        m[f"core.alg2_evals.rho{rho:g}"] = metric(
            total(lambda o, b: b.entry_calls("compute_reservation"), lambda o: o.cell.rho == rho), "count"
        )
    m["core.alg2_installs"] = metric(installs, "count")
    m["core.alg2_install_ratio"] = metric(installs / evals if evals else 0.0, "1/eval")
    m["metrics.summary_s"] = metric(total(lambda o, b: b.entry_inclusive_s("RunSummary.__init__")), "s")
    m["rack.pick_s"] = metric(
        total(lambda o, b: sum(b.entry_inclusive_s(n) for n in b.names if n.endswith(".pick"))), "s"
    )
    m["rack.picks"] = metric(picks, "count")
    m["rack.view_reads_per_pick"] = metric(view_reads / picks if picks else 0.0, "1/pick")
    m["rack.stale_read_frac"] = metric(count("rack.stale_reads") / view_reads if view_reads else 0.0, "1/read")
    for layer in ("trace", "telemetry", "sanitizer"):
        m[f"{layer}.self_s"] = metric(total(lambda o, b: b.layer_self_s(layer)), "s")
    for system, layer in (("persephone", "core"), ("shenango", "policies"), ("shinjuku", "policies")):
        m[f"{system}.{layer}.self_s"] = metric(
            total(lambda o, b: b.layer_self_s(layer), lambda o: o.cell.system == system), "s"
        )
    traced_wall = sum(b.wall_s for b in books)
    m["ledger.overhead"] = metric(traced_wall / sum(o.host_s for o in bare), "ratio")
    m["ledger.unattributed_s"] = metric(total(lambda o, b: b.unattributed_s), "s")

    print(f"# ledger: self seconds per layer per traced cell ({', '.join(LAYERS[:-1])})")
    for outcome, book in zip(traced_runs, books):
        shares = sorted(((book.layer_self_s(l), l) for l in LAYERS[:-1]), reverse=True)
        top = ", ".join(f"{l} {s:.3f}" for s, l in shares if s > 0)
        pick_s = sum(book.entry_inclusive_s(n) for n in book.names if n.endswith(".pick"))
        picks = f"; rack.pick {pick_s / book.wall_s:.1%} of wall" if pick_s else ""
        print(f"#   {outcome.cell.label}: wall {book.wall_s:.3f} s, {book.spans} spans; {top}; "
              f"unattributed {book.unattributed_s:.3f}{picks}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"ledger-{workload.name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "requests_per_cell": n_requests,
                "cells": {o.cell.label: b.to_json() for o, b in zip(traced_runs, books)},
            },
            fh,
            indent=1,
        )
    print(f"# ledger written to {os.path.relpath(path, ROOT)}")
    return runs, m


def print_readout(runs):
    """Public counters per executed cell, each with its base."""
    seen = set()
    for o in runs:
        key = (o.cell, o.digest)
        if key in seen and o.error is None:
            continue
        seen.add(key)
        c = o.counters
        n = c.get("arrivals", 0) or o.n_requests
        parts = [
            f"{o.cell.label}: {o.host_s:.3f} s host, {o.n_requests / o.host_s if o.host_s else 0:.0f} req/s",
            f"sim p99.9 slowdown {o.p999_slowdown:.4f}",
            f"events {c.get('sim.events', 0)} ({c.get('sim.events', 0) / n:.2f}/req)",
        ]
        for name in ("core.alg2_installs", "policies.steals", "policies.preemptions"):
            if name in c:
                parts.append(f"{name} {c[name]} ({c[name] / n:.4f}/req)")
        if "rack.picks" in c:
            reads = c["rack.stale_reads"] + c["rack.fresh_reads"]
            parts.append(f"picks {c['rack.picks']}, view reads {reads / c['rack.picks']:.2f}/pick, "
                         f"stale {c['rack.stale_reads'] / reads:.4f}/read")
        parts.append(f"digest {(o.digest or '-')[:16]}")
        if o.error:
            parts.append(f"FAILED: {o.error}")
        print("# " + "; ".join(parts))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    cells = load_program()
    if args.workload not in cells.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = cells.WORKLOADS[args.workload]
    n_requests = args.requests or workload.default_requests
    if args.trace:
        setup_rows = measure_setup(workload.name, args.seed, n_requests, SETUP_BATCH)
        runs, metrics = traced(cells, workload, args.seed, n_requests)
        for key in ("import_s", "build_s"):
            metrics[f"setup.{key}"] = metric(statistics.median(row[key] for row in setup_rows), "s")
    else:
        runs, metrics = timed(cells, workload, args.seed, n_requests, args.seconds)
    cells.check_digests(runs, args.seed, n_requests)
    # The simulated tail of each system's lowest-load cell (rho 0.8, or
    # 0.7 in the rack); exact per seed, so any run of the cell gives it.
    sim = {}
    for o in sorted(runs, key=lambda o: -o.cell.rho):
        sim[o.cell.system] = o.p999_slowdown
    for system in cells.SYSTEMS:
        value = sim.get(system, float("nan"))
        print(f"# sim_p999_slowdown.{system} = {value:.6f} (simulated; exact per seed)")
        if args.trace:
            metrics[f"sim_p999_slowdown.{system}"] = metric(value, "ratio")
    print_readout(runs)
    failed = sum(1 for o in runs if o.error)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
