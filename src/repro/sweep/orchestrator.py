"""End-to-end sweep orchestration: plan → execute → checkpoint → merge.

The checkpointed path of ``repro-experiments`` (``--out`` or ``--jobs``)
runs through :func:`run_plan`; ``repro-experiments merge`` through
:func:`merge_store`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

from .checkpoint import CheckpointStore, write_json_atomic
from .executor import CellOutcome, execute_cells
from .merge import MergedSweep, merge_results
from .planner import SweepPlan


class SweepRun(NamedTuple):
    """What one orchestrated invocation did."""

    plan: SweepPlan
    store: CheckpointStore
    #: Outcomes of the cells *this* invocation executed (resumed-over
    #: cells are not re-listed; they are already in the store).
    outcomes: Tuple[CellOutcome, ...]
    #: Aggregate over every durable cell, or None if cells remain.
    merged: Optional[MergedSweep]

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


def run_plan(
    plan: SweepPlan,
    checkpoint_dir: str,
    jobs: int = 1,
    resume: bool = False,
    timeout_s: Optional[float] = None,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepRun:
    """Execute ``plan`` against a checkpoint directory.

    With ``resume=True`` an existing checkpoint for the same grid is
    continued: durably completed cells are skipped and only the
    remainder runs.  ``max_cells`` bounds how many cells this invocation
    executes (used by tests and the CI kill/resume step to simulate an
    interrupt); when cells remain afterwards no merge is produced.
    Merged output is written to ``<dir>/merged.json`` once every cell of
    the plan is durable.  ``trace_dir`` / ``metrics_dir`` collect each
    executed cell's trace and metrics artifacts.
    """
    store = CheckpointStore(checkpoint_dir)
    plan = store.init(plan, resume=resume)
    pending = store.pending_cells(plan)
    skipped = len(plan.cells) - len(pending)
    if progress is not None and skipped:
        progress(f"resume: {skipped}/{len(plan.cells)} cells already complete")
    truncated = max_cells is not None and len(pending) > max_cells
    if truncated:
        pending = pending[:max_cells]

    def on_cell(done: int, total: int, outcome: CellOutcome) -> None:
        store.record(outcome)
        if progress is not None:
            note = "" if outcome.ok else f"  [{outcome.status}: {outcome.error}]"
            progress(f"[{done}/{total}] {outcome.cell.cell_id}{note}")

    outcomes = execute_cells(
        pending,
        jobs=jobs,
        timeout_s=timeout_s,
        trace_dir=trace_dir,
        metrics_dir=metrics_dir,
        progress=on_cell,
    )
    merged: Optional[MergedSweep] = None
    if not store.pending_cells(plan):
        merged = _merge(store, plan)
    return SweepRun(plan, store, tuple(outcomes), merged)


def _merge(store: CheckpointStore, plan: SweepPlan) -> MergedSweep:
    merged = merge_results(plan.experiment, store.load_results())
    write_json_atomic(store.merged_path, merged.to_doc())
    return merged


def merge_store(checkpoint_dir: str) -> MergedSweep:
    """(Re-)merge whatever is durable in an existing checkpoint."""
    store = CheckpointStore(checkpoint_dir)
    return _merge(store, store.load_plan())
