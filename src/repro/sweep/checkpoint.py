"""Resumable on-disk checkpoint store for sweeps.

Layout of a checkpoint directory::

    <dir>/plan.json          the expanded SweepPlan (repro-sweep-plan)
    <dir>/manifest.json      completed/failed cell ledger (repro-sweep-manifest)
    <dir>/cells/<id>.json    one CellResult document per completed cell
    <dir>/merged.json        aggregated output (written by merge)

Every write is atomic (temp file + ``os.replace``), and the manifest is
rewritten after *each* cell completes, so a sweep killed at any instant
leaves a consistent store: either a cell's result file and manifest
entry both exist, or the cell reruns on resume.  Only completed
(``"ok"``) cells are skipped by resume — failed and timed-out cells are
recorded for the status report but retried.

Everything here is a pure function of cell results and JSON documents:
no wall clock, pids or RNG touch the stored data, so a resumed sweep's
merged output is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from .cells import Cell, CellResult
from .planner import SweepPlan

MANIFEST_KIND = "repro-sweep-manifest"


def write_json_atomic(path: str, doc: Mapping[str, Any]) -> None:
    """Serialize ``doc`` then atomically replace ``path``.

    The temp name is a fixed sibling (single-writer store: only the
    orchestrator process writes, workers return results over pipes).
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, path)


def read_json(path: str) -> Dict[str, Any]:
    with open(path) as fp:
        return json.load(fp)


class CheckpointStore:
    """One sweep's on-disk state."""

    def __init__(self, root: str):
        self.root = root
        self.plan_path = os.path.join(root, "plan.json")
        self.manifest_path = os.path.join(root, "manifest.json")
        self.cells_dir = os.path.join(root, "cells")
        self.merged_path = os.path.join(root, "merged.json")

    # -- plan ----------------------------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.plan_path)

    def init(self, plan: SweepPlan, resume: bool = False) -> SweepPlan:
        """Bind this store to ``plan``; create or validate the layout.

        A fresh directory is initialised with the plan and an empty
        manifest.  With ``resume=True`` an existing store is re-opened
        and its recorded plan must expand to the *same* cells — resuming
        under different parameters would silently mix incompatible
        results.  Without ``resume``, an existing store is an error.
        """
        if self.exists():
            if not resume:
                raise ConfigurationError(
                    f"checkpoint {self.root} already exists; pass --resume to "
                    "continue it or choose a fresh directory"
                )
            stored = self.load_plan()
            if stored.cells != plan.cells:
                raise ConfigurationError(
                    f"checkpoint {self.root} was planned for a different grid "
                    f"({len(stored.cells)} cells vs {len(plan.cells)} requested); "
                    "resume must reuse the original parameters"
                )
            return stored
        os.makedirs(self.cells_dir, exist_ok=True)
        write_json_atomic(self.plan_path, plan.to_doc())
        self._write_manifest({})
        return plan

    def load_plan(self) -> SweepPlan:
        if not self.exists():
            raise ConfigurationError(f"no sweep plan at {self.plan_path}")
        return SweepPlan.from_doc(read_json(self.plan_path))

    # -- manifest ------------------------------------------------------
    def _write_manifest(self, entries: Dict[str, Dict[str, Any]]) -> None:
        write_json_atomic(
            self.manifest_path,
            {"kind": MANIFEST_KIND, "version": 1, "cells": entries},
        )

    def manifest(self) -> Dict[str, Dict[str, Any]]:
        if not os.path.exists(self.manifest_path):
            return {}
        doc = read_json(self.manifest_path)
        if doc.get("kind") != MANIFEST_KIND:
            raise ConfigurationError(
                f"{self.manifest_path} is not a sweep manifest"
            )
        return dict(doc.get("cells", {}))

    def completed_ids(self) -> List[str]:
        """Cells whose results are durable (status ok + result file)."""
        entries = self.manifest()
        return sorted(
            cell_id
            for cell_id, entry in entries.items()
            if entry.get("status") == "ok"
            and os.path.exists(self._cell_path(cell_id))
        )

    def pending_cells(self, plan: Optional[SweepPlan] = None) -> List[Cell]:
        """Plan cells not yet durably completed, in plan order."""
        if plan is None:
            plan = self.load_plan()
        done = set(self.completed_ids())
        return [cell for cell in plan.cells if cell.cell_id not in done]

    # -- results -------------------------------------------------------
    def _cell_path(self, cell_id: str) -> str:
        return os.path.join(self.cells_dir, f"{cell_id}.json")

    def record(self, outcome) -> None:
        """Durably record one executed cell (result file, then manifest)."""
        entries = self.manifest()
        entry: Dict[str, Any] = {
            "status": outcome.status,
            "replicate": outcome.cell.replicate,
        }
        if outcome.result is not None:
            os.makedirs(self.cells_dir, exist_ok=True)
            write_json_atomic(
                self._cell_path(outcome.cell.cell_id), outcome.result.to_doc()
            )
            entry["digest"] = outcome.result.digest
        if outcome.error:
            entry["error"] = outcome.error
        entries[outcome.cell.cell_id] = entry
        self._write_manifest(entries)

    def load_result(self, cell_id: str) -> CellResult:
        return CellResult.from_doc(read_json(self._cell_path(cell_id)))

    def load_results(self) -> List[CellResult]:
        """All durable results, ordered by cell id."""
        return [self.load_result(cell_id) for cell_id in self.completed_ids()]

    # -- status --------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        plan = self.load_plan()
        entries = self.manifest()
        done = set(self.completed_ids())
        failed = {
            cell_id: entry
            for cell_id, entry in entries.items()
            if entry.get("status") != "ok"
        }
        return {
            "root": self.root,
            "experiment": plan.experiment,
            "seeds": list(plan.seeds),
            "total": len(plan.cells),
            "completed": len(done),
            "failed": len(failed),
            "pending": len(plan.cells) - len(done),
            "failures": {
                cell_id: entry.get("error", entry.get("status", ""))
                for cell_id, entry in sorted(failed.items())
            },
            "merged": os.path.exists(self.merged_path),
        }
