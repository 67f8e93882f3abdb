"""The run registry + cross-run regression observatory.

Every forensics collection persists one **run record** — trace meta, a
span-derived summary, the blame/herding digests — as a JSON file under
``<store>/runs/`` (written with the sweep module's atomic writer, so a
crashed collection never leaves a torn record) plus a rebuildable
``index.json``.  ``repro-observe diff`` then compares two run groups:
pointwise metric deltas with the sweep module's Student-t confidence
intervals once a group has replicates, so "did this branch regress the
p99.9?" is answerable from two store selectors before burning any new
simulation cycles — the triage loop "Scalable Tail Latency Estimation"
argues for.

Run ids are content-derived (meta slug + SHA-256 prefix of the record),
so re-collecting an identical run is idempotent and two stores built
from the same artifacts are byte-identical — no wall-clock timestamps
anywhere in the store.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ForensicsError
from ..sweep.checkpoint import read_json, write_json_atomic
from ..sweep.stats import mean_ci

#: Store schema version; bump on incompatible record layout changes.
STORE_VERSION = 1

RECORD_KIND = "repro-forensics-run"

#: Meta keys folded into the human-readable half of a run id.
_SLUG_KEYS = ("experiment", "system", "workload", "balancer", "utilization", "seed")


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() or c in ".-" else "-" for c in text).strip("-")


def record_id(record: Dict[str, Any]) -> str:
    """Content-derived run id: meta slug + record digest prefix."""
    meta = record.get("meta", {})
    parts = [
        _slug(str(meta[key]))
        for key in _SLUG_KEYS
        if meta.get(key) not in (None, "")
    ]
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return "_".join(parts + [digest]) if parts else digest


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)


class RunRegistry:
    """One forensics store: ``<root>/runs/*.json`` + ``index.json``."""

    def __init__(self, root: str):
        self.root = root
        self.runs_dir = os.path.join(root, "runs")
        self.index_path = os.path.join(root, "index.json")
        os.makedirs(self.runs_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def register(self, record: Dict[str, Any]) -> str:
        """Persist one run record; returns its content-derived id.

        Idempotent: an identical record maps to the same id and file.
        """
        if record.get("kind") != RECORD_KIND:
            raise ForensicsError(
                f"record kind must be {RECORD_KIND!r}, got {record.get('kind')!r}"
            )
        run_id = record_id(record)
        stored = dict(record, run_id=run_id)
        write_json_atomic(os.path.join(self.runs_dir, f"{run_id}.json"), stored)
        self._write_index()
        return run_id

    def _write_index(self) -> None:
        entries = []
        for record in self._iter_records():
            meta = record.get("meta", {})
            entries.append(
                {
                    "run_id": record["run_id"],
                    "meta": {k: meta.get(k) for k in _SLUG_KEYS if k in meta},
                    "digests": record.get("digests", {}),
                }
            )
        write_json_atomic(
            self.index_path,
            {
                "kind": "repro-forensics-index",
                "version": STORE_VERSION,
                "runs": entries,
            },
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _iter_records(self) -> List[Dict[str, Any]]:
        records = []
        for name in sorted(os.listdir(self.runs_dir)):
            if not name.endswith(".json"):
                continue
            try:
                record = read_json(os.path.join(self.runs_dir, name))
            except (OSError, json.JSONDecodeError) as exc:
                raise ForensicsError(
                    f"unreadable run record {name!r}: {exc}"
                ) from exc
            if record.get("kind") == RECORD_KIND:
                records.append(record)
        return records

    def run_ids(self) -> List[str]:
        return [r["run_id"] for r in self._iter_records()]

    def load(self, run_id: str) -> Dict[str, Any]:
        path = os.path.join(self.runs_dir, f"{run_id}.json")
        if not os.path.exists(path):
            raise ForensicsError(f"no run {run_id!r} in store {self.root!r}")
        return read_json(path)

    def match(self, selector: str) -> List[Dict[str, Any]]:
        """Resolve a selector to run records.

        Two grammars: a run-id prefix (``figure5_Persephone_…`` or just
        the digest head), or a comma-separated meta filter
        (``system=Persephone,utilization=0.7``).
        """
        records = self._iter_records()
        if "=" in selector:
            filters: List[Tuple[str, str]] = []
            for clause in selector.split(","):
                key, _, value = clause.partition("=")
                if not key or not value:
                    raise ForensicsError(f"bad meta filter clause {clause!r}")
                filters.append((key.strip(), value.strip()))
            return [
                r
                for r in records
                if all(
                    str(r.get("meta", {}).get(key)) == value
                    for key, value in filters
                )
            ]
        return [r for r in records if r["run_id"].startswith(selector)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunRegistry({self.root!r}, {len(self.run_ids())} runs)"


# ----------------------------------------------------------------------
# cross-run diff
# ----------------------------------------------------------------------
def _group_metrics(records: Sequence[Dict[str, Any]]) -> Dict[str, List[float]]:
    grouped: Dict[str, List[float]] = {}
    for record in records:
        flat: Dict[str, float] = {}
        _flatten("", record.get("summary", {}), flat)
        for key, value in flat.items():
            grouped.setdefault(key, []).append(value)
    return grouped


def diff_groups(
    group_a: Sequence[Dict[str, Any]],
    group_b: Sequence[Dict[str, Any]],
    confidence: float = 0.95,
) -> Dict[str, Any]:
    """Metric-by-metric delta between two run groups.

    Each side is summarized as ``mean ± half_width`` (Student-t
    ``mean_ci`` once it has >= 2 replicates; a point estimate with zero
    half-width otherwise).  A delta is **significant** when it exceeds
    the combined half-widths — the conservative no-overlap criterion.
    """
    if not group_a or not group_b:
        raise ForensicsError("diff needs at least one run on each side")
    metrics_a = _group_metrics(group_a)
    metrics_b = _group_metrics(group_b)
    rows: Dict[str, Any] = {}
    for key in sorted(set(metrics_a) & set(metrics_b)):
        va, vb = metrics_a[key], metrics_b[key]
        ci_a = mean_ci(va, confidence) if len(va) >= 2 else None
        ci_b = mean_ci(vb, confidence) if len(vb) >= 2 else None
        mean_a = ci_a.mean if ci_a else sum(va) / len(va)
        mean_b = ci_b.mean if ci_b else sum(vb) / len(vb)
        half_a = ci_a.half_width if ci_a else 0.0
        half_b = ci_b.half_width if ci_b else 0.0
        delta = mean_b - mean_a
        rows[key] = {
            "a": {"n": len(va), "mean": mean_a, "half_width": half_a},
            "b": {"n": len(vb), "mean": mean_b, "half_width": half_b},
            "delta": delta,
            "delta_pct": (delta / mean_a * 100.0) if mean_a else None,
            "significant": abs(delta) > (half_a + half_b),
        }
    return {
        "confidence": confidence,
        "n_a": len(group_a),
        "n_b": len(group_b),
        "metrics": rows,
    }


def render_diff(diff: Dict[str, Any], only_significant: bool = False) -> str:
    """Human-readable diff table (``repro-observe diff``)."""
    lines = [
        f"Forensics diff: {diff['n_a']} run(s) vs {diff['n_b']} run(s) "
        f"at {diff['confidence'] * 100:g}% confidence"
    ]
    shown = 0
    for key, row in diff["metrics"].items():
        if only_significant and not row["significant"]:
            continue
        shown += 1
        a, b = row["a"], row["b"]
        pct = (
            f" ({row['delta_pct']:+.1f}%)" if row["delta_pct"] is not None else ""
        )
        mark = "  *" if row["significant"] else ""
        lines.append(
            f"  {key:48s} {a['mean']:12.3f}±{a['half_width']:<10.3f}"
            f" -> {b['mean']:12.3f}±{b['half_width']:<10.3f}"
            f" delta {row['delta']:+.3f}{pct}{mark}"
        )
    if shown == 0:
        lines.append("  (no shared metrics" + (" above significance)" if only_significant else ")"))
    else:
        lines.append("  * = |delta| exceeds combined half-widths")
    return "\n".join(lines)
