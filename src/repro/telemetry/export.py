"""Metrics exports: Prometheus text, JSONL time series, HTML dashboard.

Three formats, one source of truth:

* **Prometheus text** — the final registry state in the standard
  exposition format (``# HELP`` / ``# TYPE`` / samples, histograms as
  cumulative ``_bucket{le=...}`` + ``_sum`` + ``_count``), so any
  Prometheus-ecosystem tool can ingest a run's endpoint-of-record.
* **JSONL** — the full virtual-time :class:`MetricsTimeline`, one record
  per scrape carrying only the series that changed, bracketed by a
  ``meta`` header and a ``final`` trailer (full metric dump + recorder
  reconciliation).  Lossless: :func:`read_metrics` rebuilds the
  timeline and registry exactly.
* **HTML dashboard** — a single self-contained file (inline CSS + SVG
  sparklines, no external dependencies, no JavaScript required) showing
  every series as a step sparkline over virtual time.

All writers sort deterministically; two same-seed runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from html import escape
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TelemetryError
from .registry import COUNTER, GAUGE, HISTOGRAM, MetricsRegistry
from .timeline import MetricsTimeline, SeriesTrack

#: Format version for the JSONL document.
JSONL_VERSION = 1


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry's final state in Prometheus exposition format."""
    lines: List[str] = []
    for name, kind, help_text, series in registry.families():
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for metric in series:
            if kind == HISTOGRAM:
                for bound, cumulative in metric.cumulative_buckets():
                    bucket_labels = metric.labels + (("le", _fmt_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_labels_text(metric.labels)} {_fmt_value(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_labels_text(metric.labels)} {metric.count}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(metric.labels)} {_fmt_value(metric.value)}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text back into ``{family: {kind, help, samples}}``.

    ``samples`` maps the full sample name + label text to a float.  Used
    by the round-trip tests; handles exactly the subset
    :func:`prometheus_text` emits.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"kind": "", "help": "", "samples": {}}
            )["help"] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"kind": "", "help": "", "samples": {}}
            )["kind"] = kind
        elif line.startswith("#"):
            continue
        else:
            key, _, value_text = line.rpartition(" ")
            if not key:
                raise TelemetryError(f"malformed sample line: {raw!r}")
            base = key.partition("{")[0]
            family = base
            for suffix in ("_bucket", "_sum", "_count"):
                trimmed = base[: -len(suffix)] if base.endswith(suffix) else None
                if trimmed and families.get(trimmed, {}).get("kind") == HISTOGRAM:
                    family = trimmed
                    break
            families.setdefault(
                family, {"kind": "", "help": "", "samples": {}}
            )["samples"][key] = float(value_text)
    return families


# ----------------------------------------------------------------------
# registry dump / restore (lossless, rides inside the JSONL trailer)
# ----------------------------------------------------------------------
def registry_dump(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Full registry state as JSON-safe family records."""
    out: List[Dict[str, Any]] = []
    for name, kind, help_text, series in registry.families():
        record: Dict[str, Any] = {
            "name": name,
            "kind": kind,
            "help": help_text,
            "series": [],
        }
        for metric in series:
            entry: Dict[str, Any] = {"labels": [list(lv) for lv in metric.labels]}
            if kind == HISTOGRAM:
                entry["bounds"] = list(metric.bounds)
                entry["bucket_counts"] = list(metric.bucket_counts)
                entry["count"] = metric.count
                entry["sum"] = metric.sum
            else:
                entry["value"] = metric.value
            record["series"].append(entry)
        out.append(record)
    return out


def registry_from_dump(dump: List[Dict[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry from :func:`registry_dump` output."""
    registry = MetricsRegistry()
    for record in dump:
        name = record["name"]
        kind = record["kind"]
        help_text = record.get("help", "")
        for entry in record["series"]:
            labels = {key: value for key, value in entry["labels"]}
            if kind == COUNTER:
                registry.counter(name, help_text, **labels).set_total(
                    entry["value"]
                )
            elif kind == GAUGE:
                registry.gauge(name, help_text, **labels).set(entry["value"])
            elif kind == HISTOGRAM:
                metric = registry.histogram(
                    name, help_text, bounds=tuple(entry["bounds"]), **labels
                )
                metric.bucket_counts = list(entry["bucket_counts"])
                metric.count = entry["count"]
                metric.sum = entry["sum"]
            else:
                raise TelemetryError(f"unknown metric kind {kind!r} in dump")
    return registry


# ----------------------------------------------------------------------
# JSONL time series
# ----------------------------------------------------------------------
def write_jsonl(
    path: str,
    timeline: MetricsTimeline,
    registry: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    reconciliation: Optional[Dict[str, Any]] = None,
    counters: Optional[Dict[str, int]] = None,
) -> None:
    """Write the full timeline as JSON Lines.

    Record kinds, in order: one ``meta``, one ``series`` per series (in
    first-appearance order), one ``sample`` per scrape (changed values
    only), one ``final`` (registry dump + reconciliation + aggregate
    counters).
    """
    # One pass over the change-points groups them by scrape index
    # without re-walking every series per scrape.
    by_scrape: Dict[int, Dict[str, float]] = {}
    for key, track in timeline.series.items():
        for index, value in track.points:
            by_scrape.setdefault(index, {})[key] = value
    with open(path, "w") as fp:
        fp.write(
            json.dumps(
                {
                    "kind": "meta",
                    "version": JSONL_VERSION,
                    "scrapes": timeline.n_scrapes,
                    "series": len(timeline.series),
                    "meta": meta or {},
                },
                sort_keys=True,
            )
            + "\n"
        )
        for key, track in timeline.series.items():
            fp.write(
                json.dumps(
                    {"kind": "series", "key": key, "family": track.family},
                    sort_keys=True,
                )
                + "\n"
            )
        for index, time in enumerate(timeline.times):
            changed = by_scrape.get(index)
            if not changed and index:
                continue  # nothing moved this scrape; the step holds
            fp.write(
                json.dumps(
                    {
                        "kind": "sample",
                        "i": index,
                        "t": time,
                        "changed": dict(sorted((changed or {}).items())),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        trailer: Dict[str, Any] = {"kind": "final", "times": timeline.times}
        if registry is not None:
            trailer["registry"] = registry_dump(registry)
        if reconciliation is not None:
            trailer["reconciliation"] = reconciliation
        if counters is not None:
            trailer["counters"] = counters
        fp.write(json.dumps(trailer, sort_keys=True) + "\n")


class MetricsDoc:
    """A loaded metrics JSONL document."""

    def __init__(
        self,
        meta: Dict[str, Any],
        timeline: MetricsTimeline,
        registry: Optional[MetricsRegistry],
        reconciliation: Optional[Dict[str, Any]],
        counters: Dict[str, int],
    ):
        self.meta = meta
        self.timeline = timeline
        #: Final registry state, when the trailer carried a dump.
        self.registry = registry
        self.reconciliation = reconciliation
        self.counters = counters

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsDoc(scrapes={self.timeline.n_scrapes}, "
            f"series={len(self.timeline.series)})"
        )


def read_metrics(path: str) -> MetricsDoc:
    """Load a JSONL metrics document back into timeline + registry."""
    meta: Dict[str, Any] = {}
    timeline = MetricsTimeline()
    registry: Optional[MetricsRegistry] = None
    reconciliation: Optional[Dict[str, Any]] = None
    counters: Dict[str, int] = {}
    order: List[str] = []
    try:
        with open(path) as fp:
            for line_no, raw in enumerate(fp, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TelemetryError(
                        f"{path}:{line_no}: malformed JSONL record: {exc}"
                    ) from exc
                kind = record.get("kind")
                if kind == "meta":
                    meta = record.get("meta", {})
                elif kind == "series":
                    key = record["key"]
                    order.append(key)
                    timeline.series[key] = SeriesTrack(
                        key, record.get("family", key)
                    )
                elif kind == "sample":
                    index = int(record["i"])
                    while len(timeline.times) <= index:
                        timeline.times.append(float(record["t"]))
                    timeline.times[index] = float(record["t"])
                    for key, value in record.get("changed", {}).items():
                        track = timeline.series.get(key)
                        if track is None:
                            track = SeriesTrack(key, key)
                            timeline.series[key] = track
                        track.points.append((index, float(value)))
                elif kind == "final":
                    times = record.get("times")
                    if times:
                        timeline.times = [float(t) for t in times]
                    if "registry" in record:
                        registry = registry_from_dump(record["registry"])
                    reconciliation = record.get("reconciliation")
                    counters = record.get("counters", {})
    except OSError as exc:
        raise TelemetryError(f"cannot read metrics file {path}: {exc}") from exc
    # Change-points may arrive interleaved by scrape; re-sort per series.
    for track in timeline.series.values():
        track.points.sort(key=lambda point: point[0])
    return MetricsDoc(meta, timeline, registry, reconciliation, counters)


# ----------------------------------------------------------------------
# HTML dashboard
# ----------------------------------------------------------------------
_DASH_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem; background: #fafafa; color: #1a1a2e; }
h1 { font-size: 1.3rem; }  h2 { font-size: 1.05rem; margin: 1.6rem 0 .4rem; }
.meta { color: #555; font-size: .85rem; margin-bottom: 1rem; }
.grid { display: flex; flex-wrap: wrap; gap: .8rem; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: .6rem .8rem; width: 310px; }
.card .key { font-size: .78rem; color: #333; word-break: break-all; }
.card .val { font-size: .95rem; font-weight: 600; margin-top: .15rem; }
.card .range { font-size: .72rem; color: #777; }
svg { display: block; margin-top: .3rem; }
.spark { stroke: #2a6fdb; stroke-width: 1.3; fill: none; }
.sparkfill { fill: #2a6fdb22; stroke: none; }
"""

_SPARK_W = 280
_SPARK_H = 46


def _sparkline_svg(points: List[Tuple[float, float]], t_end: float) -> str:
    """A step-function sparkline as inline SVG (no scripts, no deps)."""
    if not points:
        return ""
    t0 = points[0][0]
    span = max(t_end - t0, 1e-9)
    values = [v for _, v in points]
    vmin, vmax = min(values), max(values)
    vspan = vmax - vmin
    if vspan <= 0:
        vspan = max(abs(vmax), 1.0)
        vmin = vmax - vspan

    def x(t: float) -> float:
        return (t - t0) / span * _SPARK_W

    def y(v: float) -> float:
        return _SPARK_H - 3 - (v - vmin) / vspan * (_SPARK_H - 6)

    coords: List[str] = []
    prev_v = points[0][1]
    coords.append(f"{x(points[0][0]):.1f},{y(prev_v):.1f}")
    for t, v in points[1:]:
        coords.append(f"{x(t):.1f},{y(prev_v):.1f}")  # hold (step)
        coords.append(f"{x(t):.1f},{y(v):.1f}")  # jump
        prev_v = v
    coords.append(f"{_SPARK_W:.1f},{y(prev_v):.1f}")
    poly = " ".join(coords)
    fill = f"0,{_SPARK_H} {poly} {_SPARK_W},{_SPARK_H}"
    return (
        f'<svg width="{_SPARK_W}" height="{_SPARK_H}" '
        f'viewBox="0 0 {_SPARK_W} {_SPARK_H}">'
        f'<polygon class="sparkfill" points="{fill}"/>'
        f'<polyline class="spark" points="{poly}"/></svg>'
    )


def dashboard_html(
    timeline: MetricsTimeline, meta: Optional[Dict[str, Any]] = None
) -> str:
    """Render the timeline as one self-contained static HTML page."""
    t_end = timeline.times[-1] if timeline.times else 0.0
    families: Dict[str, List[SeriesTrack]] = {}
    for track in timeline.series.values():
        families.setdefault(track.family, []).append(track)
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro metrics dashboard</title>",
        f"<style>{_DASH_CSS}</style></head><body>",
        "<h1>repro metrics dashboard</h1>",
    ]
    meta_bits = [f"scrapes: {timeline.n_scrapes}", f"span: {t_end:.0f} us"]
    for key in sorted(meta or {}):
        meta_bits.append(f"{escape(str(key))}: {escape(str((meta or {})[key]))}")
    parts.append(f"<div class='meta'>{' · '.join(meta_bits)}</div>")
    for family in sorted(families):
        parts.append(f"<h2>{escape(family)}</h2><div class='grid'>")
        for track in sorted(families[family], key=lambda s: s.key):
            points = [(timeline.times[i], v) for i, v in track.points]
            if not points:
                continue
            values = [v for _, v in points]
            last = values[-1]
            parts.append(
                "<div class='card'>"
                f"<div class='key'>{escape(track.key)}</div>"
                f"<div class='val'>{_fmt_value(last)}</div>"
                f"<div class='range'>min {_fmt_value(min(values))} · "
                f"max {_fmt_value(max(values))} · "
                f"{len(points)} change(s)</div>"
                f"{_sparkline_svg(points, t_end)}"
                "</div>"
            )
        parts.append("</div>")
    parts.append("</body></html>")
    return "".join(parts)


# ----------------------------------------------------------------------
# one-call writer used by the experiment drivers
# ----------------------------------------------------------------------
def write_metrics(
    base_path: str,
    probe,
    recorder=None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, str]:
    """Write all three exports for one run.

    ``base_path`` is extensionless (``dir/slug.metrics``); the writer
    emits ``.prom``, ``.jsonl`` and ``.html`` siblings and returns their
    paths.  Takes the probe's closing scrape first so final values are
    on the timeline, and embeds the recorder reconciliation when a
    recorder is supplied.
    """
    probe.finalize()
    reconciliation = probe.reconcile(recorder) if recorder is not None else None
    paths = {
        "prometheus": base_path + ".prom",
        "jsonl": base_path + ".jsonl",
        "html": base_path + ".html",
    }
    with open(paths["prometheus"], "w") as fp:
        fp.write(prometheus_text(probe.registry))
    write_jsonl(
        paths["jsonl"],
        probe.timeline,
        registry=probe.registry,
        meta=meta,
        reconciliation=reconciliation,
        counters=probe.counter_totals(),
    )
    with open(paths["html"], "w") as fp:
        fp.write(dashboard_html(probe.timeline, meta=meta))
    return paths
