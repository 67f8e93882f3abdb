"""Virtual-time telemetry for the Persephone reproduction.

The aggregate observability plane: a Prometheus-style metrics registry
(:mod:`~repro.telemetry.registry`), a change-compressed scrape timeline
(:mod:`~repro.telemetry.timeline`), the :class:`TelemetryProbe` that
wires both into a run (:mod:`~repro.telemetry.probe`), exporters for
Prometheus text / JSONL / a static HTML dashboard
(:mod:`~repro.telemetry.export`), benchmark-artifact aggregation
(:mod:`~repro.telemetry.bench`), read back by ``repro-observe``
(:mod:`repro.cli.observe`).

Everything runs on **virtual time** only — the observer-purity rule A301 in
:mod:`repro.analyze` enforces it statically, and
``tests/telemetry/test_determinism.py`` enforces it dynamically
(bit-identical run digests with metrics on or off).
"""

from .probe import DEFAULT_SCRAPE_INTERVAL_US, TelemetryProbe
from .registry import (
    COUNTER,
    DEFAULT_BOUNDS,
    GAUGE,
    HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_spaced_bounds,
    series_key,
)
from .timeline import MetricsTimeline, SeriesTrack

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "DEFAULT_BOUNDS",
    "DEFAULT_SCRAPE_INTERVAL_US",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsTimeline",
    "SeriesTrack",
    "TelemetryProbe",
    "log_spaced_bounds",
    "series_key",
]
