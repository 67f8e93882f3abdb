"""Analysis: queueing theory, SLO capacity search, text tables."""

from .darc_model import (
    GroupPrediction,
    predict_partition,
    reservation_meets_slo,
    spec_inputs,
)
from .queueing import (
    bimodal_moments,
    erlang_c,
    is_stable,
    mg1_mean_wait,
    mm1_mean_sojourn,
    mm1_mean_wait,
    mmc_mean_wait,
    partition_stability,
    utilization,
)
from .slo import (
    capacity_at_slo,
    capacity_ratio,
    max_typed_slowdown_metric,
    overall_slowdown_metric,
    slowdown_improvement,
    typed_latency_metric,
)
from .tables import format_cell, render_series, render_table

__all__ = [
    "GroupPrediction",
    "predict_partition",
    "reservation_meets_slo",
    "spec_inputs",
    "mm1_mean_wait",
    "mm1_mean_sojourn",
    "mmc_mean_wait",
    "erlang_c",
    "mg1_mean_wait",
    "bimodal_moments",
    "utilization",
    "is_stable",
    "partition_stability",
    "capacity_at_slo",
    "capacity_ratio",
    "overall_slowdown_metric",
    "max_typed_slowdown_metric",
    "typed_latency_metric",
    "slowdown_improvement",
    "render_table",
    "render_series",
    "format_cell",
]
