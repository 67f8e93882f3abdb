"""Experiment drivers — one module per paper figure/table.

Each ``figureN`` module declares its grid once as ``EXPERIMENT`` (an
:class:`~repro.sweep.planner.ExperimentSpec` the sweep planner reads) and
exposes ``run(...)`` returning a structured result and
``render(result)`` producing the text analogue of the paper's plot.  Scale knobs (``n_requests``, ``utilizations``) default to values
that keep pure-Python runtimes reasonable; crank them up for tighter
tails.
"""

from . import figure1, figure3, figure4, figure5, figure6, figure7, figure8, figure9, figure10, tables
from .common import (
    DEFAULT_N_REQUESTS,
    DEFAULT_WARMUP_FRAC,
    RunResult,
    run_once,
    run_sweep,
)
from .results import FigureResult

__all__ = [
    "figure1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "tables",
    "run_once",
    "run_sweep",
    "RunResult",
    "FigureResult",
    "DEFAULT_N_REQUESTS",
    "DEFAULT_WARMUP_FRAC",
]
