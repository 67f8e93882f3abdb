"""Worker reservation — Algorithm 2 of the paper.

Given the grouped profile and ``n_workers``, compute how many workers
each group *reserves* and which additional workers it may *steal* from.
Groups are processed in ascending service-time order, so shorter groups
reserve first and may steal from every worker handed to longer groups —
the selective work conservation at the heart of DARC.

Spillway: when the free-worker pool is exhausted, ``next_free_worker()``
returns the designated spillway core (the highest-numbered worker), which
therefore may serve multiple under-provisioned long groups plus all
UNKNOWN requests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from .grouping import TypeEntry, TypeGroup, group_types

ROUNDING_MODES = ("round", "ceil", "floor")


class GroupAllocation:
    """One group's share of the machine."""

    __slots__ = ("group", "demand_workers", "reserved", "stealable", "used_spillway")

    def __init__(
        self,
        group: TypeGroup,
        demand_workers: float,
        reserved: List[int],
        stealable: List[int],
        used_spillway: bool,
    ):
        self.group = group
        #: Fractional worker demand d = (g.S / S) * W.
        self.demand_workers = demand_workers
        #: Worker ids this group owns.
        self.reserved = reserved
        #: Worker ids this group may steal (reserved by longer groups).
        self.stealable = stealable
        self.used_spillway = used_spillway

    @property
    def type_ids(self) -> List[int]:
        return self.group.type_ids

    def allowed_workers(self) -> List[int]:
        """Reserved then stealable — Algorithm 1's search order."""
        return self.reserved + self.stealable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GroupAllocation(types={self.type_ids}, d={self.demand_workers:.3f}, "
            f"reserved={self.reserved}, stealable={self.stealable})"
        )


class Reservation:
    """The full allocation produced by one run of Algorithm 2."""

    __slots__ = (
        "allocations",
        "n_workers",
        "spillway_worker",
        "demand_shares",
        "_group_of_type",
    )

    def __init__(
        self,
        allocations: List[GroupAllocation],
        n_workers: int,
        spillway_worker: Optional[int],
        demand_shares: Dict[int, float],
    ):
        self.allocations = allocations
        self.n_workers = n_workers
        #: Worker id that backstops starved groups and UNKNOWN requests.
        self.spillway_worker = spillway_worker
        #: Per-type Δ_i at reservation time, kept for deviation checks.
        self.demand_shares = demand_shares
        self._group_of_type: Dict[int, GroupAllocation] = {}
        for alloc in allocations:
            for tid in alloc.type_ids:
                self._group_of_type[tid] = alloc

    def group_for_type(self, type_id: int) -> Optional[GroupAllocation]:
        return self._group_of_type.get(type_id)

    def reserved_counts(self) -> Dict[int, int]:
        """type_id -> number of workers reserved to its group."""
        return {
            tid: len(alloc.reserved)
            for alloc in self.allocations
            for tid in alloc.type_ids
        }

    def expected_waste(self) -> float:
        """Analytic average CPU waste (paper Eq. 2 with the min-1 rule and
        cycle stealing).

        A group's over-grant (integral workers beyond fractional demand)
        is waste *unless shorter groups can steal it*: iterating in
        ascending service-time order, under-provisioned groups bank
        "steal credit" that absorbs the over-grants of later (longer)
        groups.  Over-grants to the shortest groups are unrecoverable —
        longer requests are never allowed on those cores.

        Matches the paper: ≈0.86 core on High Bimodal (§5.2), ≈0.97 on
        RocksDB (§5.4.4), and 0 on TPC-C (§5.4.3, "groups A and B are
        slightly under-provisioned and can steal from C").
        """
        credit = 0.0
        waste = 0.0
        for alloc in self.allocations:
            granted = len(alloc.reserved)
            if alloc.used_spillway:
                # A shared spillway core is not an exclusive grant.
                granted -= 1
            delta = granted - alloc.demand_workers
            if delta < 0:
                credit += -delta
            else:
                absorbed = min(delta, credit)
                credit -= absorbed
                waste += delta - absorbed
        return waste

    def describe(self) -> str:
        """Human-readable allocation table for logs and examples."""
        lines = [f"Reservation over {self.n_workers} workers "
                 f"(spillway={self.spillway_worker}, expected waste="
                 f"{self.expected_waste():.2f} cores)"]
        for i, alloc in enumerate(self.allocations):
            lines.append(
                f"  group {i}: types={alloc.type_ids} demand={alloc.demand_workers:.2f} "
                f"reserved={alloc.reserved} stealable={alloc.stealable}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Reservation({len(self.allocations)} groups, W={self.n_workers})"


def _round_demand(demand: float, mode: str) -> int:
    if mode == "round":
        # Banker's rounding would under-grant exactly-half demands; the
        # paper's round() is conventional half-up.
        return int(math.floor(demand + 0.5))
    if mode == "ceil":
        return int(math.ceil(demand))
    if mode == "floor":
        return int(math.floor(demand))
    raise ConfigurationError(f"unknown rounding mode {mode!r}")


def compute_reservation(
    entries: Sequence[TypeEntry],
    n_workers: int,
    delta: float = 2.0,
    rounding: str = "round",
    use_spillway: bool = True,
    worker_ids: Optional[Sequence[int]] = None,
) -> Reservation:
    """Run Algorithm 2 over ``(type_id, mean_service, ratio)`` entries.

    Returns a :class:`Reservation`.  Worker ids are 0-based indices into
    the server's worker list; the spillway is the last worker.

    ``worker_ids`` restricts the allocation to an explicit id set (in
    allocation order) — fault injection passes the surviving cores here
    so a reservation never names a crashed worker.  When given, it must
    have exactly ``n_workers`` entries; the spillway is its last id.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    if rounding not in ROUNDING_MODES:
        raise ConfigurationError(f"rounding must be one of {ROUNDING_MODES}")
    if not entries:
        raise ConfigurationError("cannot reserve for an empty profile")
    if worker_ids is not None and len(worker_ids) != n_workers:
        raise ConfigurationError(
            f"worker_ids has {len(worker_ids)} entries for n_workers={n_workers}"
        )

    # Algorithm 2 is not a cold path: DarcScheduler re-evaluates it on
    # every profiled completion while a group breaches its SLO.  On
    # High Bimodal, 14 workers, 50k arrivals, seed 1 it ran 6,002 times at
    # rho 0.8 and 26,120 times at rho 0.95, and installed one reservation
    # in each run (perfbench/run.py --workload hb-trio --trace 1).  The
    # comprehensions and copies below therefore run per completion in
    # that regime; ROADMAP item 1 tracks an exact early-out.
    groups = group_types(entries, delta)
    total_demand = sum(  # repro-analyze: disable=A401
        g.demand_contribution() for g in groups
    )
    if total_demand <= 0:
        raise ConfigurationError("total CPU demand is zero")

    pool = list(worker_ids) if worker_ids is not None else list(range(n_workers))
    spillway = pool[-1] if use_spillway else None
    first_worker = pool[0]
    allocations: List[GroupAllocation] = []

    for group in groups:
        demand = group.demand_contribution() / total_demand * n_workers
        grant = max(1, _round_demand(demand, rounding))
        reserved: List[int] = []
        used_spillway = False
        for _ in range(grant):
            if pool:
                reserved.append(pool.pop(0))
            elif use_spillway and spillway is not None:
                # next_free_worker() falls back to the spillway core; one
                # mention is enough (a worker id appears at most once).
                if spillway not in reserved:
                    reserved.append(spillway)
                    used_spillway = True
                break
            else:
                break
        if not reserved:
            # No pool, no spillway: the group shares the last reserved
            # worker of the previous group rather than being denied.
            reserved = (
                [allocations[-1].reserved[-1]]  # repro-analyze: disable=A401
                if allocations
                else [first_worker]
            )
        # Stealable workers are those not yet reserved at this point in
        # the iteration — they will belong to longer groups (Algorithm 2).
        stealable = list(pool)  # repro-analyze: disable=A401
        allocations.append(
            GroupAllocation(group, demand, reserved, stealable, used_spillway)
        )

    shares = {}
    for tid, mean, ratio in entries:
        shares[tid] = mean * ratio / total_demand
    return Reservation(allocations, n_workers, spillway, shares)


def demand_deviation(old_shares: Dict[int, float], new_shares: Dict[int, float]) -> float:
    """Largest absolute per-type change in demand share Δ_i.

    DARC triggers a reservation update when this exceeds the configured
    threshold (10% in the paper, §4.3.3).  Types absent from one side
    count with share zero there.
    """
    # Runs once per profiler window when deciding whether to recompute
    # the reservation — not per request.
    keys = set(old_shares) | set(new_shares)
    if not keys:
        return 0.0
    return max(  # repro-analyze: disable=A401
        abs(new_shares.get(k, 0.0) - old_shares.get(k, 0.0)) for k in keys
    )
