"""Cluster layer: the :class:`~repro.cluster.balancer.Balancer` base.

Rack balancers (:mod:`repro.rack.balancers`) extend it; the four
reference policies here read server load directly (an oracle view).
Multi-server runs go through :func:`repro.rack.rack.run_rack`, which
takes a balancer factory as well as a catalogue name.
"""

from .balancer import (
    Balancer,
    JoinShortestQueue,
    RandomBalancer,
    RoundRobinBalancer,
    TypeAwareBalancer,
)

__all__ = [
    "Balancer",
    "RandomBalancer",
    "RoundRobinBalancer",
    "JoinShortestQueue",
    "TypeAwareBalancer",
]
