"""Observer life cycle for one simulated run: build, attach, export.

Every run entry point (:func:`~repro.experiments.common.run_once`,
:func:`~repro.faults.runner.run_chaos`, :func:`~repro.rack.rack.run_rack`)
hands its observer keyword arguments to :func:`attach` right after it
has built the loop and its server(s), and calls :meth:`Observers.export`
once the run has drained.  The observers are pure: none schedules an
event, draws randomness or reads a wall clock, so an observed run is
bit-identical to a bare one.

The keyword arguments, shared by all three entry points:

* ``sanitize`` — ``True`` attaches a
  :class:`~repro.lint.sanitizer.SimSanitizer`; ``"shadow"`` also turns
  on its tie-break shadow check.  On a rack the sanitizer watches the
  loop only (time monotonicity and the shadow check).
* ``tracer`` / ``trace_path`` / ``trace_meta`` — an explicit tracer, or
  a path that creates one (a :class:`~repro.trace.tracer.Tracer`, or a
  :class:`~repro.rack.tracing.RackTracer` on a rack) and receives the
  trace document, with ``trace_meta`` merged into its metadata.
* ``telemetry`` / ``metrics_path`` / ``metrics_meta`` — the same for a
  :class:`~repro.telemetry.probe.TelemetryProbe` and its
  ``.prom``/``.jsonl``/``.html`` exports (``metrics_path`` is the
  extensionless base).

Besides the per-event loop hooks, observers see requests through the
request-level hooks named in :data:`HOOKS`.  :func:`attach` collects
them into one :class:`Hooks` table, and every component with a hook
site (server, scheduler, DARC's classifier, fault injector, balancer)
holds one reference to it.  A bare run shares :data:`NO_HOOKS`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

#: The request-level hooks an observer may implement; their signatures
#: and hook sites are tabled in docs/observability.md.
HOOKS = (
    "on_ingress", "on_dispatcher_drop", "on_classified", "on_dispatch",
    "on_preempt", "on_evict", "on_complete", "on_drop", "on_steal",
    "on_reservation", "on_fault", "on_route",
)


class Hooks:
    """One run's request-hook table: per hook in :data:`HOOKS`, the tuple
    of the observers' bound methods in attach order (observers without
    the method are left out).  A hook site is one loop over one tuple."""

    __slots__ = HOOKS

    def __init__(self, observers: Iterable[Any] = ()):
        observers = [o for o in observers if o is not None]
        for name in HOOKS:
            setattr(self, name, tuple(getattr(o, name) for o in observers if hasattr(o, name)))


#: The table every component starts with: no observer attached.
NO_HOOKS = Hooks()


class Observers:
    """The observers attached to one run, and where their exports go."""

    def __init__(
        self,
        sanitizer,
        tracer,
        telemetry,
        trace_path: Optional[str],
        trace_meta: Optional[Dict[str, Any]],
        metrics_path: Optional[str],
        metrics_meta: Optional[Dict[str, Any]],
        rack: bool,
    ):
        self.sanitizer = sanitizer
        self.tracer = tracer
        self.telemetry = telemetry
        self.trace_path = trace_path
        self.trace_meta = trace_meta
        self.metrics_path = metrics_path
        self.metrics_meta = metrics_meta
        self._rack = rack

    def export(
        self,
        recorder,
        meta: Dict[str, Any],
        metrics_base: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Write the trace and metrics exports that were asked for.

        ``meta`` describes the run; the caller's ``trace_meta`` and
        ``metrics_meta`` are merged over it.  ``metrics_base``, when
        given, describes the run in the metrics export instead of
        ``meta``.  A probe with no export path takes its closing scrape.
        """
        if self.trace_path is not None:
            if self._rack:
                from .rack.tracing import write_rack_trace as write_trace
            else:
                from .trace.export import write_trace
            write_trace(
                self.trace_path,
                self.tracer,
                recorder=recorder,
                meta=_merged(meta, self.trace_meta),
            )
        if self.metrics_path is not None:
            from .telemetry.export import write_metrics

            write_metrics(
                self.metrics_path,
                self.telemetry,
                recorder=recorder,
                meta=_merged(meta if metrics_base is None else metrics_base, self.metrics_meta),
            )
        elif self.telemetry is not None:
            self.telemetry.finalize()


def _merged(meta: Dict[str, Any], extra: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    merged = dict(meta)
    if extra:
        merged.update(extra)
    return merged


def attach(
    loop,
    server=None,
    *,
    rack=None,
    injector=None,
    sanitize: "bool | str" = False,
    tracer=None,
    trace_path: Optional[str] = None,
    trace_meta: Optional[Dict[str, Any]] = None,
    telemetry=None,
    metrics_path: Optional[str] = None,
    metrics_meta: Optional[Dict[str, Any]] = None,
) -> Observers:
    """Build the run's observers and attach them to ``loop``.

    Pass the single ``server`` (and the chaos ``injector``, whose fault
    events the tracer and probe record), or the assembled ``rack``.
    Call it before the load source starts: the probe takes its first
    scrape here.  Observers register in a fixed order — sanitizer,
    tracer(s), probe — which is the order the loop notifies them in and
    the order of every tuple in the run's :class:`Hooks` table.  On a
    rack each replica gets its own table, naming that replica's tracer.
    """
    sanitizer = None
    if sanitize:
        from .lint.sanitizer import SimSanitizer

        sanitizer = SimSanitizer(shadow_tiebreaks=(sanitize == "shadow"))
        sanitizer.attach(loop, server)
    if tracer is None and trace_path is not None:
        if rack is not None:
            from .rack.tracing import RackTracer

            tracer = RackTracer()
        else:
            from .trace import Tracer

            tracer = Tracer()
    if tracer is not None:
        if rack is not None:
            tracer.install(loop, rack.servers, rack.views)
        else:
            tracer.install(loop, server)
    if telemetry is None and metrics_path is not None:
        from .telemetry import TelemetryProbe

        telemetry = TelemetryProbe()
    if telemetry is not None:
        # On a rack the first scrape, taken by install, precedes the
        # rack's pull source.
        telemetry.install(loop, server, injector=injector)
        if rack is not None:
            telemetry.register_rack(rack)
    hooks = Hooks((sanitizer, tracer, telemetry))
    if rack is None:
        server.attach_hooks(hooks)
        if injector is not None:
            injector.hooks = hooks
    else:
        rack.balancer.hooks = hooks
        for index, replica in enumerate(rack.servers):
            replica_tracer = None if tracer is None else tracer.tracers[index]
            replica.attach_hooks(Hooks((sanitizer, replica_tracer, telemetry)))
    return Observers(
        sanitizer,
        tracer,
        telemetry,
        trace_path,
        trace_meta,
        metrics_path,
        metrics_meta,
        rack is not None,
    )
