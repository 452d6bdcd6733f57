"""Trace-driven execution: record functional runs, price them as DAGs.

Workflow (see DESIGN.md §10)::

    from repro.trace import record, lower_trace

    with record("hmult", params=ctx.params) as rec:
        ctx.evaluator.hmult(a, b, keys)
    dag = lower_trace(rec.trace, style="pe")
    result = dag.run()          # dependency-aware simulation
    print(result.elapsed_us)

Optimized workflow (DESIGN.md §12): ``optimize_trace`` runs the
:mod:`~repro.trace.opt` pass pipeline over a recording before lowering,
and ``schedule_search`` picks the fastest legal node order of the
lowered DAG.

:mod:`~repro.trace.lowering` and :mod:`~repro.trace.opt` are imported
lazily (PEP 562): the recorder is imported *by* the instrumented ckks
hot paths, while the lowering imports the core kernel builders which
import ckks parameters — resolving ``lower_trace`` on first use keeps
that cycle open.
"""

from .ir import (
    ALL_KINDS,
    ELEMENTWISE_KINDS,
    EVENT_KINDS,
    FUSED_KINDS,
    OpTrace,
    TraceEvent,
    validate_trace,
)
from .recorder import TraceRecorder, active, emit, record, span

__all__ = [
    "ALL_KINDS",
    "ELEMENTWISE_KINDS",
    "EVENT_KINDS",
    "FUSED_KINDS",
    "KernelDag",
    "DagNode",
    "OpTrace",
    "OptReport",
    "STYLES",
    "TraceEvent",
    "TraceRecorder",
    "active",
    "emit",
    "lower_trace",
    "optimize_trace",
    "record",
    "schedule_search",
    "span",
    "validate_trace",
]

_LOWERING_NAMES = {"KernelDag", "DagNode", "STYLES", "lower_trace"}
_OPT_NAMES = {"OptReport", "optimize_trace", "schedule_search"}


def __getattr__(name: str):
    if name in _LOWERING_NAMES:
        from . import lowering

        return getattr(lowering, name)
    if name in _OPT_NAMES:
        from . import opt

        return getattr(opt, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
