"""Trace-DAG optimizer: a pass-pipeline compiler over recorded runs.

``optimize_trace`` runs the default pipeline — rotation dedup/dead
elimination, twist folding, element-wise chain fusion, horizontal
launch merging — over an :class:`~repro.trace.ir.OpTrace`;
``schedule_search`` then scores legal topological orders of the
*lowered* DAG by ``run_dag`` latency.  Every pass is verified against
its legality contract (structure, replay tokens, work conservation; see
:mod:`repro.trace.opt.pipeline`), and ``OpTrace.expanded`` restores
primitive granularity so tests can replay an optimized recording
bit-identically through the functional layer.

Quick use::

    from repro.trace.opt import optimize_trace, schedule_search
    opt, report = optimize_trace(trace)
    dag = lower_trace(opt, params=params)
    dag, scores = schedule_search(dag)
"""

from .fusion import FoldTwistPass, FuseElementwisePass, MergeLaunchesPass
from .pipeline import (
    OptimizationError,
    OptReport,
    PassPipeline,
    PassStats,
    TracePass,
    default_passes,
    optimize_trace,
)
from .reorder import (
    event_output_rows,
    permute_dag,
    schedule_search,
    trace_pool_peak_rows,
)
from .replay import (
    event_work,
    primitive_events,
    replay_tokens,
    sink_signature,
    work_counts,
)
from .rotation import RotationDedupPass, observed_rotation_steps

__all__ = [
    "FoldTwistPass",
    "FuseElementwisePass",
    "MergeLaunchesPass",
    "OptReport",
    "OptimizationError",
    "PassPipeline",
    "PassStats",
    "RotationDedupPass",
    "TracePass",
    "default_passes",
    "event_output_rows",
    "event_work",
    "observed_rotation_steps",
    "optimize_trace",
    "permute_dag",
    "primitive_events",
    "replay_tokens",
    "schedule_search",
    "sink_signature",
    "trace_pool_peak_rows",
    "work_counts",
]
