"""Pass manager for the trace-DAG optimizer.

Every pass is a pure ``OpTrace -> OpTrace`` transform with a
machine-checkable legality contract, enforced here after each pass when
``verify=True`` (the default — passes are cheap next to lowering):

1. **Structure** — :func:`repro.trace.ir.validate_trace`: kinds in
   vocabulary, deps reference earlier events, fused payloads well formed.
2. **Data deps preserved** — expanding the optimized trace back to
   primitive granularity yields the *same* primitive event set (minus
   events the pass explicitly removed) with per-eid replay tokens
   unchanged, so every surviving computation still sees transitively
   identical inputs (see :mod:`repro.trace.opt.replay`).
3. **Shape accounting conserved** — per-kind work totals over the
   primitive view are exactly ``before == after + removed``: fusion may
   re-partition launches but can neither create nor destroy work.
4. **Removal is dead-or-duplicate only** — a removed event either has a
   token-identical survivor (dedup) or was a sink (dead elimination);
   anything else fails check 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import OpTrace, TraceEvent, validate_trace
from .replay import replay_tokens, work_counts

__all__ = [
    "OptimizationError", "PassStats", "OptReport", "TracePass",
    "PassPipeline", "optimize_trace", "default_passes",
]


class OptimizationError(ValueError):
    """A pass broke its legality contract (optimizer bug, never data)."""


@dataclass
class PassStats:
    """What one pass did to one trace."""

    name: str
    events_before: int
    events_after: int
    fused_groups: int = 0
    merged_launches: int = 0
    deduped: int = 0
    dead: int = 0
    #: Primitive events the pass removed (duplicates and dead ones) —
    #: the legality check books their work and the report keeps removal
    #: from ever being silent.
    removed: Tuple[TraceEvent, ...] = ()
    notes: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        bits = [f"{self.name}: {self.events_before} -> {self.events_after}"]
        if self.fused_groups:
            bits.append(f"{self.fused_groups} fused")
        if self.merged_launches:
            bits.append(f"{self.merged_launches} merged")
        if self.deduped:
            bits.append(f"{self.deduped} deduped")
        if self.dead:
            bits.append(f"{self.dead} dead")
        for k, v in self.notes.items():
            bits.append(f"{k}={v:g}")
        return ", ".join(bits)


@dataclass
class OptReport:
    """The composed pipeline's ledger."""

    label: str
    passes: List[PassStats] = field(default_factory=list)

    @property
    def events_before(self) -> int:
        return self.passes[0].events_before if self.passes else 0

    @property
    def events_after(self) -> int:
        return self.passes[-1].events_after if self.passes else 0

    def summary(self) -> str:
        lines = [f"optimize({self.label!r}): "
                 f"{self.events_before} -> {self.events_after} events"]
        lines += [f"  {p.summary()}" for p in self.passes]
        return "\n".join(lines)


class TracePass:
    """Base class: a named pure trace transform."""

    name = "pass"

    def run(self, trace: OpTrace) -> Tuple[OpTrace, PassStats]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def _verify(name: str, before: OpTrace, after: OpTrace,
            stats: PassStats) -> None:
    try:
        validate_trace(after)
    except ValueError as exc:
        raise OptimizationError(f"pass {name!r} broke structure: {exc}")
    try:
        tok_before = replay_tokens(before)
        tok_after = replay_tokens(after)
    except KeyError as exc:
        raise OptimizationError(
            f"pass {name!r}: dependency on undefined event {exc}"
        )
    removed_eids = {e.eid for e in stats.removed}
    expected = set(tok_before) - removed_eids
    got = set(tok_after)
    if got != expected:
        missing = sorted(expected - got)[:5]
        extra = sorted(got - expected)[:5]
        raise OptimizationError(
            f"pass {name!r} changed the primitive event set "
            f"(missing {missing}, extra {extra})"
        )
    for eid in got:
        if tok_after[eid] != tok_before[eid]:
            raise OptimizationError(
                f"pass {name!r} changed the computation of event {eid} "
                "(replay token mismatch)"
            )
    work_before = work_counts(before)
    work_after = work_counts(after)
    for e in stats.removed:
        from .replay import event_work
        work_after[e.kind] = work_after.get(e.kind, 0) + event_work(e)
    if work_before != work_after:
        raise OptimizationError(
            f"pass {name!r} broke work conservation: "
            f"{work_before} != {work_after}"
        )


class PassPipeline:
    """Run passes in order, verifying each one's legality contract."""

    def __init__(self, passes: Sequence[TracePass], *, verify: bool = True):
        self.passes = list(passes)
        self.verify = verify

    def run(self, trace: OpTrace) -> Tuple[OpTrace, OptReport]:
        report = OptReport(label=trace.label)
        current = trace
        for p in self.passes:
            nxt, stats = p.run(current)
            if self.verify:
                _verify(p.name, current, nxt, stats)
            report.passes.append(stats)
            current = nxt
        return current, report


def default_passes() -> List[TracePass]:
    """The standard pipeline, in dependency order: rotations first (so
    fusion cannot hide duplicate automorphisms inside opaque groups),
    twist folding before chain fusion (transforms make better fusion
    hosts than sibling element-wise events), horizontal merging over
    what remains."""
    from .fusion import FoldTwistPass, FuseElementwisePass, MergeLaunchesPass
    from .rotation import RotationDedupPass

    return [
        RotationDedupPass(),
        FoldTwistPass(),
        FuseElementwisePass(),
        MergeLaunchesPass(),
    ]


def optimize_trace(trace: OpTrace,
                   passes: Optional[Sequence[TracePass]] = None, *,
                   verify: bool = True) -> Tuple[OpTrace, OptReport]:
    """Run the (default or given) pass pipeline over one recording."""
    pipeline = PassPipeline(
        default_passes() if passes is None else passes, verify=verify
    )
    return pipeline.run(trace)
