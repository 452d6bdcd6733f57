"""Mutation forges: known-illegal variants the checker must catch.

Each forge takes a *clean* recorded trace (and, for the pool mutation, a
lowered DAG), produces a minimally mutated artifact and runs exactly the
rule that should catch it.  The CI gate asserts every forge yields at
least one finding of its expected rule while the unmutated inputs stay
clean — the mutation-kill property that keeps the checker honest: a rule
that silently stops firing fails the build, not just a unit test.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..fhelint.findings import Finding
from ...trace.ir import OpTrace, TraceEvent
from ...trace.lowering import KernelDag
from .memory import check_hbm_budget, static_hbm_certificate
from .noise import check_noise
from .schedule import check_trace_schedule
from .semantics import check_semantics


def _events(trace: OpTrace) -> List[TraceEvent]:
    return list(trace.expanded().events)


def forge_illegal_reorder(trace: OpTrace) -> List[Finding]:
    """Move an event in front of one of its dependencies (D-SCH)."""
    events = _events(trace)
    pos = {e.eid: i for i, e in enumerate(events)}
    for e in events:
        if e.deps:
            dep_pos = pos[e.deps[-1]]
            my_pos = pos[e.eid]
            if dep_pos < my_pos:
                events.insert(dep_pos, events.pop(my_pos))
                break
    else:
        raise ValueError("trace has no dependent event to reorder")
    mutated = dataclasses.replace(trace, events=tuple(events))
    return [f for f in check_trace_schedule(mutated) if f.rule == "D-SCH"]


def forge_scale_mismatch(trace: OpTrace) -> List[Finding]:
    """Double the recorded result scale of one addition (D-SCL)."""
    base = _events(trace)
    for i, e in enumerate(base):
        if e.kind != "modadd" or e.scale is None or not e.deps:
            continue
        events = list(base)
        events[i] = dataclasses.replace(e, scale=e.scale * 2.0)
        mutated = dataclasses.replace(trace, events=tuple(events))
        found = [f for f in check_semantics(mutated) if f.rule == "D-SCL"]
        if found:
            return found
    raise ValueError("no tagged addition whose mutation trips D-SCL")


def _bypass(trace: OpTrace, base: List[TraceEvent], i: int) -> OpTrace:
    """``trace`` with ``base[i]`` deleted and its readers re-pointed at
    its first dependency."""
    victim = base[i]
    replacement = victim.deps[0]
    events = []
    for e in base[:i] + base[i + 1:]:
        if victim.eid in e.deps:
            deps = tuple(sorted(
                {replacement if d == victim.eid else d for d in e.deps}))
            e = dataclasses.replace(e, deps=deps)
        events.append(e)
    return dataclasses.replace(trace, events=tuple(events))


def forge_dropped_rescale(trace: OpTrace) -> List[Finding]:
    """Delete a rescale divide between two tensor products (D-RES).

    Scale tags are stripped first so the forged trace exercises the
    structural rescale-placement rule, not the scale checker.
    """
    base = [dataclasses.replace(e, scale=None) for e in _events(trace)]
    for i, victim in enumerate(base):
        if victim.kind != "divide" or not victim.deps:
            continue
        mutated = _bypass(trace, base, i)
        found = [f for f in check_semantics(mutated) if f.rule == "D-RES"]
        if found:
            return found
    raise ValueError("no divide whose removal breaks rescale placement")


def forge_dropped_sum_moddown(trace: OpTrace) -> List[Finding]:
    """Skip the ModDown of a hoisted rotate-and-sum tail (D-LVL).

    The summed lanes go straight from the INTT over ``Q ∪ P`` into the
    NTT over the level's primes — the division by ``P`` is gone, and the
    checker must see extended-basis data reach a ``Q_l`` transform.
    """
    base = _events(trace)
    for i, victim in enumerate(base):
        if (victim.kind != "moddown" or not victim.deps
                or victim.op.split("/")[-1] != "rotate_sum"):
            continue
        mutated = _bypass(trace, base, i)
        found = [f for f in check_semantics(mutated) if f.rule == "D-LVL"]
        if found:
            return found
    raise ValueError("no rotate-and-sum ModDown whose removal trips D-LVL")


def forge_dropped_fused_rescale(trace: OpTrace) -> List[Finding]:
    """Turn a fused ModDown·rescale into a plain ModDown by ``P`` (D-SCL).

    The double-hoisted tail keeps every prime it was meant to drop and
    divides by ``P`` only, while the recorded scale tag still claims the
    rescaled scale — the checker must see that the divisor is gone.
    """
    base = _events(trace)
    for i, victim in enumerate(base):
        drop = victim.shape.get("drop", 0)
        if victim.kind != "moddown" or not drop:
            continue
        shape = {k: v for k, v in victim.shape.items() if k != "drop"}
        shape["main_primes"] = victim.shape["main_primes"] + drop
        events = list(base)
        events[i] = dataclasses.replace(victim, shape=shape)
        mutated = dataclasses.replace(trace, events=tuple(events))
        found = [f for f in check_semantics(mutated) if f.rule == "D-SCL"]
        if found:
            return found
    raise ValueError("no fused ModDown·rescale whose removal trips D-SCL")


def forge_over_budget_noise(trace: OpTrace) -> List[Finding]:
    """Append an unrescaled level-0 squaring chain (D-NSE)."""
    if trace.params is None:
        raise ValueError("noise forge needs trace.params")
    events = _events(trace)
    prev = events[-1]
    scale = float(trace.params.scale)
    next_eid = max(e.eid for e in events) + 1
    for k in range(6):
        tagged = scale ** (k + 2)
        ev = TraceEvent(
            eid=next_eid + k, kind="tensor_product",
            op="forged/square_chain", span=f"forged#{k}",
            level=0, shape={"rows": 1}, deps=(prev.eid,), scale=tagged,
        )
        events.append(ev)
        prev = ev
    mutated = dataclasses.replace(trace, events=tuple(events))
    return [f for f in check_noise(mutated) if f.rule == "D-NSE"]


def forge_overcommitted_pool(trace: OpTrace,
                             dag: Optional[KernelDag] = None
                             ) -> List[Finding]:
    """Declare half the certified HBM need as the job budget (D-HBM)."""
    if dag is None:
        from ...trace.lowering import lower_trace
        dag = lower_trace(trace)
    cert = static_hbm_certificate(dag)
    declared = cert.peak_bytes / 2.0
    return check_hbm_budget(dag.label or trace.label, declared, cert)


#: Forge name -> (expected rule, forge callable).
MUTATIONS: Dict[str, tuple] = {
    "illegal_reorder": ("D-SCH", forge_illegal_reorder),
    "scale_mismatch_add": ("D-SCL", forge_scale_mismatch),
    "dropped_rescale": ("D-RES", forge_dropped_rescale),
    "dropped_fused_rescale": ("D-SCL", forge_dropped_fused_rescale),
    "dropped_sum_moddown": ("D-LVL", forge_dropped_sum_moddown),
    "over_budget_noise": ("D-NSE", forge_over_budget_noise),
    "overcommitted_pool": ("D-HBM", forge_overcommitted_pool),
}


def forge(name: str, trace: OpTrace,
          dag: Optional[KernelDag] = None) -> List[Finding]:
    """Run one named forge; returns the findings its rule produced."""
    rule, fn = MUTATIONS[name]
    if name == "overcommitted_pool":
        found = fn(trace, dag)
    else:
        found = fn(trace)
    return [f for f in found if f.rule == rule]
