"""Pool-footprint measurement and latency-scored schedule search.

* :func:`trace_pool_peak_rows` measures a *trace*: the peak live residue
  rows of a double-buffered executor in a given event order (a buffer is
  live from its producer to its last consumer).  The gym's
  throughput-per-GB objective and ``benchmarks/bench_dagopt.py`` read it.
* :func:`schedule_search` works on the *lowered* :class:`KernelDag`:
  ``run_dag`` launches ready kernels in index order, so the node order
  is the schedule.  The search prices a small set of deterministic
  candidate orders (recorded, critical-path-first, memory-greedy,
  shortest-job-first) and keeps the fastest.  Every candidate is a pure
  permutation, so no kernel is created, merged or dropped.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..ir import OpTrace, TraceEvent
from .graphs import event_reads, owner_positions

#: Ring-degree-free output size (residue rows written) per event kind.
_OUT_ROWS = {
    "ntt": lambda s: s.get("rows", 0),
    "intt": lambda s: s.get("rows", 0),
    "modup": lambda s: s.get("target_primes", 0) * s.get("polys", 1),
    "moddown": lambda s: s.get("main_primes", 0) * s.get("polys", 1),
    "inner_product": lambda s: s.get("primes", 0)
    * s.get("accumulators", 2) * max(s.get("steps", 1), 1),
    "automorphism": lambda s: s.get("primes", 0) * s.get("polys", 1),
    "modadd": lambda s: s.get("rows", 0),
    "modmul": lambda s: s.get("rows", 0),
    "tensor_product": lambda s: 3 * s.get("rows", 0),
    "divide": lambda s: s.get("rows", 0),
}


def event_output_rows(event: TraceEvent) -> int:
    """Residue rows the event leaves behind for consumers.

    Fused events expose the rows of their internally-unconsumed
    constituents (intermediates elided by fusion hold no pool space).
    """
    if event.fused:
        internal = {c.eid for c in event.fused}
        read_inside: Set[int] = set()
        for c in event.fused:
            read_inside.update(d for d in c.deps if d in internal)
        return sum(event_output_rows(c) for c in event.fused
                   if c.eid not in read_inside)
    fn = _OUT_ROWS.get(event.kind)
    return int(fn(event.shape)) if fn else 0


def trace_pool_peak_rows(trace: OpTrace,
                         order: Optional[Sequence[int]] = None) -> int:
    """Peak live residue rows under producer-to-last-consumer lifetimes.

    ``order`` is a permutation of top-level positions (default: program
    order).  Multiply by ``n * word_bytes`` for bytes at a target ring.
    """
    events = trace.events
    order = list(range(len(events))) if order is None else list(order)
    owner = owner_positions(events)
    remaining: Dict[int, int] = {}
    for e in events:
        for d in event_reads(e):
            p = owner.get(d)
            if p is not None:
                remaining[p] = remaining.get(p, 0) + 1
    live: Dict[int, int] = {}
    peak = 0
    total = 0
    for pos in order:
        e = events[pos]
        rows = event_output_rows(e)
        live[pos] = rows
        total += rows
        peak = max(peak, total)
        for d in event_reads(e):
            p = owner.get(d)
            if p is None:
                continue
            remaining[p] -= 1
            if remaining[p] == 0:
                total -= live.get(p, 0)
    return peak


# -- schedule search over lowered DAGs --------------------------------------


def schedule_search(dag, device=None, *,
                    strategies: Sequence[str] = ("recorded", "critical",
                                                 "memory", "sjf"),
                    ) -> Tuple[object, Dict[str, float]]:
    """Pick the fastest legal topological order of a lowered DAG.

    Every candidate is a permutation of the same :class:`DagNode` set
    with dependencies re-indexed — ``run_dag`` launches ready nodes in
    index order, so the permutation *is* the schedule.  Returns the best
    :class:`~repro.trace.lowering.KernelDag` and per-strategy latencies.
    """
    from ...gpusim import A100_PCIE_80G, run_dag
    from ...gpusim.engine import simulate_kernel
    from ...gpusim.streams import spec_cache_key

    dev = device if device is not None else (dag.device or A100_PCIE_80G)
    nodes = dag.nodes
    cache: Dict[tuple, float] = {}
    times: List[float] = []
    for nd in nodes:
        key = spec_cache_key(nd.spec)
        t = cache.get(key)
        if t is None:
            t = cache[key] = simulate_kernel(nd.spec, dev).elapsed_us
        times.append(t)

    children: List[List[int]] = [[] for _ in nodes]
    for i, nd in enumerate(nodes):
        for d in nd.deps:
            children[d].append(i)

    def order_for(strategy: str) -> List[int]:
        if strategy == "recorded":
            return list(range(len(nodes)))
        if strategy == "critical":
            cp = [0.0] * len(nodes)
            for i in range(len(nodes) - 1, -1, -1):
                cp[i] = times[i] + max(
                    (cp[c] for c in children[i]), default=0.0
                )
            return _kahn(nodes, lambda i, state: (-cp[i], i))
        if strategy == "sjf":
            return _kahn(nodes, lambda i, state: (times[i], i))
        if strategy == "memory":
            def key(i: int, state: Dict) -> tuple:
                freed = sum(
                    nodes[p].spec.gmem_write_bytes
                    for p in nodes[i].deps
                    if state["remaining"].get(p, 0) == 1
                )
                return (nodes[i].spec.gmem_write_bytes - freed, i)
            return _kahn(nodes, key, track_memory=True)
        raise ValueError(f"unknown schedule strategy {strategy!r}")

    scores: Dict[str, float] = {}
    best_dag = dag
    best_us = None
    for strategy in strategies:
        order = order_for(strategy)
        candidate = permute_dag(dag, order)
        elapsed = run_dag(candidate.to_dag_kernels(), dev).elapsed_us
        scores[strategy] = elapsed
        if best_us is None or elapsed < best_us:
            best_us = elapsed
            best_dag = candidate
    return best_dag, scores


def _kahn(nodes, key: Callable[[int, Dict], tuple], *,
          track_memory: bool = False) -> List[int]:
    indegree = [len(nd.deps) for nd in nodes]
    children: List[List[int]] = [[] for _ in nodes]
    consumers: Dict[int, int] = {}
    for i, nd in enumerate(nodes):
        for d in nd.deps:
            children[d].append(i)
            consumers[d] = consumers.get(d, 0) + 1
    state = {"remaining": dict(consumers)}
    ready = [i for i, deg in enumerate(indegree) if deg == 0]
    order: List[int] = []
    while ready:
        best = min(ready, key=lambda i: key(i, state))
        ready.remove(best)
        order.append(best)
        if track_memory:
            for d in nodes[best].deps:
                state["remaining"][d] -= 1
        for c in children[best]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    if len(order) != len(nodes):
        raise ValueError("kernel DAG contains a cycle")
    return order


def permute_dag(dag, order: Sequence[int]):
    """Re-index a :class:`KernelDag` to a new topological order.

    Raises if ``order`` is not a permutation or breaks a dependency
    (a dep must land before its dependent) — the machine-checkable
    legality contract of the schedule search.
    """
    nodes = dag.nodes
    if sorted(order) != list(range(len(nodes))):
        raise ValueError("order is not a permutation of the node set")
    new_index = {old: new for new, old in enumerate(order)}
    new_nodes = []
    for old in order:
        nd = nodes[old]
        deps = tuple(sorted(new_index[d] for d in nd.deps))
        if deps and deps[-1] >= new_index[old]:
            raise ValueError("order violates a dependency edge")
        new_nodes.append(dataclasses.replace(nd, deps=deps))
    return dataclasses.replace(dag, nodes=tuple(new_nodes))
