"""Kernel plans of the homomorphic operations, lowered from functional code.

Each homomorphic operation of §II-A becomes a short list of PE kernels
(one launch per pipeline stage, every launch covering the whole
ciphertext; §IV-C). No plan here is written by hand: the scheduler
records the functional :class:`~repro.ckks.ops.Evaluator` operation once,
at a proxy ring that shares the parameter set's modulus chain, and lowers
the recording with :func:`repro.trace.lower_trace` (``style="pe"``) at the
real ring degree. Table IX's fixed 11-kernel KeySwitch is what the
lowering makes of ``Evaluator._relinearize``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..ckks.context import CkksContext
from ..ckks.keys import KeySet
from ..ckks.params import CkksParams, chain_key, proxy_params_for
from ..gpusim import (
    A100_PCIE_80G,
    ExecutionResult,
    GpuSpec,
    KernelSpec,
    run_serial,
)
from ..trace.ir import OpTrace
from ..trace.recorder import record, span
from .kernels import DEFAULT_GEOMETRY, GeometryConfig
from .ntt_engine import WarpDriveNtt

HOMOMORPHIC_OPS = ("hadd", "hsub", "pmult", "hmult", "hrotate", "rescale",
                   "keyswitch")

#: log2 ring degree of the proxy recordings. Trace shapes are
#: ring-degree-free, so any ring that carries the chain records the
#: same launches; a small one keeps key generation cheap.
_PROXY_LOG2N = 8

#: op -> functional call recorded for it, given ``(ev, keys, ct, pt)``.
_FUNCTIONAL: Dict[str, Callable[..., object]] = {
    "hadd": lambda ev, keys, ct, pt: ev.hadd(ct, ct),
    "hsub": lambda ev, keys, ct, pt: ev.hsub(ct, ct),
    "pmult": lambda ev, keys, ct, pt: ev.pmult(ct, pt),
    "hmult": lambda ev, keys, ct, pt: ev.hmult(ct, ct, keys),
    "hrotate": lambda ev, keys, ct, pt: ev.hrotate(ct, 1, keys),
    "rescale": lambda ev, keys, ct, pt: ev.rescale(ct),
    "keyswitch": lambda ev, keys, ct, pt: ev._relinearize(
        ct.c0, ct.c1, ct.c1, keys, ct.level, ct.scale),
}

#: chain key -> proxy context and its relinearization/rotation keys.
_proxies: Dict[tuple, Tuple[CkksContext, KeySet]] = {}
#: (chain key, op, level) -> recording of that op.
_traces: Dict[tuple, OpTrace] = {}


def _proxy(params: CkksParams) -> Tuple[CkksContext, KeySet]:
    key = chain_key(params)
    hit = _proxies.get(key)
    if hit is None:
        ctx = CkksContext.create(proxy_params_for(params, _PROXY_LOG2N),
                                 seed=0)
        hit = _proxies[key] = (ctx, ctx.keygen(rotations=[1]))
    return hit


def _recorded_op(params: CkksParams, op: str, level: int) -> OpTrace:
    """Record the functional ``op`` once per chain and level."""
    key = (chain_key(params), op, level)
    trace = _traces.get(key)
    if trace is None:
        ctx, keys = _proxy(params)
        # Operands are made outside the recording: only the operation
        # itself lands in the trace.
        vals = np.full(4, 0.25)
        ct = ctx.encrypt(vals, keys, level=level)
        pt = ctx.encode(vals, level=level)
        with record(op, params=ctx.params) as rec:
            # ``keyswitch`` has no evaluator span of its own (it is
            # ``hmult``'s tail); the op span names its launches.
            with span(op, level=level):
                _FUNCTIONAL[op](ctx.evaluator, keys, ct, pt)
        trace = _traces[key] = rec.trace
    return trace


class OperationScheduler:
    """Builds and prices kernel plans for one parameter set.

    Construction records nothing; the first :meth:`plan` call for an
    ``(op, level)`` records it (shared by every scheduler on the same
    chain) and each ``(op, level, batch)`` lowers once per scheduler.
    """

    def __init__(self, params: CkksParams, *,
                 device: GpuSpec = A100_PCIE_80G,
                 ntt_variant: str = "wd-fuse",
                 geometry: GeometryConfig = DEFAULT_GEOMETRY):
        self.params = params
        self.device = device
        self.geometry = geometry
        self.ntt = WarpDriveNtt(
            params.n, variant=ntt_variant, device=device, geometry=geometry
        )
        self._plans: Dict[Tuple[str, int, int], Tuple[KernelSpec, ...]] = {}

    # -- plans ------------------------------------------------------------------

    def plan(self, op: str, *, level: int = None,
             batch: int = 1) -> List[KernelSpec]:
        level = self.params.max_level if level is None else level
        key = (op, level, batch)
        specs = self._plans.get(key)
        if specs is None:
            # Deferred: repro.trace.lowering imports this package.
            from ..trace.lowering import lower_trace

            self._check(op, level)
            dag = lower_trace(
                _recorded_op(self.params, op, level), params=self.params,
                style="pe", device=self.device,
                ntt_variant=self.ntt.variant, geometry=self.geometry,
                batch=batch,
            )
            specs = self._plans[key] = tuple(dag.specs)
        return list(specs)

    def _check(self, op: str, level: int) -> None:
        if op not in HOMOMORPHIC_OPS:
            raise ValueError(
                f"unknown operation {op!r}; one of {HOMOMORPHIC_OPS}"
            )
        top = self.params.max_level
        if not 0 <= level <= top:
            raise ValueError(f"level {level} outside [0, {top}]")
        drop = self.params.rescale_primes
        if op in ("rescale", "hmult") and level < drop:
            raise ValueError(
                f"{op} at level {level} cannot drop {drop} prime(s)"
            )

    def simulate(self, op: str, *, level: int = None,
                 batch: int = 1) -> ExecutionResult:
        return run_serial(self.plan(op, level=level, batch=batch),
                          self.device)

    def latency_us(self, op: str, *, level: int = None,
                   batch: int = 1) -> float:
        """Amortized per-ciphertext latency of ``op``."""
        return self.simulate(op, level=level, batch=batch).elapsed_us / batch

    def throughput_kops(self, op: str, *, level: int = None,
                        batch: int = 1) -> float:
        return 1e3 / self.latency_us(op, level=level, batch=batch)

    def kernel_count(self, op: str, *, level: int = None) -> int:
        return len(self.plan(op, level=level))

    # -- profiles ---------------------------------------------------------------------

    def profile(self, op: str, *, level: int = None,
                batch: int = 1) -> Dict[str, object]:
        """Summary dict used by the benchmark harness tables."""
        result = self.simulate(op, level=level, batch=batch)
        from ..gpusim import aggregate

        agg = aggregate(result.profiles)
        return {
            "op": op,
            "kernels": result.kernel_count,
            "latency_us": result.elapsed_us / batch,
            "compute_util": agg.compute_utilization,
            "memory_util": agg.memory_utilization,
        }
