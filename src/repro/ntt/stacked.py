"""Stacked NTT kernel: one transform over a whole digit batch.

The batched key-switch pipeline materializes every decomposition digit of
a ciphertext at once — a ``(num_primes, dnum, N)`` residue tensor — and
needs all ``dnum * num_primes`` rows transformed in one pass, the way
WarpDrive's PE kernels consume the digit dimension as ciphertext-level
parallelism (§IV-C) rather than launching per-digit transforms serially.

The transform itself lives in the compute backend
(:mod:`repro.backend`); this module owns the per-chain table view
(:class:`ShoupStack`), shape validation and the public entry points.
Every stacked transform is a sequence of exact float64 GEMMs over
16-bit table limbs — WarpDrive's tensor-core NTT (§IV-A/B) on the host:

* **Four-step GEMM dataflow.** ``N = ma * mb``: a negacyclic size-``mb``
  leaf GEMM over the outer index (recursing once more above N = 4096),
  an element-wise twiddle, then a cyclic size-``ma`` GEMM over the inner
  index, each of depth at most 64. The negacyclic twists ``psi^j`` /
  ``psi^-j`` and ``N^-1`` are folded into the per-prime tables
  (:class:`repro.ntt.limbgemm.GemmNttPlan`, cached per ``(q, N)``), and
  the frequencies leave in digit order that one strided copy
  restores.
* **Exact by construction.** Balanced limbs keep every GEMM sum below
  ``2**53`` for inputs up to ``2**31`` in magnitude; raw inputs below
  ``2**32`` are centred by ``-2**31`` on entry. The plan refuses any
  depth that would break the bound.

Outputs are canonical (``< q``) and bit-identical to running the
Montgomery-domain batched kernel row by row (regression-tested).

Lazy inputs: the forward transform accepts any representatives below
``2**32``, which lets the single-prime-digit ModUp broadcast skip its
reduction entirely. The inverse transform requires inputs below ``2q``
(canonical suffices).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..analysis.annotations import bounded, coeff_form, eval_form, takes_form
from ..backend import active_backend
from .limbgemm import GemmNttPlan, get_gemm_plan
from .tables import TABLE_CACHE_SIZE


class ShoupStack:
    """Per-chain view of the NTT constants for one ``(moduli, N)`` pair,
    shared by every stacked transform over that chain.

    It holds :attr:`q`, the chain's moduli as a ``(num_primes,)`` uint64
    array, and :attr:`gemm_plans`, the per-prime limb-split GEMM plans
    (cached per ``(q, N)`` and shared across chains, built on first
    use). The name dates from the radix-2 Shoup tables it once held.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        self.moduli = tuple(moduli)
        self.n = n
        self.q = np.array(self.moduli, dtype=np.uint64)

    @cached_property
    def gemm_plans(self) -> Tuple[GemmNttPlan, ...]:
        return tuple(get_gemm_plan(q, self.n) for q in self.moduli)

    @property
    def num_primes(self) -> int:
        return len(self.moduli)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShoupStack(L={len(self.moduli)}, N={self.n})"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_shoup_stack(moduli: Tuple[int, ...], n: int) -> ShoupStack:
    """Shared, cached stack lookup (same sizing as the per-prime tables)."""
    return ShoupStack(moduli, n)


@bounded(assume=True, passthrough="x")
def _check_shape(x: np.ndarray, stack: ShoupStack) -> np.ndarray:
    if x.ndim == 2:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] != stack.num_primes or \
            x.shape[2] != stack.n:
        raise ValueError(
            f"expected a ({stack.num_primes}, G, {stack.n}) digit batch "
            f"or a ({stack.num_primes}, {stack.n}) matrix, got {x.shape}"
        )
    return x


@eval_form
@takes_form(x="coeff")
@bounded(in_bits=32, out_q=1, out_q_lazy=2, params={"x": {"bits": 32}})
def stacked_negacyclic_ntt(x: np.ndarray, stack: ShoupStack, *,
                           lazy: bool = False) -> np.ndarray:
    """Forward negacyclic NTT of a ``(P, G, N)`` digit batch (or a plain
    ``(P, N)`` matrix) in one pass; canonical output, same shape.

    The transform itself lives in the backend (:mod:`repro.backend`);
    this wrapper owns shape validation and the 2-D squeeze, so the
    backend always sees a ``(P, G, N)`` batch.

    Accepts lazy inputs: any representatives ``< 2**32`` transform to the
    same canonical result as their reduced values.

    ``lazy``: skip the final canonicalization and return lazy values
    ``< 2q`` (congruent to the canonical transform) — for consumers that tolerate 32-bit
    representatives, e.g. the wide-accumulator inner product.
    """
    squeeze = x.ndim == 2
    x = _check_shape(x, stack)
    out = active_backend().ntt_forward(x, stack, lazy=lazy)
    return out[:, 0, :] if squeeze else out


@coeff_form
@takes_form(x="eval")
@bounded(in_q=2, out_q=1, params={"x": {"q": 2}})
def stacked_negacyclic_intt(x: np.ndarray, stack: ShoupStack) -> np.ndarray:
    """Inverse negacyclic NTT of a ``(P, G, N)`` batch (or ``(P, N)``
    matrix); canonical output, same shape. Inputs must be ``< 2q``
    (canonical inputs always qualify). Delegates the transform to the
    backend (:mod:`repro.backend`)."""
    squeeze = x.ndim == 2
    x = _check_shape(x, stack)
    out = active_backend().ntt_inverse(x, stack)
    return out[:, 0, :] if squeeze else out


def shoup_stack_cache_stats() -> dict:
    """Hit/miss counters of the stacked-kernel table cache."""
    info = get_shoup_stack.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }
