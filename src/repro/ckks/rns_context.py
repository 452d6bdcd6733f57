"""RnsContext: the batched-arithmetic state shared by every RnsPoly.

One context serves one ``(moduli, N)`` pair and owns the row-wise Barrett
reducer (element-wise ciphertext arithmetic, §IV-A-4) plus the lazily
built :class:`~repro.ntt.TwiddleStack` (domain conversions). This mirrors
the paper's initialization phase (§IV-D-1): constants for the whole chain
are precomputed once and every subsequent operation is a single dense pass
over the ``(num_primes, N)`` residue matrix.

The twiddle stack is lazy because arithmetic never needs it and not every
basis is NTT-friendly — BFV's auxiliary bases, for instance, add and
subtract in the coefficient domain only.

Contexts are cached with the same unified sizing as the twiddle tables
(:data:`repro.ntt.tables.TABLE_CACHE_SIZE`) so a deep chain cannot evict
one half of an operation's precompute while keeping the other. The
immutable :class:`~repro.numtheory.rns.RNSBasis` objects the key-switch,
rescale and scheme layers pass to the basis conversions are cached the
same way (:func:`get_rns_basis`), so a warm operation constructs none.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..analysis.annotations import bounded
from ..ntt.stacked import ShoupStack, get_shoup_stack
from ..ntt.tables import TABLE_CACHE_SIZE
from ..ntt.twiddles import TwiddleStack, get_twiddle_stack
from ..numtheory import BatchBarrettReducer
from ..numtheory.rns import RNSBasis


class RnsContext:
    """Batched constants for one RNS basis at one ring degree."""

    def __init__(self, moduli: Tuple[int, ...], n: int):
        self.moduli = tuple(moduli)
        self.n = n
        self.barrett = BatchBarrettReducer(self.moduli)
        #: (num_primes, 1) modulus column for broadcast arithmetic.
        self.q_col = self.barrett.q_col(2)
        self._twiddles: Optional[TwiddleStack] = None
        self._shoup: Optional[ShoupStack] = None

    @property
    def twiddles(self) -> TwiddleStack:
        """The stacked NTT tables (built on first domain conversion)."""
        if self._twiddles is None:
            self._twiddles = get_twiddle_stack(self.moduli, self.n)
        return self._twiddles

    @property
    def shoup(self) -> ShoupStack:
        """The per-chain table view the backend NTT kernels consume
        (built on first domain conversion; shares the global stack cache
        with the key-switch pipeline)."""
        if self._shoup is None:
            self._shoup = get_shoup_stack(self.moduli, self.n)
        return self._shoup

    @bounded(out_q=1)
    def reduce_scalar(self, value: int) -> np.ndarray:
        """``value mod q_i`` per row, as a broadcastable column."""
        return self.barrett.reduce_scalar(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RnsContext(L={len(self.moduli)}, N={self.n})"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_rns_context(moduli: Tuple[int, ...], n: int) -> RnsContext:
    """Shared, cached context lookup (unified cache sizing)."""
    return RnsContext(moduli, n)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_rns_basis(moduli: Tuple[int, ...]) -> RNSBasis:
    """Shared, cached basis lookup: every operation over the same moduli
    tuple reuses one immutable :class:`RNSBasis` (CRT constants and
    per-prime reducers are built once, not per call)."""
    return RNSBasis(moduli)


def _lru_stats(func) -> dict:
    info = func.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }


def rns_basis_cache_stats() -> dict:
    """Hit/miss counters of the basis cache."""
    return _lru_stats(get_rns_basis)


def rns_context_cache_stats() -> dict:
    """Hit/miss counters of the context cache."""
    return _lru_stats(get_rns_context)


def all_cache_stats() -> dict:
    """Counters for every precompute cache the hot paths rely on.

    Keys: ``tables`` (per-prime NTT tables), ``gemm_plans`` (per-prime
    limb-split GEMM NTT plans), ``reducers`` (per-prime Barrett
    reducers), ``twiddle_stacks`` (batched tables), ``contexts``
    (batched contexts), ``bases`` (shared RNS bases). A homomorphic
    operation run twice must not increase any ``misses`` on its second
    run — that is the zero mid-op-recomputation invariant the
    cache-sizing fix restores.
    """
    from ..ntt.limbgemm import gemm_plan_cache_stats
    from ..ntt.tables import table_cache_stats
    from ..ntt.twiddles import twiddle_stack_cache_stats
    from .poly import reducer_cache_stats

    return {
        "tables": table_cache_stats(),
        "gemm_plans": gemm_plan_cache_stats(),
        "reducers": reducer_cache_stats(),
        "twiddle_stacks": twiddle_stack_cache_stats(),
        "contexts": rns_context_cache_stats(),
        "bases": rns_basis_cache_stats(),
    }
