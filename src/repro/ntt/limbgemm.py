"""Exact float64 limb-split GEMM plans for the host negacyclic NTT.

WarpDrive runs the NTT as small-matrix GEMMs over split limbs (§IV-A/B):
INT8 limbs against INT32 tensor-core accumulators. The host counterpart
here uses **16-bit table limbs against the 53-bit float64 mantissa**, so
every inner transform is one BLAS ``dgemm`` whose every partial sum is an
exactly representable integer.

Decomposition (four-step, recursive)
------------------------------------
A negacyclic transform of size ``m`` with root ``psi_m`` (a primitive
``2m``-th root) is either a dense **leaf** (``m <= LEAF_MAX``)::

    X[k] = sum_j psi_m^(j(2k+1)) x[j]

or splits ``m = ma * mb`` with ``j = a + ma*b`` and ``k = kb + mb*ka``::

    X[kb + mb*ka] = sum_a psi_m^(2mb*a*ka) * psi_m^(a(2kb+1))
                    * sum_b psi_m^(ma*b(2kb+1)) x[a + ma*b]

— an inner negacyclic transform of size ``mb`` (root ``psi_m^ma``, itself
a leaf or a further split), an element-wise twiddle ``psi_m^(a(2kb+1))``
and a cyclic ``ma``-point DFT. The pre-twist ``psi^j`` is the odd
exponent ``2k+1`` inside the leaf matrix and the twiddle, so no separate
twist pass exists; the inverse mirrors the same tree with ``psi^-1`` and
folds ``N^-1`` into its first matrix. Each level stores its output in
digit order ``[kb, ka]``, so the transform leaves the frequencies in
digit-reversed order and the caller restores natural order with one
transpose (:attr:`GemmNttPlan.radices`).

Exactness (the 2**53 argument)
------------------------------
Every table entry ``t`` is centred into ``(-q/2, q/2]`` and split into
balanced 16-bit limbs ``t = lo + 2**16 * hi`` with ``|lo| <= 2**15`` and
``|hi| <= 2**14``; the data is not split. A GEMM of depth ``K`` over data
``|x| <= B`` produces limb sums ``|S_lo| <= B * 2**15 * K`` and
``|S_hi| <= B * 2**14 * K``. The high sum is reduced first (float Barrett
``v - rint(v/q)*q``, exact for ``|v| < 2**53`` and landing in
``|r| <= q/2 + 2``), then ``S_lo + 2**16 * r`` is reduced once more. Data
entering a GEMM is either a reduced value (``|x| <= q/2 + 2``) or a raw
``< 2**32`` input centred to ``|x - 2**31| <= 2**31``, so ``B = 2**31``
bounds every GEMM, and the plan refuses (:class:`ExactnessError`) any
``(q, depth, limb)`` with::

    B * 2**(limb-1) * K + 2**limb * (q/2 + 2) + 2q >= 2**53

At 16-bit limbs this admits ``K <= 64`` for every ``q < 2**31``:
rings up to ``64 * 64 = 4096`` take two GEMM levels, larger rings recurse
one more (``n = 16384`` is ``64 x 16 x 16``).

Tables are built per ``(q, n)`` with vectorised uint64 arithmetic from
:func:`~repro.ntt.tables.get_tables` and cached under the unified cache
size; a stacked transform over a moduli tuple reuses each prime's plan.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .tables import TABLE_CACHE_SIZE, get_tables

#: Largest GEMM depth (leaf and cyclic size) a plan uses.
LEAF_MAX = 64
#: Table limb width in bits (balanced limbs, the top limb signed).
LIMB_BITS = 16
#: Exact-integer range of the float64 mantissa.
F64_EXACT = 1 << 53
#: Bound on ``|x|`` for every value entering a GEMM (module docstring).
GEMM_INPUT_BOUND = 1 << 31
#: Centring shift applied to raw ``< 2**32`` inputs.
CENTRE = float(1 << 31)


class ExactnessError(ValueError):
    """A ``(q, depth, limb)`` choice whose float64 accumulation could
    exceed ``2**53`` and silently round."""


def gemm_bound(q: int, depth: int, limb_bits: int = LIMB_BITS) -> int:
    """Largest ``|v|`` any float64 value of a depth-``depth`` limb GEMM
    step reaches before its final reduction (module docstring)."""
    limb = 1 << limb_bits
    return (GEMM_INPUT_BOUND * (limb // 2) * depth
            + limb * (q // 2 + 2) + 2 * q)


def check_exact(q: int, depth: int, limb_bits: int = LIMB_BITS) -> None:
    """Raise :class:`ExactnessError` unless a depth-``depth`` GEMM over
    ``limb_bits``-bit limbs of residues mod ``q`` stays exact.

    ``q`` must also lie in ``(4, 2**31)``: a balanced residue
    ``|r| <= q/2 + 2`` maps to ``r + q`` in ``[0, 2q)`` only for
    ``q > 4``, and the uint64 callers assume ``q < 2**31``.
    """
    if not 4 < q < (1 << 31):
        raise ExactnessError(f"modulus {q} outside the float64 plan range "
                             "(4, 2**31)")
    bound = gemm_bound(q, depth, limb_bits)
    if bound >= F64_EXACT:
        raise ExactnessError(
            f"GEMM depth {depth} with {limb_bits}-bit limbs mod {q} "
            f"accumulates up to 2**{bound.bit_length() - 1}.. — beyond the "
            "2**53 float64 mantissa"
        )


def _split(table: np.ndarray, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Balanced 16-bit limbs of a canonical table: float64 ``(lo, hi)``
    with ``t ≡ lo + 2**16 * hi (mod q)``."""
    t = table.astype(np.int64)
    t = np.where(t > q // 2, t - q, t)
    half = 1 << (LIMB_BITS - 1)
    hi = (t + half) >> LIMB_BITS
    lo = t - (hi << LIMB_BITS)
    return lo.astype(np.float64), hi.astype(np.float64)


def _limb_matrix(mat: np.ndarray, q: int) -> np.ndarray:
    """``(2M, K)`` float64 GEMM operand: the lo limbs of the ``(M, K)``
    matrix stacked over its hi limbs (one GEMM yields both sums)."""
    lo, hi = _split(mat, q)
    return np.ascontiguousarray(np.concatenate([lo, hi]))


def _entry_matrix(mat: np.ndarray, q: int) -> np.ndarray:
    """Limb matrix of an entry GEMM, with one extra column holding
    ``2**31 * rowsum(mat) mod q``: fed a constant ``1`` input, it restores
    what centring the raw inputs by ``-2**31`` removed."""
    qq = np.uint64(q)
    rows = mat.sum(axis=1, dtype=np.uint64) % qq  # K * q < 2**37
    shift = np.uint64((1 << 31) % q)
    offset = (rows * shift) % qq
    return _limb_matrix(np.concatenate([mat, offset[:, None]], axis=1), q)


class _Powers:
    """``psi^e mod q`` for any integer exponent array, from the cached
    ``psi^j, j < N`` table (``psi^N = -1``)."""

    def __init__(self, pows: np.ndarray, q: int):
        self.pows = pows
        self.n = len(pows)
        self.q = np.uint64(q)

    def __call__(self, exps: np.ndarray) -> np.ndarray:
        e = np.asarray(exps, dtype=np.int64) % (2 * self.n)
        base = self.pows[e % self.n]
        return np.where(e >= self.n, self.q - base, base)


class _Level:
    """One split ``m = ma * mb`` of the plan: the twiddles between the
    inner size-``mb`` transform and the cyclic ``ma``-point GEMM.

    ``cols = N / m`` is both the number of columns that follow the
    level's transform axis and the exponent ``s`` of its root
    ``psi_m = psi^s``. ``kb`` lists the frequency of each output row of
    the inner transform. ``n_inv`` marks the root level: its inverse GEMM
    is the inverse transform's entry GEMM, so ``N^-1`` and the centring
    column go in.
    """

    def __init__(self, ma: int, mb: int, cols: int, kb: np.ndarray,
                 q: int, fwd: _Powers, inv: _Powers,
                 n_inv: Optional[int] = None):
        self.ma, self.mb, self.cols = ma, mb, cols
        s = cols
        a = np.arange(ma, dtype=np.int64)
        tw = s * np.outer(2 * kb + 1, a)     # [kb, a]: psi^(s a(2kb+1))
        self.tw = np.stack(_split(fwd(tw), q))   # (2, mb, ma): lo, hi
        self.itw = np.stack(_split(inv(tw), q))
        cyc = 2 * mb * s * np.outer(a, a)        # [ka, a], symmetric
        self.mat = _limb_matrix(fwd(cyc), q)
        if n_inv is None:
            self.imat = _limb_matrix(inv(cyc), q)
        else:
            scaled = (inv(cyc) * np.uint64(n_inv)) % np.uint64(q)
            self.imat = _entry_matrix(scaled, q)


class GemmNttPlan:
    """Per-``(q, n)`` limb-split GEMM tables for the stacked NTT.

    ``levels`` lists the splits from the root down (see the module
    docstring); the leaf is a dense transform of size ``radices[0]``.
    ``radices`` are the digit sizes of the forward output's storage
    order, leaf first — their reversal is natural order. ``fwd_entry``
    and ``inv_entry`` are the first GEMM of each direction with the
    centring column appended (``N^-1`` folds into ``inv_entry``). Radices
    are at most :data:`LEAF_MAX`; any GEMM depth the 2**53 bound refuses
    raises :class:`ExactnessError`.
    """

    #: Scale of the hi limb (``t = lo + limb_radix * hi``).
    limb_radix = float(1 << LIMB_BITS)
    #: Shift that centres raw ``< 2**32`` inputs into ``|x| <= 2**31``.
    centre = CENTRE

    def __init__(self, q: int, n: int):
        tabs = get_tables(q, n)
        self.q = q
        self.n = n
        fwd = _Powers(tabs.psi_pows, q)
        inv = _Powers(tabs.psi_inv_pows, q)
        # Radices leaf first: split off cyclic factors <= LEAF_MAX from the
        # top until the remaining negacyclic core fits one leaf GEMM.
        # Every GEMM is at most one deeper than its radix (the entry's
        # centring column).
        tops = []
        m = n
        while m > LEAF_MAX:
            ma = min(LEAF_MAX, 1 << (m.bit_length() // 2))
            check_exact(q, ma + 1)
            tops.append(ma)
            m //= ma
        check_exact(q, m + 1)
        self.radices: Tuple[int, ...] = (m,) + tuple(reversed(tops))
        # Leaf: X[k] = sum_j psi^(s j(2k+1)) x[j], s = N / m.
        j = np.arange(m, dtype=np.int64)
        exps = (n // m) * np.outer(2 * j + 1, j)   # [k, j]
        self.fwd_entry = _entry_matrix(fwd(exps), q)
        leaf_inv = inv(exps.T)                      # [j, k]
        # Levels from the leaf up; the last one built is the root.
        freq = j
        levels = []
        for i, ma in enumerate(self.radices[1:], start=2):
            mb = m
            m *= ma
            root = i == len(self.radices)
            levels.append(_Level(ma, mb, n // m, freq, q, fwd, inv,
                                 tabs.n_inv if root else None))
            freq = (freq[:, None] + mb * np.arange(ma)[None, :]).ravel()
        self.levels = levels[::-1]
        if self.levels:
            self.leaf_imat = _limb_matrix(leaf_inv, q)
            self.inv_entry = self.levels[0].imat
        else:
            scaled = (leaf_inv * np.uint64(tabs.n_inv)) % np.uint64(q)
            self.inv_entry = _entry_matrix(scaled, q)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GemmNttPlan(q={self.q}, N={self.n}, radices={self.radices})"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_gemm_plan(q: int, n: int) -> GemmNttPlan:
    """Shared, cached per-prime plan lookup."""
    return GemmNttPlan(q, n)


def gemm_plan_cache_stats() -> dict:
    """Hit/miss counters of the per-prime GEMM plan cache."""
    info = get_gemm_plan.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }
