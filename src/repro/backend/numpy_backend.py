"""The numpy compute backend: every hot-path array kernel.

Two choices keep the elementwise hot path fast at small matrices:

* **Hardware-division reduce.** numpy's vectorized integer ``%``
  (libdivide-style SIMD division since numpy 1.26) computes the
  canonical residue in a *single* pass, where the row-wise Barrett
  partial-product assembly takes ~17 ufunc passes with intermediate
  allocations. The 64/32 Barrett split survives in
  :class:`repro.numtheory.barrett.BarrettReducer` as the scalar/GPU
  reference discipline and in the property tests that pin ``%`` to it.
* **Branchless min-trick add/sub.** ``np.subtract(..., where=mask)``
  allocates a bool mask and runs a slow masked inner loop. For
  ``s = a + b < 2q < 2**33`` the wrap-around trick ``min(s, s - q)``
  is exact (``s - q`` wraps past ``2**63`` when ``s < q``) and runs as
  two unmasked passes.

The stacked NTT/INTT run as exact float64 GEMMs — WarpDrive's
tensor-core NTT (§IV-B) with 16-bit table limbs against the 53-bit
mantissa instead of 8-bit limbs against int32 accumulators. The plan
(:mod:`repro.ntt.limbgemm`) decomposes the transform four-step style
into dense leaf and cyclic GEMMs of depth at most 64 with element-wise
twiddles between them; per level, one BLAS call per prime yields both
limb sums, which two float Barrett steps ``v - rint(v / q) * q`` fold
into a balanced residue. The plan build proves every sum stays below
``2**53``; prime blocks of about :data:`_BLOCK_ELEMS` elements share one
cache-resident workspace. The uint64 entry and the canonicalising exit
are checked ``@bounded`` code; the float section between them is an
``assume=True`` axiom (docs/analysis.md, "The float64 lane contract").
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.annotations import bounded

_U32 = np.uint64(32)
_LO32 = np.uint64(0xFFFFFFFF)
_RADIX_MASK = np.uint64((1 << 32) - 1)


def _col(vec: np.ndarray, ndim: int) -> np.ndarray:
    """Shape a 1-D per-row constant to broadcast over ``ndim``-D arrays
    whose leading axis is the prime index."""
    return vec.reshape((-1,) + (1,) * (ndim - 1))


# ---- the float64 limb-split GEMM NTT (repro.ntt.limbgemm) ---------------

#: Elements per prime block of a stacked transform: one block's float64
#: workspace stays cache-resident and is reused by every block, instead
#: of streaming the whole batch through fresh temporaries once per pass.
_BLOCK_ELEMS = 1 << 15
#: ufunc buffer size (elements) inside the float section. numpy buffers
#: a broadcast per-prime column (``q``, ``1/q``) whenever the rows of the
#: other operand are shorter than the buffer, which makes those passes
#: ~3x slower at the 512-4096 element rows of a stacked transform; below
#: 1024 the uint64 <-> float64 casting passes slow down instead.
_UFUNC_BUFSIZE = 1024


def _view(buf: np.ndarray, shape) -> np.ndarray:
    """The leading ``prod(shape)`` elements of a flat buffer as ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


class _GemmRun:
    """Float64 state of one prime block: per-prime ``q`` and ``1/q``
    columns, the plans, and views of the call's workspace.

    Every value here is an exact integer in float64 lanes; the plan build
    refuses any ``(q, depth, limb)`` whose sums could reach ``2**53``, so
    these helpers carry no interval annotations of their own —
    :func:`_gemm_ntt` states the resulting uint64 bound as an axiom.
    """

    def __init__(self, plans, q: np.ndarray, work: np.ndarray):
        self.plans = plans
        self.radix = plans[0].limb_radix
        self.qf = q.astype(np.float64).reshape(-1, 1, 1, 1)
        self.qi = 1.0 / self.qf
        # Workspace: GEMM limb sums, reduction scratch, and two data
        # buffers that alternate as each GEMM's input and output.
        size = work.size // 7
        self.sums = work[:2 * size]
        self.tmp = work[2 * size:3 * size]
        self.data = [work[3 * size:5 * size], work[5 * size:]]

    def fresh(self, shape) -> np.ndarray:
        """The data buffer not holding the current input, as ``shape``."""
        self.data.reverse()
        return _view(self.data[0], shape)

    def reduce(self, v: np.ndarray, out: np.ndarray) -> None:
        """Float Barrett ``v - rint(v / q) * q`` into ``out``: exact for
        integer ``|v| + q < 2**53``, result ``|r| <= q/2 + 2``."""
        shape = (-1,) + (1,) * (v.ndim - 1)
        t = _view(self.tmp, v.shape)
        np.multiply(v, self.qi.reshape(shape), out=t)
        np.rint(t, out=t)
        np.multiply(t, self.qf.reshape(shape), out=t)
        np.subtract(v, t, out=out)

    def gemm(self, a: np.ndarray, mats) -> np.ndarray:
        """Contract axis 2 of ``a`` (shape ``(P, B, K, C)``) with each
        prime's ``(2M, K)`` limb matrix; reduced ``(P, B, M, C)`` out.

        One BLAS call per prime yields both limb sums (``C == 1`` runs
        as a right-hand product); the hi sum is reduced, scaled by the
        limb radix and folded into the lo sum before the final reduction.
        """
        num_p, b, _, c = a.shape
        m = mats[0].shape[0] // 2
        s = _view(self.sums, (num_p, b, 2 * m, c))
        if c == 1:
            for p, mat in enumerate(mats):
                np.matmul(a[p, :, :, 0], mat.T, out=s[p, :, :, 0])
        else:
            for p, mat in enumerate(mats):
                np.matmul(mat, a[p], out=s[p])
        lo = s[:, :, :m]
        hi = s[:, :, m:]
        self.reduce(hi, out=hi)
        np.multiply(hi, self.radix, out=hi)
        np.add(lo, hi, out=lo)
        y = self.fresh((num_p, b, m, c))
        self.reduce(lo, out=y)
        return y

    def twiddle(self, z: np.ndarray, tables) -> None:
        """In place ``z *= T mod q`` for ``z`` of shape
        ``(P, B, mb, ma, C)`` and per-prime ``(2, mb, ma)`` limb tables."""
        t = tables[0][None] if len(tables) == 1 else np.stack(tables)
        lo = t[:, None, 0, :, :, None]
        hi = t[:, None, 1, :, :, None]
        h = _view(self.sums, z.shape)
        np.multiply(z, hi, out=h)
        self.reduce(h, out=h)
        np.multiply(h, self.radix, out=h)
        np.multiply(z, lo, out=z)
        np.add(z, h, out=z)
        self.reduce(z, out=z)

    def entry(self, src: np.ndarray, axis: int) -> np.ndarray:
        """Centre the uint64 ``src`` into a data buffer with one extra
        slot along ``axis``: the constant ``1`` the entry GEMM's centring
        column reads."""
        shape = list(src.shape)
        k = shape[axis]
        shape[axis] = k + 1
        a = self.fresh(tuple(shape))
        index = [slice(None)] * len(shape)
        index[axis] = slice(0, k)
        np.subtract(src, self.plans[0].centre, out=a[tuple(index)],
                    casting="unsafe")
        index[axis] = k
        a[tuple(index)] = 1.0
        return a

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``(P, G, N)`` uint64 in natural order -> float64 ``(P, G, N)``
        residues ``|r| <= q/2 + 2`` in digit order: the leaf GEMM, then
        each level's twiddle and cyclic GEMM from the leaf up."""
        num_p, g, n = x.shape
        plans = self.plans
        m = plans[0].radices[0]
        a = self.entry(x.reshape(num_p, g, m, n // m), axis=2)
        y = self.gemm(a, [pl.fwd_entry for pl in plans])
        for depth in reversed(range(len(plans[0].levels))):
            levels = [pl.levels[depth] for pl in plans]
            ma, mb, c = levels[0].ma, levels[0].mb, levels[0].cols
            self.twiddle(y.reshape(num_p, g, mb, ma, c),
                         [lv.tw for lv in levels])
            y = self.gemm(y.reshape(num_p, g * mb, ma, c),
                          [lv.mat for lv in levels])
        return y.reshape(num_p, g, n)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """``(P, G, N)`` uint64 in natural order -> float64 natural-order
        ``(P, G, N)`` residues ``|r| <= q/2 + 2``: each level's cyclic
        GEMM and twiddle from the root down (the root's GEMM is the entry
        GEMM), then the leaf GEMM."""
        num_p, g, n = x.shape
        plans = self.plans
        radices = plans[0].radices
        rev = tuple(range(len(radices) + 1, 1, -1))
        src = x.reshape((num_p, g) + radices[::-1]).transpose((0, 1) + rev)
        k = radices[-1]
        a = self.entry(src, axis=src.ndim - 1)
        y = self.gemm(a.reshape(num_p, g * (n // k), k + 1, 1),
                      [pl.inv_entry for pl in plans])
        for depth, level in enumerate(plans[0].levels):
            ma, mb, c = level.ma, level.mb, level.cols
            if depth:
                y = self.gemm(y.reshape(num_p, g * mb, ma, c),
                              [pl.levels[depth].imat for pl in plans])
            self.twiddle(y.reshape(num_p, g, mb, ma, c),
                         [pl.levels[depth].itw for pl in plans])
        if plans[0].levels:
            m = radices[0]
            y = self.gemm(y.reshape(num_p, g, m, n // m),
                          [pl.leaf_imat for pl in plans])
        return y.reshape(num_p, g, n)


@bounded(assume=True, in_bits=32, out_q=2, params={"x": {"bits": 32}})
def _gemm_ntt(x: np.ndarray, stack, *, inverse: bool = False) -> np.ndarray:
    """Float64 section of the stacked transform: ``(P, G, N)`` uint64 in
    (``< 2**32``), uint64 representatives ``< 2q`` out.

    Prime blocks of about :data:`_BLOCK_ELEMS` elements run one after the
    other through one workspace. Digit order is entered or left with one
    strided copy, and the exit adds ``q`` to the balanced result
    ``|r| <= q/2 + 2`` while casting back to integers, landing in
    ``[0, 2q)``.
    """
    num_p, g, n = x.shape
    plans = stack.gemm_plans
    radices = plans[0].radices
    rev = tuple(range(len(radices) + 1, 1, -1))
    out = np.empty((num_p, g, n), dtype=np.uint64)
    step = max(1, _BLOCK_ELEMS // max(1, g * n))
    work = np.empty(7 * min(step, num_p) * g * n)
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for p0 in range(0, num_p, step):
            p1 = min(num_p, p0 + step)
            run = _GemmRun(plans[p0:p1], stack.q[p0:p1], work)
            block = out[p0:p1]
            if inverse:
                src = run.inverse(x[p0:p1])
            else:
                y = run.forward(x[p0:p1]).reshape((p1 - p0, g) + radices)
                src = y.transpose((0, 1) + rev)
                block = block.reshape((p1 - p0, g) + radices[::-1])
            np.add(src, run.qf.reshape((-1,) + (1,) * (src.ndim - 1)),
                   out=block.view(np.int64), casting="unsafe")
    finally:
        np.setbufsize(bufsize)
    return out


class NumpyBackend:
    """Every hot-path array kernel, in numpy.

    All array arguments are uint64 with the prime index on axis 0;
    per-row constants (``q``, ``qinv``) arrive as 1-D ``(num_primes,)``
    uint64 arrays. Methods return canonical residues (``< q`` per row)
    and never mutate their inputs.
    """

    name = "numpy"

    # ---- elementwise modular arithmetic ---------------------------------

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_add(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        s = a.astype(np.uint64, copy=False) + b.astype(np.uint64, copy=False)
        d = s - _col(q, s.ndim)
        # min-trick: d wrapped past 2**63 exactly when s < q.
        np.minimum(s, d, out=d)
        return d

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_sub(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        d = a.astype(np.uint64, copy=False) - b.astype(np.uint64, copy=False)
        # a >= b: d < q is already canonical and d + q > d picks d;
        # a < b: d wrapped huge, d + q wraps again to a + q - b < q.
        t = d + _col(q, d.ndim)
        np.minimum(d, t, out=t)
        return t

    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def mod_neg(self, a: np.ndarray, q: np.ndarray) -> np.ndarray:
        a = a.astype(np.uint64, copy=False)
        return np.where(a == 0, a, _col(q, a.ndim) - a)

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def mod_reduce(self, t: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Row-wise ``t mod q_i`` for any uint64 ``t``."""
        # One SIMD integer-division pass; exact for any uint64 input, so
        # it covers the full Barrett range (q**2 plus accumulator slack).
        return t.astype(np.uint64, copy=False) % _col(q, t.ndim)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_mul(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        prod = a.astype(np.uint64, copy=False) * \
            b.astype(np.uint64, copy=False)
        np.remainder(prod, _col(q, prod.ndim), out=prod)
        return prod

    # ---- Montgomery (REDC) chains ---------------------------------------

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def montgomery_reduce(self, t: np.ndarray, q: np.ndarray,
                          qinv: np.ndarray) -> np.ndarray:
        """Row-wise REDC ``t * R^{-1} mod q_i`` for ``t < q_i * 2**32``;
        ``qinv`` holds ``-q_i^{-1} mod 2**32``."""
        t = t.astype(np.uint64, copy=False)
        q_c = _col(q, t.ndim)
        qinv_c = _col(qinv, t.ndim)
        m = t & _RADIX_MASK
        np.multiply(m, qinv_c, out=m)
        np.bitwise_and(m, _RADIX_MASK, out=m)
        np.multiply(m, q_c, out=m)
        np.add(m, t, out=m)
        np.right_shift(m, _U32, out=m)
        # min-trick conditional subtraction (m < 2q after the shift).
        np.minimum(m, m - q_c, out=m)
        return m

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def montgomery_mul(self, a: np.ndarray, b: np.ndarray, q: np.ndarray,
                       qinv: np.ndarray) -> np.ndarray:
        prod = a.astype(np.uint64, copy=False) * \
            b.astype(np.uint64, copy=False)
        return self.montgomery_reduce(prod, q, qinv)

    # ---- fused transform kernels ----------------------------------------

    @bounded(in_bits=32, out_q=1, out_q_lazy=2,
             params={"x": {"bits": 32}, "stack.q": {"modulus": True}})
    def ntt_forward(self, x: np.ndarray, stack, *,
                    lazy: bool = False) -> np.ndarray:
        """Forward stacked negacyclic NTT of a ``(P, G, N)`` batch of
        inputs ``< 2**32``: canonical output, or representatives ``< 2q``
        with ``lazy=True``."""
        y = _gemm_ntt(x.astype(np.uint64, copy=False), stack)
        if not lazy:
            # canonicalize: < 2q -> < q
            t = y - stack.q.reshape(-1, 1, 1)
            np.minimum(y, t, out=y)
        return y

    @bounded(in_q=2, out_q=1,
             params={"x": {"q": 2}, "stack.q": {"modulus": True}})
    def ntt_inverse(self, x: np.ndarray, stack) -> np.ndarray:
        """Inverse stacked negacyclic NTT of a ``(P, G, N)`` batch of
        inputs ``< 2q``; canonical output."""
        y = _gemm_ntt(x.astype(np.uint64, copy=False), stack, inverse=True)
        t = y - stack.q.reshape(-1, 1, 1)
        np.minimum(y, t, out=y)
        return y

    @bounded(assume=True, out_q=1, max_lanes=1 << 20,
             params={"ext": {"bits": 32}, "rows": {"q": 1}})
    def wide_dot(self, ext: np.ndarray, rows: np.ndarray,
                 q: np.ndarray) -> np.ndarray:
        """``sum_g ext[.., g, :] * rows[.., g, :] mod q_i`` over the
        digit axis (second to last); ``rows`` canonical, ``ext`` any
        representatives below ``2**32``; canonical output."""
        # Each < 2**63 product splits into 32-bit halves which accumulate
        # exactly in uint64 over the digit axis (safe for G up to ~2**25);
        # the partial sums fold with (hi mod q) * (2**32 mod q) + lo.
        prod = ext * rows
        hi = (prod >> _U32).sum(axis=-2)
        lo = (prod & _LO32).sum(axis=-2)
        q_c = _col(q, hi.ndim)
        np.remainder(hi, q_c, out=hi)
        radix = (np.uint64(1) << _U32) % q_c
        hi *= radix
        hi += lo
        np.remainder(hi, q_c, out=hi)
        return hi
