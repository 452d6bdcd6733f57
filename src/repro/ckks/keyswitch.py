"""Hybrid key-switching: ModUp, InnerProduct, ModDown.

This is the paper's costliest homomorphic primitive — the kernel sequence
whose utilization Tables III and IX profile (NTT, ModUp, INTT, ModDown,
InProd). The functional pipeline here mirrors those exact stages:

1. INTT the input polynomial to the coefficient domain;
2. **ModUp**: fast-basis-extend every digit's residues to the full
   ``Q_l * P`` basis;
3. NTT the extended digits;
4. **InnerProduct**: accumulate ``digit * evk_j`` over digits (eval domain);
5. INTT the accumulators;
6. **ModDown**: divide by ``P`` with rounding, back to ``Q_l``;
7. NTT the results back to the eval domain.

PR 1 vectorized each stage *within* one polynomial (across primes); this
module also fuses the ``dnum`` digit loop — the ciphertext-level
parallelism WarpDrive's PE kernels exploit (§IV-C):

* ModUp emits the whole ``(L+K, dnum, N)`` digit tensor in one pass
  (:func:`~repro.numtheory.rns.extend_basis_stacked`), lazily when digits
  are single primes;
* one stacked NTT transforms all ``dnum * (L+K)`` rows
  (:mod:`repro.ntt.stacked`);
* the InnerProduct is a single einsum-style wide-accumulator reduction
  against the stacked evk rows (:func:`~.ks_common.stacked_inner_product`)
  — no per-digit ``acc = acc + ext * rows`` temporaries;
* both accumulators ride one batched INTT → ModDown → NTT tail.

:func:`keyswitch_looped` preserves the per-digit pipeline as the
bit-exactness oracle; the batched path returns identical polynomials
(property-tested across levels, dnum values and both ModDown branches).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..analysis.annotations import bounded
from ..trace.recorder import emit as _temit, span as _tspan
from ..ntt.stacked import (
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from ..numtheory.rns import (
    extend_basis,
    extend_basis_stacked,
    mod_down,
    mod_down_exact_t,
)
from .keys import KeySwitchKey
from .ks_common import (
    full_chain_length,
    present_digits,
    select_level_rows,
    stacked_inner_product,
    stacked_key_rows,
)
from .poly import COEFF, EVAL, RnsPoly
from .rns_context import get_rns_basis


@bounded()
def keyswitch(d: RnsPoly, ksk: KeySwitchKey, special_moduli: Tuple[int, ...],
              *, plain_modulus: int = None,
              pool=None) -> Tuple[RnsPoly, RnsPoly]:
    """Switch the polynomial ``d`` (eval domain, level basis) to the key
    encrypted in ``ksk``, returning the eval-domain pair ``(ks0, ks1)``
    with ``ks0 + ks1*s ≈ d*s'``.

    ``special_moduli`` are the K special primes; ``ksk`` rows cover the
    full chain ``q_0..q_L ++ p_0..p_(K-1)`` while ``d`` covers only the
    current level's primes — lower levels simply skip the absent digit
    primes, exactly as level-aware GPU implementations do.

    ``plain_modulus``: when set (BGV/BFV), ModDown preserves residues mod
    ``t`` (Gentry-Halevi-Smart rounding) instead of plain flooring.

    ``pool``: optional :class:`~repro.core.memory_pool.MemoryPool`; when
    given, every stage buffer of the batched pipeline is accounted against
    it (reset first), so tests can assert the working set stays within the
    paper's ``S_max`` budget. The transient MAC product tensor of the
    inner product is not charged — on the GPU it lives in tensor-core
    accumulators, never in pool memory.

    Bit-identical to :func:`keyswitch_looped` (the per-digit reference).
    """
    if d.domain != EVAL:
        raise ValueError("keyswitch input must be in eval domain")
    level_moduli = d.moduli
    num_level = len(level_moduli)
    target_moduli = level_moduli + tuple(special_moduli)
    target_basis = get_rns_basis(target_moduli)
    n = d.n

    groups, _ = present_digits(ksk.digits, num_level)
    if not groups:  # no digit survives at this level: result is zero
        zero = RnsPoly.zero(level_moduli, n, EVAL)
        return zero, zero.copy()

    stack_level = get_shoup_stack(level_moduli, n)
    stack_target = get_shoup_stack(target_moduli, n)
    if pool is not None:
        pool.reset()

    num_target = len(target_moduli)
    num_digits = len(groups)
    with _tspan("keyswitch", level=num_level - 1):
        d_coeff = stacked_negacyclic_intt(d.data, stack_level)  # 1: INTT
        _temit("intt", rows=num_level, reads=(d,), writes=(d_coeff,))

        # stage 2: ModUp — the whole (L+K, dnum', N) digit tensor in one
        # pass. Single-prime digits (alpha == 1, the paper's dnum = L+1
        # sets) stay lazy: the stacked NTT reduces them for free in its
        # pre-twist.
        ext = extend_basis_stacked(
            d_coeff, groups, get_rns_basis(level_moduli), target_basis,
            lazy=True,
        )
        _temit("modup", source_primes=sum(len(g) for g in groups),
               target_primes=num_target, polys=num_digits,
               reads=(d_coeff,), writes=(ext,))
        if pool is not None:
            pool.allocate(ext.nbytes, "modup_digits")

        # stage 3: NTT — all dnum'*(L+K) rows in one stacked pass. The
        # output stays *lazy* (< 2q) and in the kernel's digit-innermost
        # (L+K, N, G) layout: the wide-accumulator inner product tolerates
        # 32-bit representatives and reduces over the contiguous digit
        # axis, so both the canonicalization and the transpose back are
        # skipped.
        ext_eval = stacked_negacyclic_ntt(
            ext, stack_target, lazy=True, t_out=True
        )
        _temit("ntt", rows=num_digits * num_target, panes=num_digits,
               reads=(ext,), writes=(ext_eval,))
        if pool is not None:
            pool.allocate(ext_eval.nbytes, "ntt_digits")

        # stage 4: InnerProduct — one wide-accumulator reduction over the
        # digit axis against the per-level evk row stacks (cached on key).
        b_stack, a_stack = stacked_key_rows(ksk, num_level, t_layout=True)
        acc = np.stack(
            stacked_inner_product(
                ext_eval, b_stack, a_stack, target_basis.batch, lane_axis=-1
            ),
            axis=1,
        )
        _temit("inner_product", primes=num_target, digits=num_digits,
               accumulators=2, reads=(ext_eval,), writes=(acc,),
               key_material=(ksk,))
        if pool is not None:
            pool.allocate(acc.nbytes, "inner_product")

        # stages 5-7: both accumulators share one INTT, ModDown and NTT.
        # The PE plan keeps these per-accumulator (Table IX kernels 5-10),
        # so the events carry split=2.
        acc_coeff = stacked_negacyclic_intt(acc, stack_target)
        _temit("intt", rows=2 * num_target, panes=2, split=2,
               reads=(acc,), writes=(acc_coeff,))
        main = get_rns_basis(level_moduli)
        special = get_rns_basis(tuple(special_moduli))
        if plain_modulus is None:
            lowered = mod_down(acc_coeff, main, special)
        else:
            lowered = mod_down_exact_t(
                acc_coeff, main, special, plain_modulus
            )
        _temit("moddown", main_primes=num_level,
               special_primes=len(special_moduli), polys=2, split=2,
               reads=(acc_coeff,), writes=(lowered,))
        if pool is not None:
            pool.allocate(lowered.nbytes, "mod_down")

        out = stacked_negacyclic_ntt(lowered, stack_level)
        if pool is not None:
            pool.allocate(out.nbytes, "keyswitch_out")
        res0 = RnsPoly(np.ascontiguousarray(out[:, 0]), level_moduli, EVAL)
        res1 = RnsPoly(np.ascontiguousarray(out[:, 1]), level_moduli, EVAL)
        _temit("ntt", rows=2 * num_level, panes=2, split=2,
               reads=(lowered,), writes=(out, res0, res1))
        return res0, res1


def keyswitch_looped(d: RnsPoly, ksk: KeySwitchKey,
                     special_moduli: Tuple[int, ...],
                     *, plain_modulus: int = None
                     ) -> Tuple[RnsPoly, RnsPoly]:
    """The per-digit reference pipeline (pre-batching implementation).

    Runs ModUp, NTT and the inner-product accumulation one digit at a
    time. Kept verbatim as the bit-exactness oracle for :func:`keyswitch`
    and as the baseline of ``benchmarks/bench_keyswitch.py``.
    """
    if d.domain != EVAL:
        raise ValueError("keyswitch input must be in eval domain")
    level_moduli = d.moduli
    num_level = len(level_moduli)
    target_moduli = level_moduli + tuple(special_moduli)
    target_basis = get_rns_basis(target_moduli)
    n = d.n

    d_coeff = d.to_coeff()  # stage 1: INTT

    acc0 = RnsPoly.zero(target_moduli, n, EVAL)
    acc1 = RnsPoly.zero(target_moduli, n, EVAL)
    full_len = full_chain_length(ksk)
    for j, digit in enumerate(ksk.digits):
        present = [i for i in digit if i < num_level]
        if not present:
            continue
        sub = d_coeff.take_primes(present)
        extended = extend_basis(          # stage 2: ModUp
            sub.data, get_rns_basis(sub.moduli), target_basis
        )
        ext_poly = RnsPoly(extended, target_moduli, COEFF).to_eval()  # 3: NTT
        b_j, a_j = ksk.pairs[j]
        b_rows = select_level_rows(b_j, num_level, full_len)
        a_rows = select_level_rows(a_j, num_level, full_len)
        acc0 = acc0 + ext_poly * b_rows   # stage 4: InnerProduct
        acc1 = acc1 + ext_poly * a_rows

    main = get_rns_basis(level_moduli)
    special = get_rns_basis(tuple(special_moduli))
    out = []
    for acc in (acc0, acc1):
        coeff = acc.to_coeff()            # stage 5: INTT
        if plain_modulus is None:
            lowered = mod_down(coeff.data, main, special)  # 6: ModDown
        else:
            lowered = mod_down_exact_t(
                coeff.data, main, special, plain_modulus
            )
        out.append(RnsPoly(lowered, level_moduli, COEFF).to_eval())  # 7: NTT
    return out[0], out[1]
