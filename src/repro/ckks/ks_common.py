"""Shared helpers of the key-switch family.

``keyswitch.py`` and ``hoisting.py`` both restrict full-chain key
polynomials to the current level, enumerate the digits present at that
level, and accumulate digit-times-key inner products. These helpers used
to be copy-pasted between the two modules; they live here once, together
with the batched building blocks the fused pipelines share: the level
views of a key's stacks and the wide-accumulator inner product that
mirrors the paper's tensor-core MAC kernels (§IV-C).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..analysis.annotations import bounded, returns_view
from ..backend import active_backend
from ..numtheory.barrett import BatchBarrettReducer
from .keys import KeySwitchKey
from .poly import RnsPoly
from .rns_context import get_rns_basis


def full_chain_length(ksk: KeySwitchKey) -> int:
    """Number of ciphertext-chain primes the key covers (max digit index+1)."""
    return max(i for digit in ksk.digits for i in digit) + 1


def level_row_indices(num_level: int, full_len: int,
                      num_total: int) -> List[int]:
    """Row indices restricting a full-chain ``q_0..q_full ++ p_0..p_K``
    polynomial to the current level's primes plus the special primes."""
    num_special = num_total - full_len
    return list(range(num_level)) + list(
        range(full_len, full_len + num_special)
    )


def select_level_rows(key_poly: RnsPoly, num_level: int,
                      full_len: int) -> RnsPoly:
    """Restrict a full-chain key polynomial to level + special rows."""
    return key_poly.take_primes(
        level_row_indices(num_level, full_len, key_poly.num_primes)
    )


def present_digits(digits: Sequence[Sequence[int]],
                   num_level: int) -> Tuple[List[List[int]], List[int]]:
    """``(groups, digit_indices)`` for the digits alive at this level.

    ``groups[g]`` lists the in-level prime indices of the ``g``-th present
    digit; ``digit_indices[g]`` is its original digit number (needed to
    pick the matching evk pair). Digits whose primes are all gone at low
    levels are skipped, exactly as level-aware GPU implementations do.
    """
    groups: List[List[int]] = []
    indices: List[int] = []
    for j, digit in enumerate(digits):
        present = [i for i in digit if i < num_level]
        if present:
            groups.append(present)
            indices.append(j)
    return groups, indices


@returns_view
@bounded(assume=True, out_q=1)
def key_level_views(ksk: KeySwitchKey, num_level: int
                    ) -> Tuple[Tuple[np.ndarray, np.ndarray],
                               Tuple[np.ndarray, np.ndarray]]:
    """``((b_q, a_q), (b_p, a_p))``: the key restricted to a level, as
    views of its stacks — Q rows ``[:num_level]``, P rows
    ``[full_len:]``, and the ``G'`` digits present at the level (digits
    are contiguous prime ranges, so the present ones are a prefix).

    Each view is ``(rows, G', N)``, the operand layout of the batched
    inner product; no key array is built or cached per level.
    """
    full_len = full_chain_length(ksk)
    _, digit_indices = present_digits(ksk.digits, num_level)
    g = len(digit_indices)
    return ((ksk.b[:num_level, :g], ksk.a[:num_level, :g]),
            (ksk.b[full_len:, :g], ksk.a[full_len:, :g]))


@bounded(assume=True, out_q=1, max_lanes=1 << 20,
         params={"ext": {"bits": 32}, "rows": {"q": 1}})
def wide_dot(ext: np.ndarray, rows: np.ndarray,
             reducer: BatchBarrettReducer) -> np.ndarray:
    """``sum_g ext[.., g, :] * rows[.., g, :] mod q`` without per-digit
    reduction — the host mirror of a tensor-core MAC tile.

    Operands are ``(P, ..., G, N)`` tensors (prime axis leading, digit
    axis second to last). ``rows`` must be canonical; ``ext`` may be
    *lazy* — any representatives ``< 2**32`` give the same result, so the
    stacked NTT can skip its final canonicalization.

    The split-accumulate kernel lives in the backend
    (:mod:`repro.backend`): each ``< 2**63`` product splits into 32-bit
    halves which accumulate exactly in uint64 over the digit axis (safe
    for G up to ~2**25), and the partial sums fold with
    ``(hi mod q) * (2**32 mod q) + lo``. The result is canonical and
    bit-identical to the reference ``acc = acc + reduce(ext_g * rows_g)``
    chain.
    """
    return active_backend().wide_dot(ext, rows, reducer.q_row())


@bounded(out_q=1, params={"ext_eval": {"bits": 32}})
def stacked_inner_product(ext_eval: np.ndarray, ksk: KeySwitchKey,
                          num_level: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """KeySwitch InnerProduct against both evk components:
    ``(acc0, acc1) = (ext . b, ext . a)`` reduced over the digit axis.

    ``ext_eval`` is the ``(num_level + K, G', N)`` extended digit stack;
    the products run as two :func:`wide_dot` calls per component, one
    over the Q rows and one over the P rows of :func:`key_level_views`.
    """
    (b_q, a_q), (b_p, a_p) = key_level_views(ksk, num_level)
    full_len = full_chain_length(ksk)
    q_red = get_rns_basis(ksk.moduli[:num_level]).batch
    p_red = get_rns_basis(ksk.moduli[full_len:]).batch
    ext_q, ext_p = ext_eval[:num_level], ext_eval[num_level:]
    acc0 = np.concatenate((wide_dot(ext_q, b_q, q_red),
                           wide_dot(ext_p, b_p, p_red)))
    acc1 = np.concatenate((wide_dot(ext_q, a_q, q_red),
                           wide_dot(ext_p, a_p, p_red)))
    return acc0, acc1
