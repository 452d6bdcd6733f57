"""Hoisted rotations (Halevi-Shoup hoisting) with a deferred ModDown.

BSGS linear transforms — CoeffToSlot, convolutions, matrix-vector
products — rotate the *same* ciphertext by many steps. The expensive part
of each rotation is the key-switch ModUp (basis extension of every
digit); hoisting performs it **once** and shares the extended digits
across all rotations, because the Galois automorphism acts
coefficient-wise and therefore commutes with the (coefficient-wise) basis
extension.

The NTT of the extended digits is shared as well: the automorphism is
applied in the *evaluation* domain, where it is a pure slot permutation
(output slot ``k`` of the negacyclic NTT holds ``x(psi^(2k+1))``, so
``X -> X^t`` maps slot ``k`` to ``((t*(2k+1)) mod 2N) / 2`` — no sign
flips), and that permutation fuses into the inner product's loads: the
kernel streams the digit stack per step anyway, so gathering through the
table is an addressing mode, not an extra pass.

:func:`hoisted_rotations` stops there. It returns a
:class:`HoistedRotations`: every step's eval-form key-switch
accumulators over ``Q ∪ P``, with ModDown *deferred*. Two consumers
finish the job:

* :meth:`HoistedRotations.ciphertexts` runs today's per-step tail — one
  batched INTT → ModDown by ``P`` → NTT over every accumulator — and
  returns ``{step: rotated ciphertext}``;
* :meth:`HoistedRotations.weighted_sum` is **double hoisting** (Bossuat
  et al., Eurocrypt 2021): ``sum_s pt_s * rot_s(ct)`` against plaintexts
  encoded over ``Q ∪ P`` accumulates in the extended basis, and one
  ModDown whose special basis is ``(q_l ...) ++ P`` divides by ``P·q_l``
  at once — the ModDown and the rescale in a single tail, the merge the
  100x design applies to HMULT (``baselines.HundredXOps``).

:func:`hoisted_rotations_looped` is the per-step, per-digit oracle of
both: :func:`hoisted_terms_looped` builds each step's rotation over
``Q ∪ P`` (scaled by ``P``) one digit at a time, and
:func:`mod_down_poly` lowers one polynomial at a time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

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
)
from .ciphertext import Ciphertext
from .keys import KeySet
from .ks_common import (
    full_chain_length,
    present_digits,
    select_level_rows,
    stacked_inner_product,
    stacked_key_rows,
    wide_dot,
)
from .ops import Evaluator
from .poly import COEFF, EVAL, RnsPoly
from .rns_context import get_rns_basis


def _eval_automorphism_tables(steps: Sequence[int], n: int) -> np.ndarray:
    """Stacked eval-domain gather tables for ``X -> X^(5^s)``.

    The negacyclic NTT's output slot ``k`` holds the evaluation at
    ``psi^(2k+1)``, so the automorphism with odd exponent ``t`` permutes
    slots by ``k -> ((t * (2k+1)) mod 2N) >> 1`` — a pure gather with no
    sign flips, bit-exact against ``INTT -> coeff automorphism -> NTT``.
    Step ``0`` is the identity table. Returns ``src`` of shape
    ``(num_steps, n)`` with ``out[s, k] = x[src[s, k]]``.
    """
    two_n = 2 * n
    k = np.arange(n)
    src = np.empty((len(steps), n), dtype=np.intp)
    for s_idx, step in enumerate(steps):
        exponent = pow(5, step, two_n)
        src[s_idx] = (exponent * (2 * k + 1)) % two_n >> 1
    return src


def _split_steps(steps: Sequence[int], keys: KeySet
                 ) -> Tuple[List[int], bool]:
    """``(nonzero steps, step 0 requested)``; every nonzero step needs a
    rotation key."""
    steps = list(steps)
    nonzero = [s for s in steps if s]
    missing = [s for s in nonzero if s not in keys.rotation]
    if missing:
        raise KeyError(f"missing rotation keys for steps {missing}")
    return nonzero, 0 in steps


class HoistedRotations:
    """Rotations of one ciphertext with their ModDown deferred.

    ``acc`` is the ``(L+K, 2S, N)`` eval-form tensor of every step's
    rotation over ``Q ∪ P``, scaled by ``P``: lane ``s`` holds step
    ``s``'s ``c0`` accumulator plus ``P·rot(c0)`` (the ``c0`` leg, zero
    on the special rows), lane ``S + s`` its ``c1`` accumulator — the
    batched form of :func:`hoisted_terms_looped`. A ModDown by ``P``
    finishes a lane; ``rot0`` is the gathered ``ct.c0`` behind the
    ``c0`` leg. Step ``0`` is a passthrough — the input ciphertext
    itself — so BSGS callers can hand the whole baby-step list over
    without special-casing the identity.
    """

    __slots__ = ("ev", "ct", "steps", "passthrough", "acc", "rot0",
                 "_lane")

    def __init__(self, ev: Evaluator, ct: Ciphertext, steps: List[int],
                 passthrough: bool, acc: np.ndarray, rot0: np.ndarray):
        self.ev = ev
        self.ct = ct
        self.steps = steps
        self.passthrough = passthrough
        self.acc = acc
        self.rot0 = rot0
        self._lane = {step: i for i, step in enumerate(steps)}

    def _emit_c0_gather(self, steps: Sequence[int]) -> None:
        """Trace the ``c0`` leg's eval-domain gather for ``steps``.

        The traces model the device schedule, where the gather and the
        lift by ``P`` fuse into the consumer's loads: the per-step tail
        adds the rotated ``c0`` after its NTT, the weighted sum reads it
        as a third operand lane. (The host lifts it once, up front.)
        """
        ct = self.ct
        nonzero = [s for s in steps if s]
        if nonzero:
            _temit("automorphism", primes=ct.level + 1, polys=len(nonzero),
                   reads=(ct,), writes=(self.rot0,), args=tuple(nonzero),
                   scale=ct.scale)

    def ciphertexts(self) -> Dict[int, Ciphertext]:
        """Finish every rotation with its own ModDown by ``P``.

        All accumulators share one INTT → ModDown → NTT tail (the lifted
        ``c0`` leg comes out of the ModDown exactly: ``floor((a + P·r)/P)
        = floor(a/P) + r``). Returns ``{step: rotated}``, bit-identical
        to :func:`hoisted_rotations_looped`.
        """
        ct, steps = self.ct, self.steps
        out: Dict[int, Ciphertext] = {}
        if steps:
            level_moduli = ct.moduli
            num_level = len(level_moduli)
            special = tuple(self.ev.p_moduli)
            target_moduli = level_moduli + special
            num_steps = len(steps)
            with _tspan("hoisted_rotations", level=ct.level):
                acc_coeff = stacked_negacyclic_intt(
                    self.acc, get_shoup_stack(target_moduli, ct.n)
                )
                _temit("intt", rows=2 * num_steps * len(target_moduli),
                       panes=2 * num_steps, reads=(self.acc,),
                       writes=(acc_coeff,))
                lowered = mod_down(
                    acc_coeff, get_rns_basis(level_moduli),
                    get_rns_basis(special),
                )  # (L, 2S, N)
                _temit("moddown", main_primes=num_level,
                       special_primes=len(special), polys=2 * num_steps,
                       reads=(acc_coeff,), writes=(lowered,))
                parts = stacked_negacyclic_ntt(
                    lowered, get_shoup_stack(level_moduli, ct.n)
                )
                _temit("ntt", rows=2 * num_steps * num_level,
                       panes=2 * num_steps, reads=(lowered,),
                       writes=(parts,))
                self._emit_c0_gather(steps)
                for s_idx, step in enumerate(steps):
                    out[step] = Ciphertext(
                        RnsPoly(np.ascontiguousarray(parts[:, s_idx]),
                                level_moduli, EVAL),
                        RnsPoly(np.ascontiguousarray(
                            parts[:, num_steps + s_idx]),
                            level_moduli, EVAL),
                        ct.level, ct.scale,
                    )
                _temit("modadd", rows=num_steps * num_level,
                       reads=(parts, self.rot0),
                       writes=tuple(out.values()), scale=ct.scale)
        if self.passthrough:
            out[0] = ct
        return out

    def weighted_sum(self, steps: Sequence[int], stack: np.ndarray,
                     pt_scale: float) -> Ciphertext:
        """``sum_s pt_s * rot_s(ct)``, rescaled, with one fused tail.

        ``stack`` is the ``(L+K, len(steps), N)`` eval-form plaintext
        stack over the level's primes plus the special primes
        (:func:`encode_extended_stack`), lane ``i`` weighting
        ``steps[i]``. The ``P``-scaled rotations reduce against it in
        ``Q ∪ P`` (the passthrough step 0 contributes ``P·ct``, which has
        no special-prime rows). One ModDown whose special basis is
        ``(q_(l-k+1) .. q_l) ++ P`` then divides by ``P`` and the
        ``k = rescale_primes`` top primes at once, so the result is
        already rescaled: level ``l - k``, scale
        ``ct.scale * pt_scale / (q_(l-k+1) ... q_l)``.
        """
        ev, ct = self.ev, self.ct
        drop = ev.params.rescale_primes
        level_moduli = ct.moduli
        num_level = len(level_moduli)
        if num_level <= drop:
            raise ValueError(
                f"cannot rescale a level-{ct.level} ciphertext by {drop} "
                "prime(s)"
            )
        special = tuple(ev.p_moduli)
        target_moduli = level_moduli + special
        n = ct.n
        steps = list(steps)
        if stack.shape != (len(target_moduli), len(steps), n):
            raise ValueError(
                f"plaintext stack {stack.shape} does not cover "
                f"{len(steps)} step(s) over the level and special primes"
            )
        with _tspan("weighted_sum", level=ct.level):
            target = get_rns_basis(target_moduli).batch
            level = get_rns_basis(level_moduli).batch
            out_scale = ct.scale * pt_scale
            keyed = [i for i, s in enumerate(steps) if s]
            w = np.zeros((len(target_moduli), 2, n), dtype=np.uint64)
            if keyed:
                lanes = np.array([self._lane[steps[i]] for i in keyed],
                                 dtype=np.intp)
                pts = stack[:, keyed]
                for part, offset in enumerate((0, len(self.steps))):
                    w[:, part] = wide_dot(self.acc[:, offset + lanes], pts,
                                          target)
            if 0 in steps:
                # The passthrough lane is P·ct: Q rows only.
                pt0 = stack[:num_level, steps.index(0)]
                p_mod = level.reduce_scalar(get_rns_basis(special).product)
                for part, poly in enumerate((ct.c0, ct.c1)):
                    w[:num_level, part] = level.add_mat(
                        w[:num_level, part],
                        level.mul_mat(level.mul_mat(poly.data, pt0), p_mod),
                    )
            self._emit_c0_gather(steps)
            # One pass over the plaintext lanes with three per-step operand
            # lanes (the two accumulators and the rotated c0).
            _temit("inner_product", primes=len(target_moduli),
                   digits=len(steps), accumulators=3,
                   reads=(self.acc, self.rot0, ct), writes=(w,),
                   scale=out_scale)

            # The fused tail: one INTT, one ModDown by P·q_l, one NTT.
            kept = level_moduli[:num_level - drop]
            out_scale /= math.prod(level_moduli[num_level - drop:])
            w_coeff = stacked_negacyclic_intt(
                w, get_shoup_stack(target_moduli, n)
            )
            _temit("intt", rows=2 * len(target_moduli), panes=2, reads=(w,),
                   writes=(w_coeff,))
            lowered = mod_down(
                w_coeff, get_rns_basis(kept),
                get_rns_basis(level_moduli[num_level - drop:] + special),
            )  # (L - k, 2, N)
            _temit("moddown", main_primes=len(kept),
                   special_primes=drop + len(special), polys=2, drop=drop,
                   reads=(w_coeff,), writes=(lowered,), scale=out_scale)
            parts = stacked_negacyclic_ntt(lowered, get_shoup_stack(kept, n))
            out = Ciphertext(
                RnsPoly(np.ascontiguousarray(parts[:, 0]), kept, EVAL),
                RnsPoly(np.ascontiguousarray(parts[:, 1]), kept, EVAL),
                ct.level - drop, out_scale,
            )
            _temit("ntt", rows=2 * len(kept), panes=2, reads=(lowered,),
                   writes=(parts, out), scale=out_scale)
            return out


@bounded()
def hoisted_rotations(ev: Evaluator, ct: Ciphertext, steps: Sequence[int],
                      keys: KeySet) -> HoistedRotations:
    """Rotate ``ct`` by every step in ``steps``, sharing one ModUp and
    one digit NTT, and stop before ModDown.

    Requires a rotation key for each nonzero step. The inner products run
    per step against each key's cached level row stacks, so no
    ``(L+K, S, G, N)`` gathered tensor or concatenated key stack is ever
    built. Finish with :meth:`HoistedRotations.ciphertexts` (per-step
    ModDown) or :meth:`HoistedRotations.weighted_sum` (one fused
    ModDown·rescale).
    """
    steps, passthrough = _split_steps(steps, keys)
    level_moduli = ct.moduli
    num_level = len(level_moduli)
    target_moduli = level_moduli + tuple(ev.p_moduli)
    num_target = len(target_moduli)
    n = ct.n
    if not steps:
        return HoistedRotations(
            ev, ct, steps, passthrough,
            np.zeros((num_target, 0, n), dtype=np.uint64),
            np.zeros((num_level, 0, n), dtype=np.uint64),
        )
    target_basis = get_rns_basis(target_moduli)

    with _tspan("hoisted_rotations", level=ct.level):
        # --- the hoisted part: decompose, extend AND transform c1 once -----
        groups, _ = present_digits(keys.rotation[steps[0]].digits,
                                   num_level)
        c1_coeff = stacked_negacyclic_intt(
            ct.c1.data, get_shoup_stack(level_moduli, n)
        )
        _temit("intt", rows=num_level, reads=(ct,), writes=(c1_coeff,))
        ext = extend_basis_stacked(
            c1_coeff, groups, get_rns_basis(level_moduli), target_basis,
        )  # (L+K, G, N)
        num_digits = ext.shape[1]
        _temit("modup", source_primes=sum(len(g) for g in groups),
               target_primes=num_target, polys=num_digits,
               reads=(c1_coeff,), writes=(ext,))

        # One stacked NTT over the digits, shared by every step. Lazy
        # output: both the gather and the wide-accumulator inner product
        # accept < 2q representatives.
        ext_eval = stacked_negacyclic_ntt(
            ext, get_shoup_stack(target_moduli, n), lazy=True
        )
        _temit("ntt", rows=num_target * num_digits, panes=num_digits,
               reads=(ext,), writes=(ext_eval,))

        # --- per step: automorphism gather + inner product ------------------
        # The gather is *fused into the inner product's loads*: the kernel
        # already streams the full digit stack per step, and reading it
        # through the permutation table costs index arithmetic, not a
        # separate gmem round trip — so no kernel is emitted for it.
        src = _eval_automorphism_tables(steps, n)
        num_steps = len(steps)
        acc = np.empty((num_target, 2 * num_steps, n), dtype=np.uint64)
        for s_idx, step in enumerate(steps):
            b_rows, a_rows = stacked_key_rows(keys.rotation[step], num_level)
            acc[:, s_idx], acc[:, num_steps + s_idx] = stacked_inner_product(
                ext_eval[:, :, src[s_idx]], b_rows, a_rows,
                target_basis.batch,
            )
        _temit("inner_product", primes=num_target, digits=num_digits,
               accumulators=2, steps=num_steps, reads=(ext_eval,),
               writes=(acc,),
               key_material=tuple(keys.rotation[s] for s in steps))

        # --- c0 leg: eval-domain gathers, lifted by P into acc0 ------------
        # Both operands are canonical where the interval analysis cannot
        # follow: ``rot0`` gathers ciphertext residues, and the ``acc``
        # lanes were stored from stacked_inner_product through slices.
        rot0 = ct.c0.data[:, src]  # (L, S, N)
        level = get_rns_basis(level_moduli).batch
        p_mod = level.reduce_scalar(
            get_rns_basis(tuple(ev.p_moduli)).product).reshape(-1, 1, 1)
        lifted = level.mul_mat(rot0, p_mod)  # fhelint: allow-B-RED
        acc[:num_level, :num_steps] = level.add_mat(  # fhelint: allow-B-RED
            acc[:num_level, :num_steps], lifted)
    return HoistedRotations(ev, ct, steps, passthrough, acc, rot0)


def encode_extended_stack(ctx, values: np.ndarray, level: int,
                          scale: float) -> np.ndarray:
    """Encode ``(D, slots)`` rows into the read-only eval-form
    ``(L+K, D, N)`` plaintext stack over the level's primes plus the
    special primes — the operand of :meth:`HoistedRotations.weighted_sum`.
    One batched embedding and one stacked NTT for all rows."""
    moduli = tuple(ctx.evaluator.moduli_at(level)) + tuple(
        ctx.evaluator.p_moduli)
    coeffs = ctx.encoder.encode_many(values, scale)  # (D, n)
    q_col = np.array(moduli, dtype=np.int64)[:, None, None]
    residues = np.mod(coeffs[None, :, :], q_col).astype(np.uint64)
    stack = stacked_negacyclic_ntt(
        residues, get_shoup_stack(moduli, ctx.params.n)
    )
    stack.setflags(write=False)
    return stack


# -- the per-step, per-digit oracle ------------------------------------------------


def mod_down_poly(poly: RnsPoly, keep: int) -> RnsPoly:
    """Divide an eval-form polynomial by the product of its rows past the
    first ``keep`` (flooring), one polynomial at a time: ModDown when the
    dropped rows are ``P``, ModDown·rescale when they are ``q_l ++ P``."""
    main = poly.moduli[:keep]
    lowered = mod_down(poly.to_coeff().data, get_rns_basis(main),
                       get_rns_basis(poly.moduli[keep:]))
    return RnsPoly(lowered, main, COEFF).to_eval()


def hoisted_terms_looped(ev: Evaluator, ct: Ciphertext,
                         steps: Sequence[int], keys: KeySet
                         ) -> Dict[int, Tuple[RnsPoly, RnsPoly]]:
    """``{step: (t0, t1)}``: each step's rotation before ModDown, over
    ``Q ∪ P`` in the eval domain — ``t0 = acc0 + P·rot(c0)``,
    ``t1 = acc1`` (step 0: ``P·c0``, ``P·c1``) — so that
    ``mod_down_poly(t, L)`` is the rotated ciphertext.

    The per-step, per-digit reference: one ModUp per digit, the
    automorphism applied in the coefficient domain, one multiply-add per
    digit. Loop-invariant work is hoisted out of the inner loops (the
    full chain length once, each step's evk row selections once).
    """
    steps, passthrough = _split_steps(steps, keys)
    level_moduli = ct.moduli
    num_level = len(level_moduli)
    special = tuple(ev.p_moduli)
    target_moduli = level_moduli + special
    target_basis = get_rns_basis(target_moduli)
    n = ct.n
    two_n = 2 * n
    p_product = get_rns_basis(special).product

    def lift(poly: RnsPoly) -> RnsPoly:
        """``P·poly`` over ``Q ∪ P`` (zero on the special rows)."""
        data = np.zeros((len(target_moduli), n), dtype=np.uint64)
        data[:num_level] = poly.mul_scalar(p_product).data
        return RnsPoly(data, target_moduli, EVAL)

    out: Dict[int, Tuple[RnsPoly, RnsPoly]] = {}
    if passthrough:
        out[0] = (lift(ct.c0), lift(ct.c1))
    if not steps:
        return out

    # --- the hoisted part: decompose + extend c1 once -----------------------
    c1_coeff = ct.c1.to_coeff()
    any_key = keys.rotation[steps[0]]
    full_len = full_chain_length(any_key)
    groups, digit_indices = present_digits(any_key.digits, num_level)
    extended_digits: List[RnsPoly] = []
    for present in groups:
        sub = c1_coeff.take_primes(present)
        ext = extend_basis(sub.data, get_rns_basis(sub.moduli), target_basis)
        extended_digits.append(RnsPoly(ext, target_moduli, COEFF))

    c0_coeff = ct.c0.to_coeff()
    for step in steps:
        exponent = pow(5, step, two_n)
        ksk = keys.rotation[step]
        rows = [
            (select_level_rows(ksk.pairs[j][0], num_level, full_len),
             select_level_rows(ksk.pairs[j][1], num_level, full_len))
            for j in digit_indices
        ]
        acc0 = lift(c0_coeff.automorphism(exponent).to_eval())
        acc1 = RnsPoly.zero(target_moduli, n, EVAL)
        for ext_poly, (b_rows, a_rows) in zip(extended_digits, rows):
            # Automorphism commutes with the extension: permute the
            # already-extended digit, then NTT.
            rotated_digit = ext_poly.automorphism(exponent).to_eval()
            acc0.fma_(rotated_digit, b_rows)
            acc1.fma_(rotated_digit, a_rows)
        out[step] = (acc0, acc1)
    return out


def weighted_sum_looped(ev: Evaluator, ct: Ciphertext,
                        terms: Dict[int, Tuple[RnsPoly, RnsPoly]],
                        steps: Sequence[int], stack: np.ndarray,
                        pt_scale: float) -> Ciphertext:
    """The per-step reference of :meth:`HoistedRotations.weighted_sum`.

    ``terms`` comes from :func:`hoisted_terms_looped` over (at least)
    ``steps``; each step is one in-place multiply-accumulate against its
    column of ``stack``, and each accumulator is lowered by ``P·q_l``
    one polynomial at a time.
    """
    moduli = terms[steps[0]][0].moduli
    w0 = RnsPoly.zero(moduli, ct.n, EVAL)
    w1 = RnsPoly.zero(moduli, ct.n, EVAL)
    for i, step in enumerate(steps):
        pt = RnsPoly(stack[:, i], moduli, EVAL)
        w0.fma_(terms[step][0], pt)
        w1.fma_(terms[step][1], pt)
    drop = ev.params.rescale_primes
    keep = ct.level + 1 - drop
    divisor = math.prod(moduli[keep:ct.level + 1])
    return Ciphertext(mod_down_poly(w0, keep), mod_down_poly(w1, keep),
                      ct.level - drop, ct.scale * pt_scale / divisor)


def hoisted_rotations_looped(ev: Evaluator, ct: Ciphertext,
                             steps: Sequence[int],
                             keys: KeySet) -> Dict[int, Ciphertext]:
    """The per-step reference of :meth:`HoistedRotations.ciphertexts`.

    Kept as the bit-exactness oracle and as the baseline of
    ``benchmarks/bench_keyswitch.py``: each step's terms from
    :func:`hoisted_terms_looped`, lowered by ``P`` one polynomial at a
    time. Step ``0`` is the input ciphertext itself.
    """
    num_level = ct.level + 1
    out: Dict[int, Ciphertext] = {}
    for step, (t0, t1) in hoisted_terms_looped(ev, ct, steps, keys).items():
        out[step] = ct if step == 0 else Ciphertext(
            mod_down_poly(t0, num_level), mod_down_poly(t1, num_level),
            ct.level, ct.scale,
        )
    return out
