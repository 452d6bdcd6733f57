"""Homomorphic linear transforms on slots (diagonal method + BSGS).

``slots -> M @ slots`` for an arbitrary complex matrix M is the backbone
of CoeffToSlot/SlotToCoeff, packed convolutions and encrypted
matrix-vector products. Two strategies:

* **diagonal method** — one rotation per non-zero diagonal:
  ``sum_d diag_d(M) * rot(ct, d)``;
* **BSGS** — ``O(sqrt(s))`` *distinct* rotations: write ``d = g*b_step +
  b`` and hoist the baby rotations, rotating the giant partial sums:
  ``sum_g rot( sum_b diag'_{g,b} * rot(ct, b), g*b_step )`` where the
  giant-step rotation is folded into the diagonals
  (``diag'_{g,b} = rot(diag_{g*b_step+b}, -g*b_step)``).

The baby rotations are computed with Halevi-Shoup hoisting
(:mod:`repro.ckks.hoisting`), so the dominant ModUp cost is paid once.

Application is a **plan/compile** pipeline: :meth:`LinearTransform.compile`
extracts the non-zero (shifted) diagonals once and encodes them per level
into a cached **eval-form diagonal stack** over the level's primes *and*
the special primes — a read-only ``(L+K, num_diags, N)`` NTT-domain
tensor built with one batched embedding and one stacked NTT
(:func:`~repro.ckks.hoisting.encode_extended_stack`).  :meth:`apply` is
**double hoisting**: one hoisted ModUp for all baby steps, and per giant
group one :meth:`~repro.ckks.hoisting.HoistedRotations.weighted_sum` —
the baby-step PMULTs and additions accumulate over ``Q ∪ P`` in one
wide-accumulator pass, and a single ModDown by ``P·q_l`` is both the
key-switch ModDown and the rescale.  The diagonal method is the single
group with giant rotation 0.  Giant groups whose shifted diagonals are
all structurally zero are pruned at plan time (lossless — they
contribute nothing to the sum).

:meth:`apply_looped` is the per-step oracle of the same algorithm: each
rotation's ``Q ∪ P`` terms built digit by digit
(:func:`~repro.ckks.hoisting.hoisted_terms_looped`), one
:meth:`~repro.ckks.poly.RnsPoly.fma_` per diagonal, one polynomial-at-a-
time ModDown·rescale per group.  ``apply`` == ``apply_looped``
bit-exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..analysis.annotations import frozen
from ..trace.recorder import span as _tspan
from .ciphertext import Ciphertext
from .context import CkksContext
from .hoisting import (
    encode_extended_stack,
    hoisted_rotations,
    hoisted_terms_looped,
    weighted_sum_looped,
)
from .keys import KeySet

#: Magnitude below which a diagonal is treated as structurally zero.
_DIAG_EPSILON = 1e-12


@frozen
class _LevelPlan:
    """One compiled level of a transform: the eval-form diagonal stack.

    ``stack`` is the ``(L+K, num_diags, N)`` uint64 NTT-domain plaintext
    tensor over the level's primes plus the special primes (read-only;
    conceptually ``num_diags`` residue matrices side by side).
    ``groups`` lists, per giant step, the rotation to apply after the
    inner sum, the group's baby steps, and its slice of the stack.
    """

    __slots__ = ("level", "pt_scale", "babies", "groups", "stack")

    def __init__(self, level: int, pt_scale: float, babies: List[int],
                 groups: List[Tuple[int, List[int], np.ndarray]],
                 stack: np.ndarray):
        self.level = level
        self.pt_scale = pt_scale
        self.babies = babies
        self.groups = groups
        self.stack = stack

    @property
    def num_diags(self) -> int:
        return self.stack.shape[1]


class LinearTransform:
    """One precompiled ``slots x slots`` transform."""

    def __init__(self, ctx: CkksContext, matrix: np.ndarray, *,
                 bsgs: bool = True):
        s = ctx.slots
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (s, s):
            raise ValueError(f"matrix must be {s}x{s}, got {matrix.shape}")
        self.ctx = ctx
        self.matrix = matrix
        self.bsgs = bsgs
        self.slots = s
        self.baby = max(1, int(math.isqrt(s))) if bsgs else s
        self._diagonals = self._extract_diagonals()
        # {giant_rotation: {baby_step: already-shifted diagonal}} — the
        # diagonal method is the single group with giant rotation 0.
        self._groups = self._build_groups()
        self._plans: Dict[int, _LevelPlan] = {}

    # -- construction -------------------------------------------------------------

    def _extract_diagonals(self) -> Dict[int, np.ndarray]:
        s = self.slots
        j = np.arange(s)
        out: Dict[int, np.ndarray] = {}
        for d in range(s):
            diag = self.matrix[j, (j + d) % s]
            if np.any(np.abs(diag) > _DIAG_EPSILON):
                out[d] = diag
        if not out:
            raise ValueError("transform matrix is identically zero")
        return out

    def _build_groups(self) -> Dict[int, Dict[int, np.ndarray]]:
        groups: Dict[int, Dict[int, np.ndarray]] = {}
        if not self.bsgs:
            groups[0] = dict(self._diagonals)
            return groups
        for d, diag in self._diagonals.items():
            g, b = divmod(d, self.baby)
            # Pre-rotate the diagonal so the giant rotation can be applied
            # after the inner sum.
            groups.setdefault(g * self.baby, {})[b] = np.roll(
                diag, g * self.baby
            )
        return groups

    @property
    def num_giant_groups(self) -> int:
        """Giant-step groups that survived zero-diagonal pruning."""
        return len(self._groups)

    @property
    def pruned_giant_steps(self) -> List[int]:
        """Giant rotations skipped because every diagonal of the group is
        structurally zero (below ``_DIAG_EPSILON``) — the skip is lossless
        since those diagonals contribute nothing to the sum."""
        if not self.bsgs:
            return []
        num_groups = -(-self.slots // self.baby)
        return sorted(
            g * self.baby for g in range(num_groups)
            if g * self.baby not in self._groups
        )

    def required_rotations(self) -> List[int]:
        """Rotation keys the application must generate (sorted, unique)."""
        steps = set()
        for g_rot, grp in self._groups.items():
            if g_rot:
                steps.add(g_rot)
            steps.update(b for b in grp if b)
        return sorted(steps)

    # -- plan compilation ----------------------------------------------------------

    def compile(self, level: int) -> _LevelPlan:
        """Encode every (shifted) diagonal at ``level`` into the cached
        eval-form stack over ``Q ∪ P``; idempotent per level."""
        plan = self._plans.get(level)
        if plan is not None:
            return plan
        scale = self.ctx.params.scale
        babies = sorted({b for grp in self._groups.values() for b in grp})
        ordered = [(g_rot, sorted(self._groups[g_rot]))
                   for g_rot in sorted(self._groups)]
        stack = encode_extended_stack(
            self.ctx,
            np.stack([self._groups[g_rot][b]
                      for g_rot, bs in ordered for b in bs]),
            level, scale,
        )  # (L+K, D, N), canonical, read-only

        groups: List[Tuple[int, List[int], np.ndarray]] = []
        offset = 0
        for g_rot, bs in ordered:
            groups.append((g_rot, bs, stack[:, offset:offset + len(bs)]))
            offset += len(bs)

        plan = _LevelPlan(level, scale, babies, groups, stack)
        self._plans[level] = plan
        return plan

    # -- application ------------------------------------------------------------------

    def apply(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        """Return a ciphertext whose slots are ``matrix @ slots(ct)``.

        One hoisted ModUp for every baby step; per giant group one fused
        weighted sum (PMULTs and additions over ``Q ∪ P``, then a single
        ModDown·rescale), followed by the group's giant rotation.
        Bit-identical to :meth:`apply_looped`.
        """
        plan = self.compile(ct.level)
        ev = self.ctx.evaluator
        with _tspan("linear_transform", level=ct.level):
            hoisted = hoisted_rotations(ev, ct, plan.babies, keys)
            acc = None
            for g_rot, steps, stack in plan.groups:
                inner = hoisted.weighted_sum(steps, stack, plan.pt_scale)
                if g_rot:
                    inner = ev.hrotate(inner, g_rot, keys)
                acc = inner if acc is None else ev.hadd_matched(acc, inner)
            return acc

    def apply_looped(self, ct: Ciphertext, keys: KeySet) -> Ciphertext:
        """The per-step oracle of :meth:`apply`.

        Each baby rotation's ``Q ∪ P`` terms come from the per-digit
        reference; each diagonal is one in-place multiply-accumulate
        against the compiled stack; each group lowers one polynomial at a
        time by ``P·q_l``.
        """
        plan = self.compile(ct.level)
        ev = self.ctx.evaluator
        terms = hoisted_terms_looped(ev, ct, plan.babies, keys)
        acc = None
        for g_rot, steps, stack in plan.groups:
            inner = weighted_sum_looped(ev, ct, terms, steps, stack,
                                        plan.pt_scale)
            if g_rot:
                inner = ev.hrotate(inner, g_rot, keys)
            acc = inner if acc is None else ev.hadd_matched(acc, inner)
        return acc
