"""Homomorphic polynomial evaluation (power and Chebyshev bases).

Polynomial approximation is how CKKS computes every non-linearity: the
bootstrap's sine, HELR's sigmoid, ResNet's minimax ReLU. This module
provides a reusable evaluator:

* **Chebyshev basis** — numerically stable on [-1, 1]; evaluated
  baby-step/giant-step (Han-Ki; Bossuat et al.): the baby set
  ``T_1..T_k`` (``k = 2**ceil(l/2)``, ``l = degree.bit_length()``) and the
  giants ``T_(2^j)`` come from the product recurrence
  ``T_(m+n) = 2 T_m T_n - T_(|m-n|)``, and the polynomial is split
  recursively by Chebyshev division ``p = q * T_n + r`` down to leaves of
  length <= k.  About ``2 sqrt(d) + log2(d)`` HMULTs at the depth
  ``ceil(log2(d)) + 1`` of the one-term-at-a-time sum;
* **power basis** — ``x^k`` by square-and-multiply, same depth bound.

**Exact scales.** Every addition inside the evaluator happens before a
rescale, at one common scale: leaf coefficients are encoded at
``target / T_i.scale``, a quotient ``q`` is evaluated at the scale that
makes ``Q * T_n`` land on its parent's target, and the recurrence lifts
``T_1`` by an integer factor ~Delta (relative rounding 2^-27).  No call
here raises a scale by a ratio below 2, so nothing is silently shrunk
the way :meth:`~repro.ckks.ops.Evaluator.match_scale` shrinks an operand
whose ratio rounds to 1.  Outputs of degree >= 1 land on exactly the
parameter scale Delta.

All methods consume ``keys`` for relinearization; inputs are assumed to
lie in the basis' natural domain ([-1, 1] for Chebyshev).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Tuple, Union

import numpy as np

from .ciphertext import Ciphertext
from .keys import KeySet
from .ops import Evaluator

#: Coefficients below this threshold are dropped (they are beneath CKKS
#: noise anyway and each one costs a PMULT).
COEFF_EPSILON = 1e-13


# -- BSGS plan -------------------------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    """``sum_i c_i T_i`` over ``terms`` (0 is the constant), evaluated
    directly; ``depth`` is the rescale depth of the sum (its deepest
    term, or the sum it joins)."""

    terms: Tuple[int, ...]
    depth: int


@dataclass(frozen=True)
class _Split:
    """``p = q * T_n + r``; ``q is None`` when ``q`` is the constant
    ``c_n`` (degree exactly ``n``) and ``r is None`` when ``r`` is zero.
    ``depth`` is the rescale depth of the un-rescaled sum."""

    n: int
    q: Optional["_Node"]
    r: Optional["_Node"]
    depth: int


_Node = Union[_Leaf, _Split]


@dataclass(frozen=True)
class ChebyshevPlan:
    """The shape of one BSGS Chebyshev evaluation.

    Depths count rescales below the input ``T_1``.  ``hmult_depths``
    holds the operand depth of every HMULT the evaluator issues (one per
    recurrence product, one per ``Q * T_n`` combine) and
    ``pmult_depths`` that of every scalar PMULT (one per leaf term, one
    per ``T_1`` lift); the hand-counted EvalMod schedule prices exactly
    these lists.
    """

    degree: int
    baby: int
    tree: _Node
    hmult_depths: Tuple[int, ...]
    pmult_depths: Tuple[int, ...]

    @property
    def depth(self) -> int:
        """Rescales the evaluation consumes (the output's depth)."""
        return self.tree.depth + (1 if self.degree else 0)


def chebyshev_plan(support: Iterable[int]) -> ChebyshevPlan:
    """Plan the BSGS evaluation of a Chebyshev series whose non-zero
    coefficients sit at the indices in ``support``.

    The plan depends only on where the coefficients are non-zero, so the
    evaluator (actual coefficients) and the hand-counted bootstrap
    schedule (an odd degree-d sine) share it.
    """
    support = frozenset(int(i) for i in support)
    degree = max(support, default=0)
    baby = 1 << -(-degree.bit_length() // 2)
    depths: Dict[int, int] = {1: 0}
    hmults: List[int] = []
    pmults: List[int] = []

    def power(i: int) -> int:
        # Mirrors PolynomialEvaluator._cheb: T_i = 2 T_m T_(i-m) - T_d.
        if i not in depths:
            m = i // 2
            operand = max(power(m), power(i - m))
            hmults.append(operand)
            if i % 2:
                pmults.append(operand)  # the T_1 lift
            depths[i] = operand + 1
        return depths[i]

    def leaf_terms(terms, base: int) -> int:
        # Terms run at the level of the sum they join (PolynomialEvaluator
        # ._leaf); ``base`` is that sum's depth so far (-1: none).
        depth = max([power(i) for i in terms if i] + [base, 0])
        pmults.extend(depth for i in terms if i)
        return depth

    def build(sup: FrozenSet[int], base: int = -1) -> _Node:
        top = max(sup)
        if top < baby:
            terms = tuple(sorted(sup))
            return _Leaf(terms, leaf_terms(terms, base))
        n = 1 << (top.bit_length() - 1)
        q_sup, r_sup = _divide_support(sup, n)
        q = None
        if top > n:
            q = build(q_sup)
            operand = max(q.depth + 1, power(n))
            hmults.append(operand)
            depth = max(operand, base)
        else:
            depth = leaf_terms((n,), base)
        r = build(r_sup, depth) if r_sup else None
        return _Split(n, q, r, r.depth if r else depth)

    tree = build(support or frozenset({0}))
    return ChebyshevPlan(degree, baby, tree, tuple(hmults), tuple(pmults))


def _divide_support(sup: FrozenSet[int], n: int):
    """Supports of ``q`` and ``r`` in ``p = q * T_n + r``."""
    q = {i - n for i in sup if i >= n}
    r = {i for i in sup if i < n} | {2 * n - i for i in sup if i > n}
    return frozenset(q), frozenset(r)


def _divide(coeffs: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chebyshev division by ``T_n`` (degree < 2n), from
    ``T_(n+j) = 2 T_n T_j - T_(n-j)``: ``q_0 = c_n``,
    ``q_j = 2 c_(n+j)``, ``r_(n-j) = c_(n-j) - c_(n+j)``."""
    high = coeffs[n:]
    q = 2.0 * high
    q[0] = high[0]
    r = coeffs[:n].copy()
    j = np.arange(1, len(high))
    r[n - j] -= high[1:]
    return q, r


# -- evaluator -------------------------------------------------------------------


class PolynomialEvaluator:
    """Evaluates polynomials on ciphertexts with managed scales/levels."""

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator

    # -- Chebyshev basis ------------------------------------------------------------

    def eval_chebyshev(self, ct_x: Ciphertext, coeffs: Sequence[float],
                       keys: KeySet) -> Ciphertext:
        """``sum_i coeffs[i] * T_i(x)`` for x in [-1, 1]."""
        coeffs = _check(coeffs)
        plan = chebyshev_plan(np.flatnonzero(np.abs(coeffs)
                                             >= COEFF_EPSILON))
        memo: Dict[int, Ciphertext] = {1: ct_x}

        def power(i: int) -> Ciphertext:
            return self._cheb(i, memo, keys)

        def accumulate(node: _Node, c: np.ndarray, target: float,
                       base: Optional[Ciphertext]) -> Ciphertext:
            if isinstance(node, _Leaf):
                return self._leaf(node.terms, c, power, target, base)
            q, r = _divide(c, node.n)
            t_n = power(node.n)
            if node.q is None:  # q = c_n: one more term of the sum
                base = self._leaf((node.n,), c, power, target, base)
            else:
                # Q lands on target / T_n.scale after its rescale, so
                # Q * T_n sits exactly on target.
                q_target = (target * self._divisor(ct_x.level, node.q.depth)
                            / t_n.scale)
                ct_q = self.ev.rescale(accumulate(node.q, q, q_target, None))
                prod = self.ev.hmult(ct_q, t_n, keys, rescale=False)
                base = prod if base is None else self.ev.hadd(base, prod)
            if node.r is None:
                return base
            return accumulate(node.r, r, target, base)

        return self._finish(ct_x, plan.degree, plan.tree.depth,
                            lambda target: accumulate(
                                plan.tree, coeffs[: plan.degree + 1],
                                target, None))

    def _cheb(self, i: int, memo: Dict[int, Ciphertext],
              keys: KeySet) -> Ciphertext:
        """``T_i`` by ``T_(m+n) = 2 T_m T_n - T_(n-m)``, ``m = i // 2``:
        the subtraction runs on the un-rescaled product, then one
        rescale."""
        if i in memo:
            return memo[i]
        m = i // 2
        n = i - m
        prod = self.ev.hmult(self._cheb(m, memo, keys),
                             self._cheb(n, memo, keys), keys, rescale=False)
        prod = self.ev.hadd(prod, prod)
        if m == n:
            prod = self.ev.add_scalar(prod, -1.0)
        else:
            # n - m == 1: T_1 lifted by an integer factor ~Delta.
            t_1 = self.ev.level_down(memo[1], prod.level)
            prod = self.ev.hsub(prod, self.ev.match_scale(t_1, prod.scale))
        memo[i] = self.ev.rescale(prod)
        return memo[i]

    # -- power basis -----------------------------------------------------------------

    def eval_power(self, ct_x: Ciphertext, coeffs: Sequence[float],
                   keys: KeySet) -> Ciphertext:
        """``sum_i coeffs[i] * x^i`` (square-and-multiply powers)."""
        coeffs = _check(coeffs)
        terms = tuple(np.flatnonzero(np.abs(coeffs) >= COEFF_EPSILON))
        memo: Dict[int, Ciphertext] = {1: ct_x}

        def power(i: int) -> Ciphertext:
            return self._power(i, memo, keys)

        degree = max(terms, default=0)
        depth = math.ceil(math.log2(degree)) if degree else 0
        return self._finish(ct_x, degree, depth, lambda target: self._leaf(
            terms or (0,), coeffs, power, target, None))

    def _power(self, i: int, memo: Dict[int, Ciphertext],
               keys: KeySet) -> Ciphertext:
        if i in memo:
            return memo[i]
        m = i // 2
        n = i - m
        memo[i] = self.ev.hmult(self._power(m, memo, keys),
                                self._power(n, memo, keys), keys)
        return memo[i]

    # -- shared exact-scale accumulation ------------------------------------------

    def _finish(self, ct_x: Ciphertext, degree: int, depth: int,
                evaluate) -> Ciphertext:
        """Run ``evaluate(target)``, whose un-rescaled sum sits ``depth``
        rescales below ``ct_x``, at the target that rescales onto Delta.

        A constant polynomial consumes no level (its result sits at
        ``ct_x.scale * Delta``, un-rescaled)."""
        if degree == 0:
            return evaluate(ct_x.scale * self.ev.params.scale)
        target = self.ev.params.scale * self._divisor(ct_x.level, depth)
        return self.ev.rescale(evaluate(target))

    def _leaf(self, terms: Sequence[int], coeffs, power, target: float,
              base: Optional[Ciphertext]) -> Ciphertext:
        """``base + sum_i coeffs[i] * T_i`` with every term encoded at
        ``target / T_i.scale``: all terms land on ``target`` exactly and
        the PMULTs run at the sum's (lowest) level."""
        cts = {i: power(i) for i in terms if i}
        levels = [ct.level for ct in cts.values()]
        if base is not None:
            levels.append(base.level)
        acc = base
        for i, t in cts.items():
            t = self.ev.level_down(t, min(levels))
            term = self.ev.pmult_scalar(t, float(coeffs[i]),
                                        scale=target / t.scale)
            acc = term if acc is None else self.ev.hadd(acc, term)
        if acc is None:  # a constant leaf still needs a ciphertext
            t = power(1)
            acc = self.ev.pmult_scalar(t, 0.0, scale=target / t.scale)
        if 0 in terms:
            acc = self.ev.add_scalar(acc, float(coeffs[0]))
        return acc

    def _divisor(self, level: int, depth: int) -> float:
        """What the rescale of a ciphertext ``depth`` rescales below
        ``level`` divides by: the product of its top primes."""
        k = self.ev.params.rescale_primes
        top = level - k * depth
        return float(math.prod(self.ev.q_moduli[top - k + 1: top + 1]))

    # -- convenience fits ---------------------------------------------------------------

    @staticmethod
    def chebyshev_fit(func, degree: int, *,
                      domain=(-1.0, 1.0)) -> np.ndarray:
        """Chebyshev interpolation coefficients of ``func`` on ``domain``
        (callers rescale inputs into [-1, 1] themselves)."""
        from numpy.polynomial import chebyshev as _cheb

        lo, hi = domain

        def g(x):
            return func((x + 1) / 2 * (hi - lo) + lo)

        return _cheb.Chebyshev.interpolate(g, degree, domain=[-1, 1]).coef


def _check(coeffs: Sequence[float]) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if len(coeffs) == 0:
        raise ValueError("empty coefficient vector")
    return coeffs
