"""D-NSE: interval-abstract noise walk over a trace DAG.

An abstract-interpretation counterpart of
:class:`~repro.ckks.noise.NoiseEstimator`: instead of tracking one noise
standard deviation alongside a live ciphertext, the walker propagates a
``[lo, hi]`` *interval* of plausible noise std per trace event, applying
the estimator's per-operation effects along data dependencies:

* sources (events with no writer dependency) start at fresh-encryption
  noise;
* additions combine in quadrature;
* tensor products apply the full HMULT estimate using the recorded scale
  tags for the message-magnitude terms;
* keyed inner products add one hybrid key-switch noise in quadrature;
* divides (rescale) divide by the exact dropped-prime product and add
  the rounding term.

A finding fires only when the interval's **lower** bound already
exhausts the modulus budget at the event's level — i.e. even the most
optimistic reading of the abstraction says decryption would fail.  The
estimator itself is kept honest against ``measured_noise_bits`` golden
tests (``tests/ckks/test_noise_golden.py``), which transitively anchors
this walker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..fhelint.findings import Finding
from ...ckks.noise import NoiseEstimator
from ...trace.ir import OpTrace
from .semantics import ScaleMap, divide_divisor, rescale_drop


@dataclass(frozen=True)
class NoiseInterval:
    """Interval of plausible noise standard deviations."""

    lo: float
    hi: float

    @property
    def lo_bits(self) -> float:
        return math.log2(max(2.0, 6.0 * self.lo))

    @property
    def hi_bits(self) -> float:
        return math.log2(max(2.0, 6.0 * self.hi))


class NoiseWalk:
    """The per-event noise intervals of one trace."""

    def __init__(self, trace: OpTrace):
        if trace.params is None:
            raise ValueError("noise walk needs trace.params")
        self.trace = trace
        self.params = trace.params
        self.est = NoiseEstimator(self.params)
        self.scales = ScaleMap(trace)
        self.intervals: Dict[int, NoiseInterval] = {}
        self._ks = self.est.keyswitch_noise()
        self._default_scale = float(self.params.scale)
        for e in trace.events:
            self.intervals[e.eid] = self._step(e)

    def _dep_ivals(self, e) -> List[NoiseInterval]:
        return [self.intervals[d] for d in e.deps if d in self.intervals]

    def _step(self, e) -> NoiseInterval:
        deps = self._dep_ivals(e)
        if not deps:
            fresh = self.est.fresh().std
            return NoiseInterval(fresh, fresh)
        if e.kind == "modadd":
            lo = math.hypot(*[d.lo for d in deps]) if len(deps) > 1 \
                else deps[0].lo
            hi = math.hypot(*[d.hi for d in deps]) if len(deps) > 1 \
                else deps[0].hi
            return NoiseInterval(lo, hi)
        if e.kind == "tensor_product":
            return self._tensor(e, deps)
        if e.kind == "inner_product" and e.key:
            worst = max(deps, key=lambda d: d.hi)
            best = min(deps, key=lambda d: d.lo)
            return NoiseInterval(math.hypot(best.lo, self._ks),
                                 math.hypot(worst.hi, self._ks))
        if rescale_drop(e):
            div = divide_divisor(self.trace, e) or 1.0
            rounding = 0.5 * self.est.sqrt_n
            worst = max(deps, key=lambda d: d.hi)
            best = min(deps, key=lambda d: d.lo)
            return NoiseInterval(math.hypot(best.lo / div, rounding),
                                 math.hypot(worst.hi / div, rounding))
        # Pass-through stages (ntt/intt/modup/plain moddown/modmul/
        # automorphism/keyless inner products): the interval hull of the
        # inputs.
        return NoiseInterval(min(d.lo for d in deps),
                             max(d.hi for d in deps))

    def _tensor(self, e, deps: List[NoiseInterval]) -> NoiseInterval:
        # Message magnitudes from the recorded scale tags: the event's
        # own tag is the product scale; operand scales fall back to the
        # parameter-set scale when untagged.
        op_scales = [self.scales[d] or self._default_scale for d in e.deps]
        while len(op_scales) < 2:
            op_scales.append(self._default_scale)
        m_a, m_b = op_scales[0], op_scales[1]
        a = deps[0]
        b = deps[1] if len(deps) > 1 else deps[0]

        def combine(sa: float, sb: float) -> float:
            # hypot instead of sqrt-of-squares: scales internally, so a
            # forged 2^200-scale chain saturates instead of overflowing.
            cross = math.hypot(sa * m_b, sb * m_a)
            product = sa * sb * self.est.sqrt_n
            return math.hypot(cross, product, self._ks)

        return NoiseInterval(combine(a.lo, b.lo), combine(a.hi, b.hi))

    def budget_bits(self, level: int) -> float:
        """log2 of the modulus product at ``level``."""
        return math.log2(self.params.chain().q_product(level))


def check_noise(trace: OpTrace) -> List[Finding]:
    """D-NSE findings: events whose optimistic noise bound already
    exceeds the modulus budget at their level."""
    ex = trace.expanded()
    if ex.params is None:
        return []
    walk = NoiseWalk(ex)
    out: List[Finding] = []
    budget_cache: Dict[int, float] = {}
    for e in ex.events:
        if e.level is None:
            continue
        ival = walk.intervals[e.eid]
        budget = budget_cache.get(e.level)
        if budget is None:
            budget = walk.budget_bits(e.level)
            budget_cache[e.level] = budget
        if ival.lo_bits >= budget:
            out.append(Finding(
                rule="D-NSE", path=ex.label or "<trace>", line=e.eid,
                func=e.op or e.kind,
                message=(
                    f"noise lower bound {ival.lo_bits:.1f} bits exhausts "
                    f"the {budget:.1f}-bit modulus at level {e.level}"),
            ))
    return out
