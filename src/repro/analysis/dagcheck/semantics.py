"""Ciphertext-semantics rules: level, domain, scale, rescale, keys.

All checks run over ``trace.expanded()`` — primitive granularity — so
optimizer-fused events are verified through their constituents and the
recorded scale tags survive fusion.  Every rule is an abstract
interpretation along data dependencies; none requires replaying the
workload.

Conventions established by the recorder (:mod:`repro.ckks`):

* ``divide`` events carry the **input** level; the output sits at
  ``level - drop`` and has ``rows = level + 1 - drop`` residue rows per
  polynomial.  The divisor is the product of the dropped (topmost)
  primes of the input chain.
* A ``moddown`` with ``drop = k`` is a *fused rescale* (double-hoisted
  linear transforms): it divides by ``P`` and the ``k`` topmost primes
  at once, so it obeys the ``divide`` conventions — input level,
  ``main_primes = level + 1 - drop``, the same divisor — and clears a
  pending tensor product like a ``divide``.  A plain ModDown (no
  ``drop``) divides by ``P`` only, which leaves the scale unchanged.
* The only legitimate level *raise* is bootstrap's ModRaise, recognised
  by the ``ModRaise``/``mod_raise`` span component.
* Scale tags (:attr:`~repro.trace.ir.TraceEvent.scale`) appear on
  ciphertext-producing stages; key-switch interior stages are untagged
  and pass their input scale through.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..fhelint.findings import Finding
from ...trace.ir import ELEMENTWISE_KINDS, OpTrace, TraceEvent

#: Relative tolerance for scale agreement at additions.
SCALE_RTOL = 1e-6

#: Span components that legitimise a level raise along a data dep.
_RAISE_SPANS = ("ModRaise", "mod_raise")

#: Output domain per kind; element-wise kinds join their inputs.
_OUT_DOMAIN = {
    "ntt": "eval",
    "intt": "coeff",
    "modup": "coeff",
    "moddown": "coeff",
    "divide": "coeff",
    "inner_product": "eval",
    "automorphism": "eval",
}

#: Required input domain per kind (element-wise kinds accept either but
#: must not mix).
_IN_DOMAIN = {
    "ntt": "coeff",
    "intt": "eval",
    "modup": "coeff",
    "moddown": "coeff",
    "inner_product": "eval",
    "automorphism": "eval",
}


def _finding(rule: str, trace: OpTrace, event: TraceEvent,
             message: str) -> Finding:
    return Finding(rule=rule, path=trace.label or "<trace>", line=event.eid,
                   func=event.op or event.kind, message=message)


def _allows_raise(event: TraceEvent) -> bool:
    return any(tag in event.op for tag in _RAISE_SPANS)


def rescale_drop(event: TraceEvent) -> int:
    """Primes a rescaling event divides out: a ``divide``'s ``drop``
    (default 1), a fused ModDown·rescale's ``drop``; 0 for every other
    event, a plain ModDown included."""
    if event.kind == "divide":
        return event.shape.get("drop", 1)
    if event.kind == "moddown":
        return event.shape.get("drop", 0)
    return 0


def divide_divisor(trace: OpTrace, event: TraceEvent) -> Optional[float]:
    """The exact scale divisor of a rescaling event (``divide`` or fused
    ``moddown``), from the trace's parameter chain; ``None`` when
    parameters are unavailable."""
    params = trace.params
    if params is None or event.level is None:
        return None
    moduli = params.chain().moduli
    drop = rescale_drop(event)
    lo = event.level + 1 - drop
    if lo < 0 or event.level + 1 > len(moduli):
        return None
    div = 1.0
    for i in range(lo, event.level + 1):
        div *= moduli[i]
    return div


class ScaleMap:
    """Abstract CKKS scale per event, propagated along data deps.

    An event's scale is its own tag when present; a rescaling event
    (``divide`` or fused ``moddown``) maps its input scale through the
    exact divisor; untagged events inherit the
    unique known dependency scale (disagreeing or absent inputs yield
    *unknown*, which silences downstream checks rather than guessing).
    """

    def __init__(self, trace: OpTrace):
        self.trace = trace
        self.scales: Dict[int, Optional[float]] = {}
        for e in trace.events:
            self.scales[e.eid] = self._infer(e)

    def _infer(self, e: TraceEvent) -> Optional[float]:
        dep_scales = [self.scales[d] for d in e.deps
                      if self.scales.get(d) is not None]
        if rescale_drop(e):
            div = divide_divisor(self.trace, e)
            if div is None or not dep_scales:
                return None
            return dep_scales[0] / div
        if e.scale is not None:
            return e.scale
        known = set(dep_scales)
        return known.pop() if len(known) == 1 else None

    def __getitem__(self, eid: int) -> Optional[float]:
        return self.scales.get(eid)


def _check_levels(trace: OpTrace, out: List[Finding]) -> None:
    """D-LVL: level monotonicity and prime-count bookkeeping."""
    params = trace.params
    num_special = getattr(params, "num_special", None)
    by_eid = {e.eid: e for e in trace.events}
    for e in trace.events:
        if e.level is None:
            continue
        for d in e.deps:
            dep = by_eid.get(d)
            if dep is None or dep.level is None:
                continue
            if e.level > dep.level and not _allows_raise(e):
                out.append(_finding(
                    "D-LVL", trace, e,
                    f"level raised {dep.level} -> {e.level} along dep "
                    f"eid {d} outside a ModRaise span"))
        L1 = e.level + 1
        if e.kind == "automorphism":
            primes = e.shape.get("primes")
            if primes is not None and primes != L1:
                out.append(_finding(
                    "D-LVL", trace, e,
                    f"automorphism over {primes} primes at level "
                    f"{e.level} (expected {L1})"))
        elif e.kind == "inner_product" and e.key and num_special is not None:
            primes = e.shape.get("primes")
            expect = L1 + num_special
            if primes is not None and primes != expect:
                out.append(_finding(
                    "D-LVL", trace, e,
                    f"keyed inner product over {primes} primes at level "
                    f"{e.level} (expected {expect} incl. "
                    f"{num_special} special)"))
        elif e.kind in ("divide", "moddown"):
            field = "rows" if e.kind == "divide" else "main_primes"
            rows = e.shape.get(field)
            drop = rescale_drop(e)
            if rows is not None and rows != L1 - drop:
                out.append(_finding(
                    "D-LVL", trace, e,
                    f"{e.kind} produced {rows} {field} at input level "
                    f"{e.level} dropping {drop} (expected {L1 - drop})"))
        elif e.kind in ("modadd", "modmul", "tensor_product"):
            rows = e.shape.get("rows")
            if rows is not None and rows > 0 and rows % L1 != 0:
                out.append(_finding(
                    "D-LVL", trace, e,
                    f"{e.kind} over {rows} rows is not a whole number of "
                    f"polynomials at level {e.level} ({L1} primes)"))


def _check_domains(trace: OpTrace, out: List[Finding]) -> None:
    """D-CEV: coeff/eval domain discipline along data paths."""
    domain: Dict[int, Optional[str]] = {}
    for e in trace.events:
        dep_domains = [(d, domain.get(d)) for d in e.deps]
        need = _IN_DOMAIN.get(e.kind)
        if need is not None:
            for d, dd in dep_domains:
                if dd is not None and dd != need:
                    out.append(_finding(
                        "D-CEV", trace, e,
                        f"{e.kind} consumes {dd}-domain data from eid {d} "
                        f"(needs {need})"))
        if e.kind in _OUT_DOMAIN:
            domain[e.eid] = _OUT_DOMAIN[e.kind]
        else:
            known = {dd for _, dd in dep_domains if dd is not None}
            if len(known) > 1:
                out.append(_finding(
                    "D-CEV", trace, e,
                    f"{e.kind} mixes coeff- and eval-domain inputs"))
                domain[e.eid] = None
            elif known:
                domain[e.eid] = known.pop()
            else:
                # Sources are ciphertext inputs, which live in eval form.
                domain[e.eid] = "eval" if not e.deps else None


def _check_scales(trace: OpTrace, scales: ScaleMap,
                  out: List[Finding]) -> None:
    """D-SCL: scale agreement at tagged additions and at tagged
    rescales (``divide``, fused ``moddown``; a plain ModDown must keep
    its input scale)."""
    for e in trace.events:
        if e.kind == "modadd" and e.scale is not None:
            for d in e.deps:
                ds = scales[d]
                if ds is not None and not math.isclose(
                        ds, e.scale, rel_tol=SCALE_RTOL):
                    out.append(_finding(
                        "D-SCL", trace, e,
                        f"operand eid {d} scale 2^{math.log2(ds):.2f} != "
                        f"result scale 2^{math.log2(e.scale):.2f} at "
                        "addition"))
        elif e.kind in ("divide", "moddown") and e.scale is not None:
            div = divide_divisor(trace, e)
            dep_scales = [scales[d] for d in e.deps
                          if scales[d] is not None]
            if div is not None and dep_scales:
                expect = dep_scales[0] / div
                if not math.isclose(expect, e.scale, rel_tol=SCALE_RTOL):
                    out.append(_finding(
                        "D-SCL", trace, e,
                        f"{e.kind} tagged 2^{math.log2(e.scale):.2f} but "
                        f"input/divisor give 2^{math.log2(expect):.2f}"))


def _check_rescale_placement(trace: OpTrace, out: List[Finding]) -> None:
    """D-RES: a tensor product must never consume an unrescaled tensor
    product — the squared scale would square again and exhaust the
    modulus.  Propagates a boolean *tensor-pending* flag that only a
    rescale — a ``divide`` or a fused ``moddown`` — clears."""
    pending: Dict[int, bool] = {}
    for e in trace.events:
        dep_pending = any(pending.get(d, False) for d in e.deps)
        if e.kind == "tensor_product":
            if dep_pending:
                out.append(_finding(
                    "D-RES", trace, e,
                    "tensor product consumes a tensor-product result with "
                    "no rescale on the path"))
            pending[e.eid] = True
        elif rescale_drop(e):
            pending[e.eid] = False
        else:
            pending[e.eid] = dep_pending


def _check_keys(trace: OpTrace, out: List[Finding]) -> None:
    """D-KEY: automorphism steps against the declared rotation-key set."""
    if trace.rotations is None:
        return
    declared = set(trace.rotations)
    for e in trace.events:
        if e.kind != "automorphism":
            continue
        missing = sorted(set(e.args) - declared)
        if missing:
            out.append(_finding(
                "D-KEY", trace, e,
                f"automorphism step(s) {missing} have no declared "
                "rotation key (-1 = conjugation)"))


def check_semantics(trace: OpTrace) -> List[Finding]:
    """All ciphertext-semantics rules over one (possibly optimized) trace."""
    ex = trace.expanded()
    out: List[Finding] = []
    _check_levels(ex, out)
    _check_domains(ex, out)
    _check_scales(ex, ScaleMap(ex), out)
    _check_rescale_placement(ex, out)
    _check_keys(ex, out)
    return out
