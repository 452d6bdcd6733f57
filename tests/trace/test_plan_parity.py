"""Proxy-ring plans equal plans recorded at the full ring.

``OperationScheduler`` records each op once at a small proxy ring that
shares the parameter set's modulus chain, then lowers the recording at
the real ring degree. The property that rests on: recording the same
functional op at the *full* ring and lowering it PE-style yields exactly
the same kernel specs, for every op in ``HOMOMORPHIC_OPS``.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.params import ParameterSets
from repro.core import OperationScheduler
from repro.core.scheduler import HOMOMORPHIC_OPS
from repro.trace import lower_trace
from repro.trace.recorder import record, span

PARAMS = ParameterSets.small()


@pytest.fixture(scope="module")
def setup():
    scheduler = OperationScheduler(PARAMS)
    ctx = CkksContext.create(PARAMS, seed=7)
    keys = ctx.keygen(rotations=[1])
    vals = np.zeros(ctx.slots)
    vals[:3] = [0.5, -0.25, 0.125]
    ct = ctx.encrypt(vals, keys)
    pt = ctx.encode(vals, level=ct.level)
    return scheduler, ctx, keys, ct, pt


def full_ring_plan(scheduler, op, run):
    assert scheduler.params.n == PARAMS.n
    with record(op, params=PARAMS) as rec:
        with span(op, level=PARAMS.max_level):
            run()
    return lower_trace(
        rec.trace, params=scheduler.params, style="pe",
        device=scheduler.device, ntt_variant=scheduler.ntt.variant,
        geometry=scheduler.geometry,
    ).specs


def functional_call(op, ctx, keys, ct, pt):
    ev = ctx.evaluator
    if op == "hadd":
        return lambda: ev.hadd(ct, ct)
    if op == "hsub":
        return lambda: ev.hsub(ct, ct)
    if op == "pmult":
        return lambda: ev.pmult(ct, pt)
    if op == "hmult":
        return lambda: ev.hmult(ct, ct, keys)
    if op == "hrotate":
        return lambda: ev.hrotate(ct, 1, keys)
    if op == "rescale":
        return lambda: ev.rescale(ct)
    if op == "keyswitch":
        return lambda: ev._relinearize(ct.c0, ct.c1, ct.c1, keys,
                                       ct.level, ct.scale)
    raise AssertionError(f"unhandled op {op!r}")


@pytest.mark.parametrize("op", HOMOMORPHIC_OPS)
def test_traced_op_matches_plan(op, setup):
    scheduler, ctx, keys, ct, pt = setup
    full = full_ring_plan(scheduler, op,
                          functional_call(op, ctx, keys, ct, pt))
    assert scheduler.plan(op, level=ct.level) == full


def test_hmult_contains_full_keyswitch_and_rescale(setup):
    scheduler, ctx, keys, ct, pt = setup
    names = [k.name for k in scheduler.plan("hmult", level=ct.level)]
    ks = [k.name for k in scheduler.plan("keyswitch", level=ct.level)]
    assert names[0] == "hmult.tensor_product"
    # The ten key-switching stages, then the combine into (d0, d1).
    assert names[1:len(ks)] == ks[:-1]
    assert names[len(ks)] == "hmult.modadd"
    assert "keyswitch.inner_product" in names
    assert names[-1] == "rescale.ntt"
