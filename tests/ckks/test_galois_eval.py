"""HROTATE and conjugation gather in the eval domain.

A negacyclic automorphism permutes NTT slots with no sign flips, so
``Evaluator._apply_galois`` gathers both ciphertext polynomials through
:func:`repro.ckks.poly.eval_automorphism_tables` instead of running
INTT -> coefficient automorphism -> NTT. The two paths must give the
same polynomials.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext, ParameterSets, keyswitch
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.poly import eval_automorphism_tables


@pytest.fixture(scope="module")
def setup():
    ctx = CkksContext.create(ParameterSets.toy(), seed=21)
    keys = ctx.keygen(rotations=[1, 3], conjugation=True)
    return ctx, keys


def _coefficient_path(ev, ct, exponent, key):
    """The INTT -> coefficient automorphism -> NTT reference."""
    rot0 = ct.c0.to_coeff().automorphism(exponent).to_eval()
    rot1 = ct.c1.to_coeff().automorphism(exponent).to_eval()
    ks0, ks1 = keyswitch(rot1, key, ev.p_moduli)
    return Ciphertext(rot0 + ks0, ks1, ct.level, ct.scale)


def _levels(ctx):
    top = ctx.params.max_level
    return (top, top - 1)


def test_hrotate_matches_coefficient_path(setup):
    ctx, keys = setup
    ev = ctx.evaluator
    rng = np.random.default_rng(0)
    for level in _levels(ctx):
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots), keys, level=level)
        for step in (1, 3):
            exponent = pow(5, step, 2 * ctx.params.n)
            want = _coefficient_path(ev, ct, exponent, keys.rotation[step])
            got = ev.hrotate(ct, step, keys)
            assert got.c0 == want.c0 and got.c1 == want.c1, (level, step)


def test_conjugate_matches_coefficient_path(setup):
    ctx, keys = setup
    ev = ctx.evaluator
    rng = np.random.default_rng(1)
    for level in _levels(ctx):
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots), keys, level=level)
        want = _coefficient_path(ev, ct, 2 * ctx.params.n - 1,
                                 keys.conjugation)
        got = ev.conjugate(ct, keys)
        assert got.c0 == want.c0 and got.c1 == want.c1, level


def test_exponent_one_is_the_identity_table():
    n = 16
    assert np.array_equal(eval_automorphism_tables([1], n)[0], np.arange(n))
