"""Checks at the perfbench boot-mid set (n=2^9, 256 slots, dnum=17).

The dense BSGS transform's batched ``apply`` must match the
per-diagonal ``apply_looped`` bit for bit at this shape, and the
FFT-factored bootstrap must stay inside the dense bootstrap's precision
envelope. ``tests/ckks/test_polyeval_bsgs.py`` holds the factored
bootstrap's absolute 0.02 bound.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.linear_transform import LinearTransform

BOOT_MID = CkksParams(n=512, max_level=16, num_special=2, dnum=17,
                      scale_bits=26, secret_hamming_weight=8,
                      name="boot-mid")
DENSE = BootstrapConfig(sine_degree=63, eval_range=4.5)
FACTORED = BootstrapConfig(sine_degree=63, eval_range=4.5,
                           fft_factored=True, fuse=2)
#: Absolute slot-error floor of the factored bootstrap's envelope: it
#: must stay within max(3x the dense error, this).
PRECISION_ENVELOPE = 5e-2


@pytest.fixture(scope="module")
def setup():
    ctx = CkksContext.create(BOOT_MID, seed=7)
    dense = Bootstrapper(ctx, DENSE)
    factored = Bootstrapper(ctx, FACTORED)
    steps = set(dense.required_rotations()) | \
        set(factored.required_rotations())
    keys = ctx.keygen(rotations=sorted(steps), conjugation=True)
    return ctx, keys, dense, factored


def _bit_equal(a, b):
    return (np.array_equal(a.c0.data, b.c0.data)
            and np.array_equal(a.c1.data, b.c1.data)
            and a.scale == b.scale and a.level == b.level)


def test_dense_bsgs_apply_matches_looped(setup):
    ctx, keys, _, _ = setup
    rng = np.random.default_rng(0)
    s = ctx.slots
    mat = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    lt = LinearTransform(ctx, mat, bsgs=True)
    assert set(lt.required_rotations()) <= set(keys.rotation)
    ct = ctx.encrypt(rng.normal(size=s) * 0.3, keys)
    assert _bit_equal(lt.apply(ct, keys), lt.apply_looped(ct, keys))


def test_factored_bootstrap_within_dense_envelope(setup):
    ctx, keys, dense, factored = setup
    vals = np.zeros(ctx.slots)
    vals[:8] = np.random.default_rng(1).uniform(-0.75, 0.75, 8)

    def error(boot, level):
        out = boot.bootstrap(ctx.encrypt(vals, keys, level=level), keys)
        return float(np.max(np.abs(ctx.decrypt_decode_real(out, keys)
                                   - vals)))

    err_dense = error(dense, 1)
    err_factored = error(factored, factored.stc_levels)
    assert err_factored <= max(3 * err_dense, PRECISION_ENVELOPE)
