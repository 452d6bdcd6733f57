"""Property suite: the digit-batched key-switch pipeline is bit-exact.

:func:`repro.ckks.keyswitch` (fused digits) and
:func:`repro.ckks.hoisted_rotations` (fused digits *and* steps) must
reproduce their preserved per-digit/per-step reference implementations
bit-for-bit — across levels (including digit-skipping low levels), dnum
values, and both ModDown branches — and the batched pipeline's working
set must fit the paper's ``S_max`` pool budget.
"""

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksParams,
    ParameterSets,
    hoisted_rotations,
    hoisted_rotations_looped,
    keyswitch,
    keyswitch_looped,
)
from repro.ckks.poly import COEFF, EVAL, RnsPoly
from repro.core.memory_pool import MemoryPool, max_working_set_bytes
from repro.numtheory.rns import RNSBasis

#: num_special=2 and scale_bits=26 keep the special-prime product above
#: every digit product (the Han-Ki noise guard); max_level is the largest
#: each dnum supports under that guard with 31-bit special primes.
DNUM_PARAMS = {
    1: CkksParams(n=64, max_level=1, num_special=2, dnum=1, scale_bits=26),
    3: CkksParams(n=64, max_level=5, num_special=2, dnum=3, scale_bits=26),
    7: CkksParams(n=64, max_level=6, num_special=2, dnum=7, scale_bits=26),
}


def _assert_pair_equal(ref, got, msg):
    for r, g, part in zip(ref, got, ("ks0", "ks1")):
        assert np.array_equal(r.data, g.data), f"{msg} ({part})"
        assert r.moduli == g.moduli and r.domain == g.domain


def _random_eval_poly(moduli, n, rng):
    return RnsPoly(RNSBasis(moduli).random(n, rng), moduli, EVAL)


class TestBatchedKeyswitchBitExact:
    @pytest.mark.parametrize("dnum", sorted(DNUM_PARAMS))
    def test_matches_looped_at_every_level(self, dnum):
        """Batched == looped at every level, including low levels where
        trailing digits drop out entirely."""
        params = DNUM_PARAMS[dnum]
        ctx = CkksContext.create(params, seed=dnum)
        keys = ctx.keygen()
        ev = ctx.evaluator
        for num_level in range(1, params.max_level + 2):
            moduli = ev.q_moduli[:num_level]
            for seed in range(5):
                rng = np.random.default_rng(1000 * dnum + 10 * num_level
                                            + seed)
                d = _random_eval_poly(moduli, params.n, rng)
                _assert_pair_equal(
                    keyswitch_looped(d, keys.relin, ev.p_moduli),
                    keyswitch(d, keys.relin, ev.p_moduli),
                    f"dnum={dnum} num_level={num_level} seed={seed}",
                )

    @pytest.mark.parametrize("plain_modulus", [None, 65537])
    def test_both_mod_down_branches(self, plain_modulus):
        """CKKS flooring ModDown and the BGV/BFV t-preserving ModDown
        both stay bit-exact under batching."""
        ctx = CkksContext.create(ParameterSets.toy(), seed=3)
        keys = ctx.keygen()
        ev = ctx.evaluator
        for num_level in (len(ev.q_moduli), 2, 1):
            moduli = ev.q_moduli[:num_level]
            for seed in range(5):
                rng = np.random.default_rng(77 + seed)
                d = _random_eval_poly(moduli, ctx.params.n, rng)
                _assert_pair_equal(
                    keyswitch_looped(d, keys.relin, ev.p_moduli,
                                     plain_modulus=plain_modulus),
                    keyswitch(d, keys.relin, ev.p_moduli,
                              plain_modulus=plain_modulus),
                    f"t={plain_modulus} num_level={num_level} seed={seed}",
                )

    def test_rejects_coeff_domain(self):
        ctx = CkksContext.create(ParameterSets.toy(), seed=4)
        keys = ctx.keygen()
        d = RnsPoly.zero(ctx.evaluator.q_moduli, ctx.params.n, COEFF)
        with pytest.raises(ValueError):
            keyswitch(d, keys.relin, ctx.evaluator.p_moduli)


class TestBatchedHoistingBitExact:
    @pytest.fixture(scope="class")
    def setup(self):
        ctx = CkksContext.create(ParameterSets.toy(), seed=5)
        steps = [1, 2, 5, 7]
        keys = ctx.keygen(rotations=steps)
        return ctx, keys, steps

    def test_matches_looped_at_full_level(self, setup):
        ctx, keys, steps = setup
        ct = ctx.encrypt(list(np.arange(ctx.slots) * 0.25), keys)
        ref = hoisted_rotations_looped(ctx.evaluator, ct, steps, keys)
        got = hoisted_rotations(ctx.evaluator, ct, steps, keys).ciphertexts()
        assert set(ref) == set(got) == set(steps)
        for s in steps:
            assert ref[s].c0 == got[s].c0, f"step {s} (c0)"
            assert ref[s].c1 == got[s].c1, f"step {s} (c1)"
            assert ref[s].level == got[s].level
            assert ref[s].scale == got[s].scale

    def test_matches_looped_at_low_level(self, setup):
        """At a low level whole digits drop out of every rotation key."""
        ctx, keys, steps = setup
        ct = ctx.encrypt(list(np.arange(ctx.slots) * 0.5), keys, level=1)
        ref = hoisted_rotations_looped(ctx.evaluator, ct, steps, keys)
        got = hoisted_rotations(ctx.evaluator, ct, steps, keys).ciphertexts()
        for s in steps:
            assert ref[s].c0 == got[s].c0 and ref[s].c1 == got[s].c1, \
                f"step {s}"

    def test_matches_plain_rotation(self, setup):
        """Each batched hoisted rotation decrypts like a plain HROTATE."""
        ctx, keys, steps = setup
        values = list(np.arange(ctx.slots, dtype=float))
        ct = ctx.encrypt(values, keys)
        hoisted = hoisted_rotations(
            ctx.evaluator, ct, steps, keys).ciphertexts()
        for s in steps:
            plain = ctx.decrypt_decode_real(
                ctx.hrotate(ct, s, keys), keys
            )
            batched = ctx.decrypt_decode_real(hoisted[s], keys)
            assert np.allclose(plain, batched, atol=1e-2)

    def test_missing_key_and_empty_steps(self, setup):
        ctx, keys, _ = setup
        ct = ctx.encrypt([1.0], keys)
        with pytest.raises(KeyError):
            hoisted_rotations(ctx.evaluator, ct, [3], keys)
        assert hoisted_rotations(
            ctx.evaluator, ct, [], keys).ciphertexts() == {}


class TestKeyswitchPoolBudget:
    @pytest.mark.parametrize("set_name", ["toy", "small"])
    def test_working_set_within_s_max(self, set_name):
        """Every stage buffer of the batched pipeline, accounted against
        the paper's pool model, fits S_max = l*N*dnum*(l+k)*BS*w for a
        ciphertext pair (BS=2) in host words (w=8)."""
        params = getattr(ParameterSets, set_name)()
        ctx = CkksContext.create(params, seed=6)
        keys = ctx.keygen()
        ev = ctx.evaluator
        pool = MemoryPool.for_params(params, batch_size=2, word_bytes=8)
        rng = np.random.default_rng(9)
        d = _random_eval_poly(ev.q_moduli, params.n, rng)
        ks = keyswitch(d, keys.relin, ev.p_moduli, pool=pool)
        budget = max_working_set_bytes(params, batch_size=2, word_bytes=8)
        assert pool.stats["peak_bytes"] <= budget
        assert pool.stats["allocations"] == 5  # one per pipeline stage
        assert pool.stats["resets"] == 1
        # Accounting must not perturb the arithmetic.
        _assert_pair_equal(
            keyswitch_looped(d, keys.relin, ev.p_moduli), ks, set_name
        )

    def test_pool_reuse_across_calls(self):
        params = ParameterSets.toy()
        ctx = CkksContext.create(params, seed=7)
        keys = ctx.keygen()
        ev = ctx.evaluator
        pool = MemoryPool.for_params(params, batch_size=2, word_bytes=8)
        rng = np.random.default_rng(10)
        d = _random_eval_poly(ev.q_moduli, params.n, rng)
        for _ in range(3):
            keyswitch(d, keys.relin, ev.p_moduli, pool=pool)
        # The pool is reset (reused), not grown, on every operation.
        assert pool.stats["resets"] == 3
        assert pool.stats["peak_bytes"] <= pool.capacity


class TestFusedMultiplyAccumulate:
    def test_fma_matches_mul_add(self):
        moduli = ParameterSets.toy().chain().moduli
        n = 64
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            a, b, c, e = (
                _random_eval_poly(tuple(moduli), n, rng) for _ in range(4)
            )
            ref = a * b + c * e
            got = (a * b).fma_(c, e)
            assert np.array_equal(ref.data, got.data), f"seed {seed}"

    def test_fma_returns_self_in_place(self):
        moduli = tuple(ParameterSets.toy().chain().moduli)
        rng = np.random.default_rng(42)
        acc = _random_eval_poly(moduli, 64, rng)
        c = _random_eval_poly(moduli, 64, rng)
        e = _random_eval_poly(moduli, 64, rng)
        out = acc.fma_(c, e)
        assert out is acc

    def test_fma_requires_eval_domain(self):
        moduli = tuple(ParameterSets.toy().chain().moduli)
        acc = RnsPoly.zero(moduli, 64, COEFF)
        other = RnsPoly.zero(moduli, 64, COEFF)
        with pytest.raises(ValueError):
            acc.fma_(other, other)
