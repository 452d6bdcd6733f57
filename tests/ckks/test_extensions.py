"""Tests for hoisted rotations, noise tracking and serialization."""

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    NoiseEstimator,
    ParameterSets,
    deserialize_ciphertext,
    deserialize_plaintext,
    hoisted_rotations,
    measured_noise_bits,
    serialize_ciphertext,
    serialize_plaintext,
)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.create(ParameterSets.toy(), seed=2)


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen(rotations=[1, 2, 5])


class TestHoistedRotations:
    def test_matches_plain_rotations(self, ctx, keys):
        vals = np.arange(ctx.slots, dtype=float) / 7
        ct = ctx.encrypt(vals, keys)
        hoisted = hoisted_rotations(
            ctx.evaluator, ct, [1, 2, 5], keys).ciphertexts()
        for step, rct in hoisted.items():
            expected = np.roll(vals, -step)
            got = ctx.decrypt_decode_real(rct, keys)
            assert np.max(np.abs(got - expected)) < 1e-3
            # And agrees with the unhoisted path to within noise.
            plain = ctx.decrypt_decode_real(
                ctx.hrotate(ct, step, keys), keys
            )
            assert np.max(np.abs(got - plain)) < 1e-4

    def test_missing_key_detected(self, ctx, keys):
        ct = ctx.encrypt([1.0], keys)
        with pytest.raises(KeyError):
            hoisted_rotations(ctx.evaluator, ct, [3], keys)

    def test_empty_steps(self, ctx, keys):
        ct = ctx.encrypt([1.0], keys)
        assert hoisted_rotations(
            ctx.evaluator, ct, [], keys).ciphertexts() == {}

    def test_works_at_lower_level(self, ctx, keys):
        vals = np.arange(ctx.slots, dtype=float) / 9
        ct = ctx.evaluator.level_down(ctx.encrypt(vals, keys), 1)
        out = hoisted_rotations(ctx.evaluator, ct, [2], keys).ciphertexts()[2]
        got = ctx.decrypt_decode_real(out, keys)
        assert np.max(np.abs(got - np.roll(vals, -2))) < 1e-3


class TestNoiseTracking:
    def test_fresh_estimate_tracks_measurement(self, ctx, keys):
        est = NoiseEstimator(ctx.params)
        vals = np.array([0.5, -0.25, 1.0])
        ct = ctx.encrypt(vals, keys)
        measured = measured_noise_bits(
            ctx.evaluator, ct, keys.secret, vals
        )
        predicted = est.fresh().noise_bits
        assert abs(measured - predicted) < 6, (
            f"measured {measured:.1f} bits vs predicted {predicted:.1f}"
        )

    def test_noise_grows_with_depth(self, ctx, keys):
        vals = np.array([0.5, -0.25, 1.0])
        ct = ctx.encrypt(vals, keys)
        n0 = measured_noise_bits(ctx.evaluator, ct, keys.secret, vals)
        sq = ctx.hmult(ct, ct, keys)
        n1 = measured_noise_bits(
            ctx.evaluator, sq, keys.secret, vals**2
        )
        # Relative noise grows; absolute coefficient noise after rescale
        # stays within a few bits of the fresh level but never collapses.
        assert n1 > 0
        assert n1 > n0 - 8

    def test_budget_decreases_per_level(self):
        params = ParameterSets.toy()
        est = NoiseEstimator(params)
        fresh = est.fresh()
        rescaled = est.rescale(
            est.mult(fresh, fresh)
        )
        assert rescaled.level == fresh.level - params.rescale_primes
        assert rescaled.budget_bits(params) < fresh.budget_bits(params)

    def test_add_combines_variances(self):
        est = NoiseEstimator(ParameterSets.toy())
        a = est.fresh()
        combined = est.add(a, a)
        assert combined.std == pytest.approx(a.std * np.sqrt(2))

    def test_rotation_adds_keyswitch_noise(self):
        est = NoiseEstimator(ParameterSets.toy())
        a = est.fresh()
        assert est.rotate(a).std > a.std


class TestSerialization:
    def test_ciphertext_roundtrip(self, ctx, keys):
        vals = np.array([1.25, -3.5, 0.75])
        ct = ctx.encrypt(vals, keys)
        blob = serialize_ciphertext(ct)
        back = deserialize_ciphertext(blob)
        assert back.level == ct.level
        assert back.scale == ct.scale
        assert np.array_equal(back.c0.data, ct.c0.data)
        # The deserialized ciphertext still decrypts.
        got = ctx.decrypt_decode_real(back, keys)
        assert np.max(np.abs(got[:3] - vals)) < 1e-4

    def test_deserialized_ct_still_computes(self, ctx, keys):
        vals = np.array([2.0, -1.0])
        ct = deserialize_ciphertext(
            serialize_ciphertext(ctx.encrypt(vals, keys))
        )
        sq = ctx.hmult(ct, ct, keys)
        got = ctx.decrypt_decode_real(sq, keys)
        assert np.max(np.abs(got[:2] - vals**2)) < 1e-3

    def test_plaintext_roundtrip(self, ctx):
        pt = ctx.encode([1.0, 2.0, 3.0])
        back = deserialize_plaintext(serialize_plaintext(pt))
        assert np.array_equal(back.poly.data, pt.poly.data)
        assert back.scale == pt.scale

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            deserialize_ciphertext(b"not a ciphertext at all")

    def test_kind_mismatch_rejected(self, ctx, keys):
        blob = serialize_ciphertext(ctx.encrypt([1.0], keys))
        with pytest.raises(ValueError):
            deserialize_plaintext(blob)

    def test_truncation_detected(self, ctx, keys):
        blob = serialize_ciphertext(ctx.encrypt([1.0], keys))
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob[: len(blob) // 2])
