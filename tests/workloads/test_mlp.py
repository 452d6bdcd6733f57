"""Tests for encrypted MLP inference."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams
from repro.workloads.mlp import (
    DenseLayer,
    EncryptedMlp,
    plaintext_mlp,
    random_mlp,
)


@pytest.fixture(scope="module")
def ctx():
    params = CkksParams(n=64, max_level=12, num_special=2, dnum=13,
                        scale_bits=26, name="mlp-toy")
    return CkksContext.create(params, seed=17)


@pytest.fixture(scope="module")
def network(ctx):
    rng = np.random.default_rng(4)
    layers = random_mlp(rng, [8, 6, 3])
    mlp = EncryptedMlp(ctx, layers)
    keys = ctx.keygen(rotations=mlp.required_rotations())
    return layers, mlp, keys


class TestEncryptedMlp:
    def test_matches_plaintext(self, ctx, network):
        layers, mlp, keys = network
        rng = np.random.default_rng(9)
        x = rng.normal(size=8) * 0.5
        vec = np.zeros(ctx.slots)
        vec[:8] = x
        out = mlp.infer(ctx.encrypt(vec, keys), keys)
        got = ctx.decrypt_decode_real(out, keys)[:3]
        assert np.max(np.abs(got - plaintext_mlp(layers, x))) < 2e-3

    def test_multiple_inputs_consistent(self, ctx, network):
        layers, mlp, keys = network
        rng = np.random.default_rng(10)
        for _ in range(3):
            x = rng.normal(size=8) * 0.4
            vec = np.zeros(ctx.slots)
            vec[:8] = x
            out = mlp.infer(ctx.encrypt(vec, keys), keys)
            got = ctx.decrypt_decode_real(out, keys)[:3]
            assert np.max(np.abs(got - plaintext_mlp(layers, x))) < 2e-3

    def test_levels_accounting(self, ctx, network):
        _, mlp, _ = network
        # 2 transforms + 1 deg-3 BSGS activation (2 levels): 2 + 2 = 4.
        assert mlp.levels_needed() == 4

    def test_depth_consumed_matches(self, ctx, network):
        layers, mlp, keys = network
        vec = np.zeros(ctx.slots)
        ct = ctx.encrypt(vec, keys)
        out = mlp.infer(ct, keys)
        assert ct.level - out.level == mlp.levels_needed()

    def test_oversized_layer_rejected(self, ctx):
        with pytest.raises(ValueError):
            EncryptedMlp(ctx, [DenseLayer(
                weights=np.zeros((ctx.slots + 1, 4)), bias=np.zeros(4)
            )])

    def test_linear_only_network(self, ctx):
        """A single linear layer is just an encrypted mat-vec."""
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 6)) * 0.3
        b = rng.normal(size=4) * 0.1
        mlp = EncryptedMlp(ctx, [DenseLayer(w, b, activate=False)])
        keys = ctx.keygen(rotations=mlp.required_rotations())
        x = rng.normal(size=6) * 0.5
        vec = np.zeros(ctx.slots)
        vec[:6] = x
        out = mlp.infer(ctx.encrypt(vec, keys), keys)
        got = ctx.decrypt_decode_real(out, keys)[:4]
        assert np.max(np.abs(got - (w @ x + b))) < 1e-3
