"""Tests for the polynomial evaluator and linear transforms."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from repro.ckks import CkksContext, ParameterSets
from repro.ckks.linear_transform import LinearTransform
from repro.ckks.polyeval import PolynomialEvaluator


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.create(ParameterSets.toy(), seed=13)


@pytest.fixture(scope="module")
def keys(ctx):
    steps = sorted(
        set(range(1, 6)) | {5, 10, 15, 20, 25, 30} | {1, 2, 4, 8, 16}
    )
    return ctx.keygen(rotations=steps)


@pytest.fixture(scope="module")
def pe(ctx):
    return PolynomialEvaluator(ctx.evaluator)


class TestChebyshevEvaluation:
    def test_linear_polynomial(self, ctx, keys, pe):
        x = np.array([0.5, -0.3, 0.9, 0.0])
        ct = ctx.encrypt(x, keys)
        # 2*T_0 + 3*T_1 = 2 + 3x
        out = pe.eval_chebyshev(ct, [2.0, 3.0], keys)
        got = ctx.decrypt_decode_real(out, keys)[:4]
        assert np.max(np.abs(got - (2 + 3 * x))) < 1e-3

    def test_t2(self, ctx, keys, pe):
        x = np.array([0.5, -0.3, 0.9, 0.0])
        ct = ctx.encrypt(x, keys)
        out = pe.eval_chebyshev(ct, [0.0, 0.0, 1.0], keys)
        got = ctx.decrypt_decode_real(out, keys)[:4]
        assert np.max(np.abs(got - (2 * x**2 - 1))) < 1e-3

    def test_degree_seven_fit(self):
        # Degree 7 needs ~4 levels; use a deeper toy chain.
        from repro.ckks import CkksParams

        deep = CkksContext.create(
            CkksParams(n=64, max_level=8, num_special=2, dnum=5,
                       scale_bits=26, name="deep-toy"),
            seed=14,
        )
        keys = deep.keygen()
        pe = PolynomialEvaluator(deep.evaluator)
        coeffs = PolynomialEvaluator.chebyshev_fit(np.tanh, 7)
        x = np.linspace(-0.9, 0.9, 8)
        ct = deep.encrypt(x, keys)
        out = pe.eval_chebyshev(ct, coeffs, keys)
        got = deep.decrypt_decode_real(out, keys)[:8]
        reference = npcheb.Chebyshev(coeffs)(x)
        assert np.max(np.abs(got - reference)) < 5e-3

    def test_constant_polynomial(self, ctx, keys, pe):
        ct = ctx.encrypt([0.5], keys)
        out = pe.eval_chebyshev(ct, [1.25], keys)
        got = ctx.decrypt_decode_real(out, keys)[0]
        assert abs(got - 1.25) < 1e-3

    def test_empty_rejected(self, ctx, keys, pe):
        ct = ctx.encrypt([0.5], keys)
        with pytest.raises(ValueError):
            pe.eval_chebyshev(ct, [], keys)


class TestPowerEvaluation:
    def test_cubic(self, ctx, keys, pe):
        x = np.array([0.5, -0.4, 0.25])
        ct = ctx.encrypt(x, keys)
        # 1 + 2x - x^3
        out = pe.eval_power(ct, [1.0, 2.0, 0.0, -1.0], keys)
        got = ctx.decrypt_decode_real(out, keys)[:3]
        assert np.max(np.abs(got - (1 + 2 * x - x**3))) < 2e-3

    def test_lands_exactly_on_delta(self, ctx, keys, pe):
        """The leaf accumulator adds every term at one scale: no scale
        matching, and the rescaled result sits on Delta exactly."""
        x = np.array([0.5, -0.4, 0.25])
        out = pe.eval_power(ctx.encrypt(x, keys), [0.5, 0.0, 1.0, 0.3], keys)
        assert out.scale == pytest.approx(ctx.params.scale, rel=1e-12)
        got = ctx.decrypt_decode_real(out, keys)[:3]
        assert np.max(np.abs(got - (0.5 + x**2 + 0.3 * x**3))) < 2e-3

    def test_agrees_with_chebyshev_form(self, ctx, keys, pe):
        """p(x) = x^2 expressed in both bases gives the same result."""
        x = np.array([0.3, -0.6])
        ct = ctx.encrypt(x, keys)
        power = pe.eval_power(ct, [0.0, 0.0, 1.0], keys)
        cheb = pe.eval_chebyshev(ct, [0.5, 0.0, 0.5], keys)  # (1+T2)/2
        a = ctx.decrypt_decode_real(power, keys)[:2]
        b = ctx.decrypt_decode_real(cheb, keys)[:2]
        assert np.max(np.abs(a - b)) < 2e-3


class TestLinearTransform:
    @pytest.fixture(scope="class")
    def matrix(self, ctx):
        rng = np.random.default_rng(5)
        return (rng.normal(size=(ctx.slots, ctx.slots)) * 0.25
                + 1j * rng.normal(size=(ctx.slots, ctx.slots)) * 0.1)

    def test_bsgs_matches_reference(self, ctx, matrix):
        lt = LinearTransform(ctx, matrix, bsgs=True)
        keys = ctx.keygen(rotations=lt.required_rotations())
        x = np.random.default_rng(6).normal(size=ctx.slots) * 0.5
        ct = ctx.encrypt(x, keys)
        got = ctx.decrypt_decode(lt.apply(ct, keys), keys)
        assert np.max(np.abs(got - matrix @ x)) < 1e-3

    def test_diagonal_matches_reference(self, ctx, matrix):
        lt = LinearTransform(ctx, matrix, bsgs=False)
        keys = ctx.keygen(rotations=lt.required_rotations())
        x = np.random.default_rng(7).normal(size=ctx.slots) * 0.5
        ct = ctx.encrypt(x, keys)
        got = ctx.decrypt_decode(lt.apply(ct, keys), keys)
        assert np.max(np.abs(got - matrix @ x)) < 1e-3

    def test_bsgs_needs_fewer_keys(self, ctx, matrix):
        bsgs = LinearTransform(ctx, matrix, bsgs=True)
        plain = LinearTransform(ctx, matrix, bsgs=False)
        assert (len(bsgs.required_rotations())
                < len(plain.required_rotations()))

    def test_sparse_matrix_skips_zero_diagonals(self, ctx):
        identity = np.eye(ctx.slots, dtype=complex) * 2.0
        lt = LinearTransform(ctx, identity, bsgs=False)
        assert lt.required_rotations() == []  # only diagonal 0
        keys = ctx.keygen()
        x = np.arange(ctx.slots, dtype=float) / 10
        got = ctx.decrypt_decode_real(
            lt.apply(ctx.encrypt(x, keys), keys), keys
        )
        assert np.max(np.abs(got - 2 * x)) < 1e-3

    def test_shape_validation(self, ctx):
        with pytest.raises(ValueError):
            LinearTransform(ctx, np.eye(3))

    def test_zero_matrix_rejected(self, ctx):
        with pytest.raises(ValueError):
            LinearTransform(ctx, np.zeros((ctx.slots, ctx.slots)))
