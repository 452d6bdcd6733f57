"""Baby-step/giant-step Chebyshev evaluation: accuracy, counts, scales.

``numpy.polynomial.chebyshev.chebval`` is the oracle; the plan
(:func:`repro.ckks.polyeval.chebyshev_plan`) is the count authority the
evaluator and the hand-counted EvalMod schedule share.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from repro.ckks import CkksContext, CkksParams
from repro.ckks.ops import Evaluator
from repro.ckks.polyeval import (
    COEFF_EPSILON,
    PolynomialEvaluator,
    chebyshev_plan,
)

#: Degrees evaluated functionally: every split shape (power-of-two
#: boundaries on both sides, fold at exactly 2^j) up to the 127 cap.
DEGREES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
           100, 127)
KINDS = ("dense", "odd", "sparse")


def _coeffs(degree, kind, seed=0):
    rng = np.random.default_rng([degree, KINDS.index(kind), seed])
    c = rng.uniform(-1, 1, degree + 1) / (1 + np.arange(degree + 1))
    if kind == "odd":
        c[::2] = 0.0
    elif kind == "sparse":
        c[rng.uniform(size=degree + 1) < 0.7] = 0.0
    c[degree] = 0.5
    return c


def _support(c):
    return np.flatnonzero(np.abs(c) >= COEFF_EPSILON)


def _old_output_depth(degree):
    """Levels the one-term-at-a-time recurrence sum consumed."""
    return math.ceil(math.log2(degree)) + 1


@pytest.fixture(scope="module")
def deep():
    ctx = CkksContext.create(
        CkksParams(n=64, max_level=10, num_special=2, dnum=11,
                   scale_bits=26, name="deep-toy"),
        seed=3,
    )
    return ctx, ctx.keygen(), PolynomialEvaluator(ctx.evaluator)


@pytest.fixture
def op_log(monkeypatch):
    """Counts HMULTs and records every scalar PMULT's (value, scale)."""
    log = {"hmult": 0, "scalars": []}
    hmult, pmult_scalar = Evaluator.hmult, Evaluator.pmult_scalar

    def counting_hmult(self, *args, **kwargs):
        log["hmult"] += 1
        return hmult(self, *args, **kwargs)

    def logging_pmult_scalar(self, ct, value, *, scale=None):
        s = self.params.scale if scale is None else scale
        log["scalars"].append((value, s))
        return pmult_scalar(self, ct, value, scale=scale)

    monkeypatch.setattr(Evaluator, "hmult", counting_hmult)
    monkeypatch.setattr(Evaluator, "pmult_scalar", logging_pmult_scalar)
    return log


class TestPlan:
    @pytest.mark.parametrize("kind", KINDS)
    def test_hmults_within_bsgs_bound(self, kind):
        for d in range(2, 128):
            plan = chebyshev_plan(_support(_coeffs(d, kind)))
            assert len(plan.hmult_depths) <= 2 * math.sqrt(d) + math.log2(d)

    @pytest.mark.parametrize("kind", KINDS)
    def test_depth_never_exceeds_the_recurrence_sum(self, kind):
        for d in range(1, 128):
            plan = chebyshev_plan(_support(_coeffs(d, kind)))
            assert plan.depth <= _old_output_depth(d)
            assert max(plan.hmult_depths, default=0) < plan.depth

    def test_baby_step_size(self):
        assert chebyshev_plan(range(64)).baby == 8
        assert chebyshev_plan(range(128)).baby == 16
        assert chebyshev_plan(range(1, 64, 2)).baby == 8

    def test_odd_degree_63_sine_counts(self):
        plan = chebyshev_plan(range(1, 64, 2))
        # T_2, T_3, T_4, T_5, T_7, T_8, T_16, T_32 and 7 combines.
        assert len(plan.hmult_depths) == 15
        assert plan.depth == 7


class TestAgainstChebval:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("degree", DEGREES)
    def test_matches_chebval(self, deep, op_log, degree, kind):
        ctx, keys, pe = deep
        x = np.random.default_rng(degree).uniform(-1, 1, ctx.slots)
        ct = ctx.encrypt(x, keys)
        c = _coeffs(degree, kind)
        plan = chebyshev_plan(_support(c))

        out = pe.eval_chebyshev(ct, c, keys)

        got = ctx.decrypt_decode_real(out, keys)
        err = np.max(np.abs(got - npcheb.chebval(x, c)))
        # CKKS noise on T_i grows with |T_i'| <= i^2.
        i = np.arange(degree + 1)
        assert err < 1e-4 * np.sum(np.abs(c) * (1 + i**2))
        assert op_log["hmult"] == len(plan.hmult_depths)
        assert len(op_log["scalars"]) == len(plan.pmult_depths)
        assert ct.level - out.level == plan.depth
        assert ct.level - out.level <= _old_output_depth(degree)
        assert out.scale == pytest.approx(ctx.params.scale, rel=1e-12)

    def test_no_lossy_scale_matching(self, deep, op_log):
        """Every scalar constant the evaluator encodes is represented to
        within 2^-20 — no ratio-~1 scale match rounding to multiplier 1."""
        ctx, keys, pe = deep
        ct = ctx.encrypt([0.3, -0.7], keys)
        pe.eval_chebyshev(ct, _coeffs(63, "dense"), keys)
        assert op_log["scalars"]
        for value, scale in op_log["scalars"]:
            assert scale >= 2
            assert abs(round(value * scale) / scale - value) <= 2**-20


def test_boot_mid_bootstrap_error():
    """The perfbench boot-mid bootstrap (n=2^9, deg-63 sine) stays
    within 0.02 of every slot; the recurrence sum managed ~0.1."""
    from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper

    ctx = CkksContext.create(
        CkksParams(n=512, max_level=16, num_special=2, dnum=17,
                   scale_bits=26, secret_hamming_weight=8),
        seed=0,
    )
    boot = Bootstrapper(ctx, BootstrapConfig(
        sine_degree=63, eval_range=4.5, fft_factored=True, fuse=2))
    keys = ctx.keygen(rotations=boot.required_rotations(),
                      conjugation=True)
    vals = np.random.default_rng(31).uniform(-0.75, 0.75, ctx.slots)
    out = boot.bootstrap(ctx.encrypt(vals, keys, level=boot.stc_levels),
                         keys)
    assert np.max(np.abs(ctx.decrypt_decode_real(out, keys) - vals)) <= 0.02


def test_recorded_eval_mod_issues_the_hand_counted_hmults():
    """The recorded Boot EvalMod and the hand count price one plan."""
    from repro.ckks.params import ParameterSets
    from repro.workloads import record_bootstrap_trace
    from repro.workloads.bootstrap_workload import eval_mod_schedule

    trace = record_bootstrap_trace()
    recorded = sum(1 for e in trace.events
                   if e.kind == "tensor_product" and e.group == "EvalMod")
    hand = eval_mod_schedule(ParameterSets.boot().max_level - 3)
    assert recorded == hand.op_counts()["hmult"] == len(
        chebyshev_plan(range(1, 64, 2)).hmult_depths)
