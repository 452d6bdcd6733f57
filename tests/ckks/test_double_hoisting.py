"""Double-hoisted linear transforms: one fused ModDown·rescale per group.

``HoistedRotations.weighted_sum`` accumulates ``sum_s pt_s * rot_s(ct)``
over ``Q ∪ P`` and ends in one ModDown by ``P·q_l``. The suite checks it
bit-exactly against its per-step oracle across transform shapes, digit
sets, levels and both rescaling flavours; bounds its error against the
algorithm it replaced (per-step ModDown, then PMULT, then rescale); and
pins the CoeffToSlot transform rows a recorded boot-mid bootstrap spends.
"""


import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParams, ParameterSets
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.ciphertext import Plaintext
from repro.ckks.hoisting import (
    encode_extended_stack,
    hoisted_rotations,
    hoisted_terms_looped,
    weighted_sum_looped,
)
from repro.ckks.linear_transform import LinearTransform
from repro.ckks.poly import EVAL, RnsPoly
from repro.trace.recorder import record

#: Digit shapes: alpha = 1 (single-prime digits), alpha = 3, and the
#: double-prime rescaling toy (alpha = 2, rescale_primes = 2).
PARAMS = {
    "alpha1": CkksParams(n=64, max_level=5, num_special=2, dnum=6,
                         scale_bits=26, name="alpha1"),
    "alpha3": CkksParams(n=64, max_level=8, num_special=3, dnum=3,
                         scale_bits=26, name="alpha3"),
    "rescale2": ParameterSets.double_rescale_toy(),
}


@pytest.fixture(scope="module", params=sorted(PARAMS))
def setup(request):
    params = PARAMS[request.param]
    ctx = CkksContext.create(params, seed=3)
    keys = ctx.keygen(rotations=list(range(1, ctx.slots)))
    return ctx, keys


def _bit_equal(a, b):
    return (
        np.array_equal(a.c0.data, b.c0.data)
        and np.array_equal(a.c1.data, b.c1.data)
        and a.scale == b.scale
        and a.level == b.level
    )


def _levels(ctx):
    """Top, middle and lowest level that can still be rescaled."""
    top = ctx.params.max_level
    low = ctx.params.rescale_primes
    return sorted({top, (top + low) // 2, low})


class TestWeightedSumBitExact:
    @pytest.mark.parametrize("steps", [[0, 1, 5], [3, 0, 7, 2], [4]])
    def test_matches_per_step_oracle(self, setup, steps):
        ctx, keys = setup
        rng = np.random.default_rng(len(steps))
        scale = ctx.params.scale
        for level in _levels(ctx):
            ct = ctx.encrypt(rng.normal(size=ctx.slots) * 0.3, keys,
                             level=level)
            stack = encode_extended_stack(
                ctx, rng.normal(size=(len(steps), ctx.slots)), level, scale
            )
            hoisted = hoisted_rotations(ctx.evaluator, ct, steps, keys)
            got = hoisted.weighted_sum(steps, stack, scale)
            want = weighted_sum_looped(
                ctx.evaluator, ct,
                hoisted_terms_looped(ctx.evaluator, ct, steps, keys),
                steps, stack, scale,
            )
            assert got.level == level - ctx.params.rescale_primes
            assert got.scale == want.scale
            assert got.c0 == want.c0 and got.c1 == want.c1, f"level {level}"

    def test_stack_must_cover_the_extended_basis(self, setup):
        ctx, keys = setup
        ct = ctx.encrypt(np.zeros(ctx.slots), keys)
        stack = encode_extended_stack(
            ctx, np.ones((2, ctx.slots)), ct.level, ctx.params.scale
        )
        hoisted = hoisted_rotations(ctx.evaluator, ct, [0, 1], keys)
        with pytest.raises(ValueError, match="special primes"):
            hoisted.weighted_sum([0, 1], stack[:-1], ctx.params.scale)


class TestApplyEqualsLooped:
    @pytest.mark.parametrize("bsgs", [True, False])
    def test_random_matrix_every_level(self, setup, bsgs):
        ctx, keys = setup
        rng = np.random.default_rng(17)
        s = ctx.slots
        mat = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        lt = LinearTransform(ctx, mat, bsgs=bsgs)
        assert 0 in lt.compile(ctx.params.max_level).babies  # passthrough
        for level in _levels(ctx):
            ct = ctx.encrypt(rng.normal(size=s) * 0.3, keys, level=level)
            assert _bit_equal(lt.apply(ct, keys), lt.apply_looped(ct, keys))

    def test_pruned_giant_groups(self, setup):
        ctx, keys = setup
        rng = np.random.default_rng(5)
        s = ctx.slots
        mat = np.zeros((s, s))
        j = np.arange(s)
        for d in (0, 1, 2, s - 1):
            mat[j, (j + d) % s] = rng.normal(size=s)
        lt = LinearTransform(ctx, mat, bsgs=True)
        assert lt.pruned_giant_steps
        assert lt.num_giant_groups > 1  # a non-zero giant rotation remains
        ct = ctx.encrypt(rng.normal(size=s) * 0.3, keys)
        assert _bit_equal(lt.apply(ct, keys), lt.apply_looped(ct, keys))

    def test_rotations_only_group(self, setup):
        """No diagonal 0: every lane is key-switched, none passes through."""
        ctx, keys = setup
        s = ctx.slots
        mat = np.roll(np.eye(s), 3, axis=1)  # a pure rotation by 3
        lt = LinearTransform(ctx, mat, bsgs=False)
        vals = np.random.default_rng(6).normal(size=s) * 0.3
        ct = ctx.encrypt(vals, keys)
        out = lt.apply(ct, keys)
        assert _bit_equal(out, lt.apply_looped(ct, keys))
        got = ctx.decrypt_decode_real(out, keys)
        assert np.max(np.abs(got - np.roll(vals, -3))) < 1e-3


def _pre_double_hoisting_apply(lt, ct, keys):
    """The replaced algorithm: every rotation ends in its own ModDown by
    P, the diagonals multiply as PMULTs over Q, and each group pays a
    separate rescale."""
    ctx = lt.ctx
    ev = ctx.evaluator
    plan = lt.compile(ct.level)
    rotated = hoisted_rotations(ev, ct, plan.babies, keys).ciphertexts()
    num_level = ct.level + 1
    acc = None
    for g_rot, steps, stack in plan.groups:
        inner = None
        for i, b in enumerate(steps):
            pt = Plaintext(
                poly=RnsPoly(np.ascontiguousarray(stack[:num_level, i]),
                             ct.moduli, EVAL),
                scale=plan.pt_scale, level=ct.level,
            )
            term = ev.pmult(rotated[b], pt)
            inner = term if inner is None else ev.hadd(inner, term)
        inner = ev.rescale(inner)
        if g_rot:
            inner = ev.hrotate(inner, g_rot, keys)
        acc = inner if acc is None else ev.hadd_matched(acc, inner)
    return acc


#: Allowed excess of the fused tail's worst slot error over the replaced
#: algorithm's: 10% of the old worst error. Both are dominated by the
#: input ciphertext's noise; the fused tail only removes rounding terms.
ERROR_MARGIN = 0.10


class TestErrorBound:
    @pytest.mark.parametrize("bsgs", [True, False])
    def test_no_worse_than_per_step_moddown(self, setup, bsgs):
        ctx, keys = setup
        s = ctx.slots
        new_worst = old_worst = 0.0
        for seed in range(4):
            rng = np.random.default_rng(200 + seed)
            mat = rng.normal(size=(s, s)) * 0.5
            lt = LinearTransform(ctx, mat, bsgs=bsgs)
            vals = rng.uniform(-1, 1, size=s)
            ct = ctx.encrypt(vals, keys)
            want = mat @ vals
            new = ctx.decrypt_decode_real(lt.apply(ct, keys), keys)
            old = ctx.decrypt_decode_real(
                _pre_double_hoisting_apply(lt, ct, keys), keys)
            new_worst = max(new_worst, np.max(np.abs(new - want)))
            old_worst = max(old_worst, np.max(np.abs(old - want)))
        assert new_worst <= old_worst * (1 + ERROR_MARGIN), (
            new_worst, old_worst)


class TestBootMidCoeffToSlotRows:
    """CoeffToSlot of the boot-mid bootstrap (n=2^9, 16 levels, fuse=2):
    per-step tails spent 3024 NTT+INTT rows; one fused tail per stage
    leaves 1672."""

    def test_recorded_cts_transform_rows(self):
        params = CkksParams(n=512, max_level=16, num_special=2, dnum=17,
                            scale_bits=26, secret_hamming_weight=8)
        ctx = CkksContext.create(params, seed=0)
        boot = Bootstrapper(ctx, BootstrapConfig(
            sine_degree=63, eval_range=4.5, fft_factored=True, fuse=2))
        keys = ctx.keygen(rotations=boot.required_rotations(),
                          conjugation=True)
        vals = np.random.default_rng(1).uniform(-0.75, 0.75, ctx.slots)
        ct = ctx.encrypt(vals, keys, level=boot.stc_levels)
        ct = boot.slot_to_coeff(ct, keys)
        raised = boot.mod_raise(ctx.evaluator.level_down(ct, 0))
        with record("cts", params=params) as rec:
            boot.coeff_to_slot(raised, keys)
        rows = sum(e.shape["rows"] for e in rec.trace.events
                   if e.kind in ("ntt", "intt"))
        assert rows <= 1700, rows  # 1672 at this commit
        assert not any(e.kind == "divide" for e in rec.trace.events)
        fused = [e for e in rec.trace.events
                 if e.kind == "moddown" and e.shape.get("drop")]
        assert len(fused) == len(boot._cts_stages)
