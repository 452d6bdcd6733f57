"""Hoisted rotate-and-sum, the HELR all-reduce built on it, and key
switching keys stored once.

:meth:`HoistedRotations.sum` must equal the looped oracle bit for bit:
every step's ``P``-scaled term from :func:`hoisted_terms_looped` (with
``P·ct`` for step 0), summed over ``Q ∪ P`` and lowered once by
:func:`mod_down_poly`. The keys it reads are views of one stack per
component, whatever level they are used at.
"""

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    CkksParams,
    hoisted_rotations,
    keyswitch,
    keyswitch_looped,
)
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.hoisting import hoisted_terms_looped, mod_down_poly
from repro.ckks.ks_common import key_level_views
from repro.ckks.poly import EVAL, RnsPoly
from repro.numtheory.rns import RNSBasis
from repro.trace.opt import observed_rotation_steps
from repro.trace.recorder import record
from repro.workloads.helr import (
    EncryptedLogisticRegression,
    allreduce_rounds,
)

#: (dnum, params, two levels): the lower level leaves the last digit
#: partly present (dnum 3: digit [4, 5] keeps only prime 4; dnum 1: the
#: single digit keeps one of its two primes).
CASES = {
    1: (CkksParams(n=64, max_level=1, num_special=2, dnum=1,
                   scale_bits=26), (1, 0)),
    3: (CkksParams(n=64, max_level=5, num_special=2, dnum=3,
                   scale_bits=26), (5, 4)),
}
STEPS = (1, 2, 3)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    params, levels = CASES[request.param]
    ctx = CkksContext.create(params, seed=10 + request.param)
    keys = ctx.keygen(rotations=list(STEPS) + [5])
    return ctx, keys, levels


def _oracle_sum(ev, ct, steps, keys):
    """The looped oracle: sum the P-scaled terms, lower once."""
    terms = hoisted_terms_looped(ev, ct, [0] + list(steps), keys)
    t0, t1 = terms[0]
    t0, t1 = t0.copy(), t1.copy()
    for step in steps:
        t0 = t0 + terms[step][0]
        t1 = t1 + terms[step][1]
    num_level = ct.level + 1
    return Ciphertext(mod_down_poly(t0, num_level),
                      mod_down_poly(t1, num_level), ct.level, ct.scale)


class TestSumBitExact:
    @pytest.mark.parametrize("steps", [STEPS, (0, 2, 5), (3,)])
    def test_matches_looped_oracle(self, case, steps):
        ctx, keys, levels = case
        ev = ctx.evaluator
        rng = np.random.default_rng(len(steps))
        for level in levels:
            ct = ctx.encrypt(rng.uniform(-1, 1, ctx.slots), keys,
                             level=level)
            got = hoisted_rotations(ev, ct, steps, keys).sum()
            want = _oracle_sum(ev, ct, [s for s in steps if s], keys)
            assert got.c0 == want.c0, f"level {level} (c0)"
            assert got.c1 == want.c1, f"level {level} (c1)"
            assert (got.level, got.scale) == (ct.level, ct.scale)

    def test_decrypts_to_rotate_and_sum(self, case):
        ctx, keys, levels = case
        values = np.arange(ctx.slots, dtype=float) / ctx.slots
        ct = ctx.encrypt(values, keys, level=levels[0])
        got = ctx.decrypt_decode_real(
            hoisted_rotations(ctx.evaluator, ct, STEPS, keys).sum(), keys)
        want = sum(np.roll(values, -s) for s in (0,) + STEPS)
        assert np.max(np.abs(got - want)) < 1e-2

    def test_no_steps_is_the_input(self, case):
        ctx, keys, _ = case
        ct = ctx.encrypt([1.0], keys)
        assert hoisted_rotations(ctx.evaluator, ct, [], keys).sum() is ct
        assert hoisted_rotations(ctx.evaluator, ct, [0], keys).sum() is ct


class TestKeysStoredOnce:
    def _arrays(self, ksk):
        return {k: v for k, v in vars(ksk).items()
                if isinstance(v, np.ndarray)}

    def test_level_views_share_the_stacks(self, case):
        """After a key switch and a hoisted call at a lower level the key
        holds the same two arrays, and every level view and digit pair
        reads them."""
        ctx, keys, levels = case
        ev = ctx.evaluator
        ksk = keys.rotation[1]
        before = self._arrays(ksk)
        assert set(before) == {"b", "a"}
        assert not ksk.b.flags.writeable and not ksk.a.flags.writeable
        ct = ctx.encrypt([0.5], keys, level=levels[1])
        ev.hrotate(ct, 1, keys)
        hoisted_rotations(ev, ct, STEPS, keys).sum()
        after = self._arrays(ksk)
        assert set(after) == set(before)
        assert all(after[k] is before[k] for k in before)
        for level in levels:
            (b_q, a_q), (b_p, a_p) = key_level_views(ksk, level + 1)
            for view, stack in ((b_q, ksk.b), (b_p, ksk.b),
                                (a_q, ksk.a), (a_p, ksk.a)):
                assert np.shares_memory(view, stack)
                assert view.base is not None
        for b_j, a_j in ksk.pairs:
            assert np.shares_memory(b_j.data, ksk.b)
            assert np.shares_memory(a_j.data, ksk.a)

    def test_level_views_pick_level_and_special_rows(self, case):
        ctx, keys, levels = case
        ksk = keys.relin
        full = len(ctx.evaluator.q_moduli)
        num_level = levels[1] + 1
        (b_q, _), (b_p, _) = key_level_views(ksk, num_level)
        present = sum(1 for d in ksk.digits if d[0] < num_level)
        assert b_q.shape == (num_level, present, ctx.params.n)
        assert np.array_equal(b_q, ksk.b[:num_level, :present])
        assert np.array_equal(b_p, ksk.b[full:, :present])

    def test_keyswitch_matches_looped_on_view_pairs(self, case):
        ctx, keys, levels = case
        ev = ctx.evaluator
        for level in levels:
            moduli = ev.q_moduli[:level + 1]
            rng = np.random.default_rng(level)
            d = RnsPoly(RNSBasis(moduli).random(ctx.params.n, rng), moduli,
                        EVAL)
            ref = keyswitch_looped(d, keys.relin, ev.p_moduli)
            got = keyswitch(d, keys.relin, ev.p_moduli)
            assert ref[0] == got[0] and ref[1] == got[1], f"level {level}"


class TestHelrAllreduce:
    @pytest.mark.parametrize("slots", [128, 2048])
    def test_required_rotations_are_the_steps_used(self, slots):
        """``required_rotations`` is exactly the set of steps the
        all-reduce rotates by (observed from its trace)."""
        params = CkksParams(n=2 * slots, max_level=1, num_special=1,
                            dnum=2, scale_bits=26)
        ctx = CkksContext.create(params, seed=1)
        required = EncryptedLogisticRegression.required_rotations(slots)
        keys = ctx.keygen(rotations=required)
        model = EncryptedLogisticRegression(ctx, keys)
        ct = ctx.encrypt([1.0], keys)
        with record("allreduce") as rec:
            model._allreduce(ct)
        assert observed_rotation_steps(rec.trace) == required
        assert len(required) == len(set(required))
        rounds = allreduce_rounds(slots)
        assert [len(r) for r in rounds][-1] == 1
        assert all(len(r) == 3 for r in rounds[:-1])
        if slots == 2048:
            assert len(required) == 16
            assert [r[0] for r in rounds] == [1, 4, 16, 64, 256, 1024]

    def test_within_sequential_error(self):
        """Every slot ends up holding the total, no less accurately than
        the radix-2 chain of sequential rotations (worst case over four
        key seeds)."""
        params = CkksParams(n=256, max_level=3, num_special=2, dnum=2,
                            scale_bits=28)
        errors = {"sequential": [], "hoisted": []}
        for seed in range(4):
            ctx = CkksContext.create(params, seed=seed)
            slots = ctx.slots
            pow2 = [1 << k for k in range(slots.bit_length() - 1)]
            required = EncryptedLogisticRegression.required_rotations(slots)
            keys = ctx.keygen(rotations=sorted(set(required) | set(pow2)))
            values = np.random.default_rng(seed).uniform(-1, 1, slots)
            ct = ctx.encrypt(values / slots, keys)
            ev = ctx.evaluator
            sequential = ct
            for step in pow2:
                sequential = ev.hadd(sequential,
                                     ev.hrotate(sequential, step, keys))
            hoisted = EncryptedLogisticRegression(ctx, keys)._allreduce(ct)
            assert hoisted.level == ct.level
            for name, out in (("sequential", sequential),
                              ("hoisted", hoisted)):
                errors[name].append(np.max(np.abs(
                    ctx.decrypt_decode_real(out, keys) - values.mean())))
        assert max(errors["hoisted"]) <= max(errors["sequential"]), errors
        assert max(errors["hoisted"]) < 1e-3
