"""Tests for the PE plan facade, the memory pool and the framework."""

import pytest

from repro.ckks import ParameterSets
from repro.core import (
    HOMOMORPHIC_OPS,
    MemoryPool,
    OperationScheduler,
    WarpDriveFramework,
    max_working_set_bytes,
)
from repro.core import scheduler as scheduler_mod

PARAMS = ParameterSets.set_c()


@pytest.fixture(scope="module")
def sched():
    return OperationScheduler(PARAMS)


def modup(scheduler, level):
    [spec] = [k for k in scheduler.plan("keyswitch", level=level)
              if k.name.endswith(".modup")]
    return spec


class TestPeKeySwitch:
    def test_eleven_kernels_at_every_level(self, sched):
        """Table IX: WarpDrive KeySwitch is always 11 kernels."""
        for level in (2, PARAMS.max_level // 2, PARAMS.max_level):
            assert sched.kernel_count("keyswitch", level=level) == 11

    def test_eleven_kernels_at_every_set(self):
        for name in ("SET-C", "SET-D", "SET-E", "Boot"):
            s = OperationScheduler(ParameterSets.by_name(name))
            assert s.kernel_count("keyswitch") == 11

    def test_level_out_of_range(self, sched):
        with pytest.raises(ValueError, match="outside"):
            sched.plan("keyswitch", level=99)

    def test_active_digits_shrink_with_level(self):
        """ModUp's grid carries only the digits present at the level."""
        boot = OperationScheduler(ParameterSets.boot())
        full = modup(boot, boot.params.max_level)
        low = modup(boot, 1)
        assert low.blocks < full.blocks
        assert low.blocks >= 1


class TestOperationPlans:
    def test_all_ops_have_plans(self, sched):
        for op in HOMOMORPHIC_OPS:
            plan = sched.plan(op)
            assert len(plan) >= 1

    def test_unknown_op(self, sched):
        with pytest.raises(ValueError):
            sched.plan("hdivide")

    def test_hadd_is_one_kernel(self, sched):
        assert sched.kernel_count("hadd") == 1

    def test_hmult_includes_keyswitch_and_rescale(self, sched):
        names = [k.name for k in sched.plan("hmult")]
        assert any(n.startswith("keyswitch.") for n in names)
        assert any("rescale" in n for n in names)

    def test_latency_ordering(self, sched):
        """HMULT > HROTATE > RESCALE > HADD (Table VIII ordering)."""
        hmult = sched.latency_us("hmult")
        hrot = sched.latency_us("hrotate")
        resc = sched.latency_us("rescale")
        hadd = sched.latency_us("hadd")
        assert hmult > hrot > resc > hadd

    def test_lower_level_is_faster(self, sched):
        assert (
            sched.latency_us("hmult", level=2)
            < sched.latency_us("hmult", level=PARAMS.max_level)
        )

    def test_batching_improves_amortized_latency(self, sched):
        assert (
            sched.latency_us("hmult", batch=16)
            < sched.latency_us("hmult", batch=1)
        )

    def test_profile_fields(self, sched):
        prof = sched.profile("keyswitch")
        assert prof["kernels"] == 11
        assert 0 < prof["compute_util"] <= 100
        assert 0 < prof["memory_util"] <= 100


def _points(params):
    return [(level, batch) for level in (params.max_level, 1)
            for batch in (1, 16)]


@pytest.mark.parametrize("name", ["SET-C", "Boot"])
class TestLoweredPlans:
    """Every plan is the PE lowering of the recorded functional op."""

    def test_keyswitch_is_eleven_kernels(self, name):
        s = OperationScheduler(ParameterSets.by_name(name))
        for level, batch in _points(s.params):
            assert len(s.plan("keyswitch", level=level, batch=batch)) == 11

    def test_rescale_is_three_kernels(self, name):
        # INTT, divide, NTT: at N = 2^16 the dual-kernel NTT stages
        # merge into one PE launch, as inside the KeySwitch.
        s = OperationScheduler(ParameterSets.by_name(name))
        for level, batch in _points(s.params):
            plan = s.plan("rescale", level=level, batch=batch)
            assert [k.name for k in plan] == [
                "rescale.intt", "rescale.divide", "rescale.ntt"]

    def test_hmult_is_tensor_keyswitch_rescale(self, name):
        s = OperationScheduler(ParameterSets.by_name(name))
        for level, batch in _points(s.params):
            hmult = s.plan("hmult", level=level, batch=batch)
            ks = s.plan("keyswitch", level=level, batch=batch)
            resc = s.plan("rescale", level=level, batch=batch)
            assert hmult[0].name == "hmult.tensor_product"
            assert len(hmult) == 1 + len(ks) + len(resc)
            assert [k.blocks for k in hmult[1:]] == \
                [k.blocks for k in ks + resc]

    def test_second_plan_records_nothing(self, name, monkeypatch):
        s = OperationScheduler(ParameterSets.by_name(name))
        s.plan("hrotate", level=1)

        def fail(*args, **kwargs):
            raise AssertionError("plan() recorded again")

        monkeypatch.setattr(scheduler_mod, "record", fail)
        s.plan("hrotate", level=1)
        # A fresh scheduler on the same chain reuses the recording too.
        OperationScheduler(ParameterSets.by_name(name)).plan(
            "hrotate", level=1)


def test_construction_records_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("constructing a scheduler recorded")

    monkeypatch.setattr(scheduler_mod, "record", fail)
    OperationScheduler(ParameterSets.aes())


class TestLevelCheck:
    def test_negative_and_above_top_levels_raise(self, sched):
        for level in (-1, PARAMS.max_level + 1):
            with pytest.raises(ValueError, match="outside"):
                sched.plan("hadd", level=level)

    def test_rescale_below_rescale_primes_raises(self):
        s = OperationScheduler(ParameterSets.double_rescale_toy())
        for op in ("rescale", "hmult"):
            with pytest.raises(ValueError, match="cannot drop"):
                s.plan(op, level=1)
            assert s.kernel_count(op, level=2) >= 3

    def test_rescale_at_level_zero_raises(self, sched):
        with pytest.raises(ValueError, match="cannot drop"):
            sched.plan("rescale", level=0)

    def test_rescale_far_above_top_raises(self, sched):
        with pytest.raises(ValueError, match="outside"):
            sched.plan("rescale", level=99)


class TestMemoryPool:
    def test_s_max_formula(self):
        p = ParameterSets.toy()
        expected = (
            p.max_level * p.n * p.dnum
            * (p.max_level + p.num_special) * 1 * 4
        )
        assert max_working_set_bytes(p) == expected

    def test_pool_capped_by_available(self):
        pool = MemoryPool.for_params(
            ParameterSets.set_e(), available_bytes=1 << 20
        )
        assert pool.capacity == 1 << 20

    def test_allocate_and_reset(self):
        pool = MemoryPool(4096)
        a = pool.allocate(100, "a")
        b = pool.allocate(200, "b")
        assert b.offset >= a.size
        assert pool.in_use > 0
        pool.reset()
        assert pool.in_use == 0
        assert pool.stats["resets"] == 1

    def test_exhaustion(self):
        pool = MemoryPool(1024)
        with pytest.raises(MemoryError):
            pool.allocate(2048)

    def test_release_oldest_frees_its_bytes(self):
        # FIFO completion order — the serving fleet's only order — must
        # return memory immediately, not only when the pool drains.
        pool = MemoryPool(4096)
        a = pool.allocate(256, "a")
        pool.allocate(256, "b")
        pool.allocate(256, "c")
        before = pool.in_use
        pool.release(a)
        assert pool.in_use == before - a.size
        assert pool.fits(3328)  # all remaining capacity is allocatable

    def test_fifo_stream_never_ratchets(self):
        # A bounded pool sustains an unbounded stream of allocate /
        # release-oldest pairs (the admission-ledger steady state).
        pool = MemoryPool(1024)
        live = [pool.allocate(256) for _ in range(4)]
        for _ in range(64):
            pool.release(live.pop(0))
            live.append(pool.allocate(256))
        assert pool.in_use == 4 * 256

    def test_freed_gap_is_reused(self):
        pool = MemoryPool(1024)
        a = pool.allocate(256, "a")
        pool.allocate(256, "b")
        pool.release(a)
        c = pool.allocate(256, "c")
        assert c.offset == 0  # first fit lands in the freed gap

    def test_release_non_live_rejected(self):
        pool = MemoryPool(1024)
        a = pool.allocate(100, "a")
        pool.release(a)
        with pytest.raises(ValueError, match="not live"):
            pool.release(a)

    def test_alignment(self):
        pool = MemoryPool(4096)
        a = pool.allocate(1)
        assert a.size == 256

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            MemoryPool(0)
        with pytest.raises(ValueError):
            MemoryPool(1024).allocate(0)


class TestFramework:
    @pytest.fixture(scope="class")
    def fw(self):
        return WarpDriveFramework(ParameterSets.set_c())

    def test_describe_mentions_key_facts(self, fw):
        text = fw.describe()
        assert "SET-C" in text
        assert "wd-fuse" in text
        assert "256" in text

    def test_threads_per_block_rule(self, fw):
        # T = C * W * 32 = 4 * 2 * 32 = 256 on the A100.
        assert fw.geometry.threads_per_block == 256

    def test_dual_kernel_flag(self):
        assert WarpDriveFramework(ParameterSets.set_e()).config.dual_kernel_ntt
        assert not WarpDriveFramework(
            ParameterSets.set_c()
        ).config.dual_kernel_ntt

    def test_op_latency(self, fw):
        assert fw.op_latency_us("hadd") < fw.op_latency_us("hmult")

    def test_ntt_throughput(self, fw):
        assert fw.ntt_throughput_kops(256) > 0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            WarpDriveFramework(ParameterSets.set_c(), ntt_variant="bogus")

    def test_supported_ops(self):
        assert "hmult" in WarpDriveFramework.supported_ops()

    def test_functional_context_roundtrip(self):
        import numpy as np

        fw = WarpDriveFramework(ParameterSets.toy())
        ctx = fw.context(seed=3)
        keys = ctx.keygen()
        ct = ctx.encrypt([1.0, -2.0], keys)
        dec = ctx.decrypt_decode_real(ct, keys)
        assert np.max(np.abs(dec[:2] - [1.0, -2.0])) < 1e-3
