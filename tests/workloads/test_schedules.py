"""Tests for workload schedules and their pricing."""

import re

import pytest

from repro.ckks import ParameterSets
from repro.core import OperationScheduler
from repro.workloads import (
    HOISTED,
    Discount,
    WorkloadSchedule,
    bootstrap_schedule,
    helr_iteration_schedule,
    resnet20_schedule,
    simulate_bootstrap,
    simulate_helr_iteration,
    simulate_resnet20,
    simulate_transcipher,
    transcipher_schedule,
)
from repro.workloads.aes_transcipher import _BOOTS_PER_ROUND
from repro.workloads.bootstrap_workload import linear_transform_schedule
from repro.workloads.recorded import derived_hoisted_rotation_factor


@pytest.fixture(scope="module")
def boot_sched():
    return OperationScheduler(ParameterSets.boot())


class TestScheduleContainer:
    def test_add_and_counts(self):
        s = WorkloadSchedule("t").add("hmult", 3, 2).add("hadd", 3, 5)
        counts = s.op_counts()
        assert counts == {"hmult": 2, "hadd": 5}

    def test_extend(self):
        a = WorkloadSchedule("a").add("hadd", 1, 1)
        b = WorkloadSchedule("b").add("hmult", 1, 1)
        a.extend(b)
        assert len(a.items) == 2

    def test_hoisted_rotations_are_cheaper(self, boot_sched):
        full = WorkloadSchedule("f").add("hrotate", 10, 10)
        hoisted = WorkloadSchedule("h").add("hrotate", 10, 10,
                                           discount=HOISTED)
        assert (
            hoisted.price(boot_sched).total_us
            < full.price(boot_sched).total_us
        )

    def test_price_caches_per_op_level(self, boot_sched):
        s = WorkloadSchedule("t")
        for _ in range(50):
            s.add("hadd", 5, 1)
        timing = s.price(boot_sched)
        assert timing.total_us > 0

    def test_timing_conversions(self, boot_sched):
        t = WorkloadSchedule("t").add("hadd", 5, 1).price(boot_sched,
                                                          batch=4)
        assert t.total_ms == pytest.approx(t.total_us / 1e3)
        assert t.amortized_ms == pytest.approx(t.total_ms / 4)


class TestBootstrapSchedule:
    def test_contains_all_stages(self):
        sched = bootstrap_schedule()
        notes = {i.note for i in sched.items}
        assert any("StC" in n for n in notes)
        assert any("CtS" in n for n in notes)
        assert any("EvalMod" in n for n in notes)
        assert any("ModRaise" in n for n in notes)

    def test_uses_core_ops_only(self):
        from repro.core.scheduler import HOMOMORPHIC_OPS

        for item in bootstrap_schedule().items:
            assert item.op in HOMOMORPHIC_OPS

    def test_simulated_time_in_range(self, boot_sched):
        """Paper: 121 ms at BS=1; the simulator's documented optimism is
        ~2x, so accept 20-200 ms."""
        t = simulate_bootstrap(scheduler=boot_sched)
        assert 20 < t.total_ms < 200

    def test_batching_amortizes(self, boot_sched):
        t1 = simulate_bootstrap(scheduler=boot_sched, batch=1)
        t16 = simulate_bootstrap(scheduler=boot_sched, batch=16)
        assert t16.amortized_ms < t1.amortized_ms


class TestHelrSchedule:
    def test_iteration_has_sigmoid_and_boot(self):
        notes = {i.note for i in helr_iteration_schedule().items}
        assert any("sigmoid" in n for n in notes)
        assert any("boot" in n for n in notes)

    def test_time_comparable_to_boot(self):
        """Paper: HELR 113 ms/iter vs Boot 121 ms — same scale."""
        helr = simulate_helr_iteration()
        boot = simulate_bootstrap()
        assert 0.5 < helr.total_ms / boot.total_ms < 2.5


class TestResnetSchedule:
    def test_includes_bootstraps(self):
        notes = {i.note for i in resnet20_schedule().items}
        assert any(n.startswith("boot") for n in notes)

    def test_all_stages_present(self):
        notes = {i.note for i in resnet20_schedule().items}
        assert any("stem" in n for n in notes)
        assert any("s2b2" in n for n in notes)
        assert any("fc" in n for n in notes)

    def test_total_seconds_in_range(self):
        """Paper: 5.88 s at BS=1; accept 1-12 s given sim optimism."""
        t = simulate_resnet20()
        assert 1.0 < t.total_s < 12.0

    def test_resnet_much_slower_than_boot(self):
        assert simulate_resnet20().total_us > 10 * simulate_bootstrap(
        ).total_us


class TestTranscipherSchedule:
    def test_ten_rounds(self):
        notes = {i.note for i in transcipher_schedule().items}
        for rnd in range(10):
            assert any(n.startswith(f"round{rnd}.") for n in notes)

    def test_latency_in_range(self):
        """Paper: 3.5 min; accept 0.7-7 given sim optimism."""
        r = simulate_transcipher()
        assert 0.7 < r.latency_min < 7.0

    def test_beats_cpu_baseline(self):
        from repro.workloads import cpu_transcipher_minutes

        r = simulate_transcipher()
        assert cpu_transcipher_minutes() / r.latency_min > 10

    def test_throughput_metric(self):
        r = simulate_transcipher()
        assert r.throughput_kb_per_s > 0


def _price_items(items, scheduler):
    sched = WorkloadSchedule("part")
    sched.items.extend(items)
    return sched.price(scheduler).total_us


class TestEmbeddedBootstrap:
    """A workload's bootstrap items are ``bootstrap_schedule``'s items
    scaled by how often the workload bootstraps — discounts included."""

    @pytest.mark.parametrize("name, build, prefix, per_boot", [
        ("HELR", helr_iteration_schedule, r"boot\.", 1 / 2),
        ("ResNet", resnet20_schedule, r"boot\d+\.", 2),
        ("AES", transcipher_schedule, r"round\d+\.boot\.",
         _BOOTS_PER_ROUND),
    ], ids=["HELR", "ResNet", "AES"])
    def test_boot_items_price_as_scaled_bootstrap(self, name, build,
                                                  prefix, per_boot):
        params = ParameterSets.by_name(name)
        scheduler = OperationScheduler(params)
        boot = bootstrap_schedule(params)
        items = [i for i in build(params).items
                 if re.match(prefix, i.note)]
        copies = len(items) / len(boot.items)
        assert copies == int(copies) and copies >= 1
        for got, want in zip(items, boot.items * int(copies)):
            assert (got.op, got.level, got.discount) == (
                want.op, want.level, want.discount)
        assert _price_items(items, scheduler) == pytest.approx(
            copies * per_boot * boot.price(scheduler).total_us)


class TestLinearTransformSchedule:
    def test_dense_stage_priced_at_its_bsgs_shape(self):
        # 2^15 slots in three stages: radix 32, 5 baby steps, 6 groups.
        sched = linear_transform_schedule(
            "CtS", ParameterSets.boot().slots, 20, stages=3,
            fft_factored=False)
        shapes = {i.discount for i in sched.items if i.discount}
        assert shapes == {Discount(transform=True, steps=5, giant=6)}

    def test_giant_groups_pay_full_rotations(self, boot_sched):
        # Each extra giant group of a double-hoisted BSGS stage ends in
        # its own fused tail and then pays a full HROTATE, so the traced
        # 5x6 stage costs more than the 5-diagonal stage by at least
        # five HROTATEs.
        plain = boot_sched.simulate("hrotate", level=20).elapsed_us
        bsgs = derived_hoisted_rotation_factor(
            boot_sched, transform=True, steps=5, giant=6)
        diag = derived_hoisted_rotation_factor(
            boot_sched, transform=True, steps=5)
        assert plain * (1 + 9 * bsgs) - plain * (1 + 4 * diag) >= 5 * plain
