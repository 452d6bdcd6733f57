"""Recorded workload pricing and the trace-derived hoisting factor."""

import pytest

from repro.ckks.params import ParameterSets
from repro.core import OperationScheduler
from repro.workloads import (
    HOISTED,
    TRANSFORM,
    WorkloadSchedule,
    WorkloadTiming,
    derived_hoisted_rotation_factor,
    record_bootstrap_trace,
    recorded_workload_timing,
    simulate_recorded_bootstrap,
)


@pytest.fixture(scope="module")
def set_c_scheduler():
    return OperationScheduler(ParameterSets.set_c())


#: The hand-tuned discount the derivation replaced, eyeballed for SET-C.
SET_C_HAND_TUNED_FACTOR = 0.35


class TestDerivedFactor:
    def test_set_c_factor_matches_hand_tuned_constant(self, set_c_scheduler):
        # The trace-derived value must land within +-20% of the
        # hand-tuned SET-C constant.
        factor = derived_hoisted_rotation_factor(set_c_scheduler)
        assert factor == pytest.approx(SET_C_HAND_TUNED_FACTOR, rel=0.20)

    def test_factor_cached(self, set_c_scheduler):
        a = derived_hoisted_rotation_factor(set_c_scheduler)
        b = derived_hoisted_rotation_factor(set_c_scheduler)
        assert a == b

    @pytest.mark.parametrize("name", [
        "SET-A", "SET-B", "SET-C", "SET-D", "SET-E",
        "Boot", "HELR", "ResNet", "AES",
    ])
    def test_factor_is_a_discount_on_every_shipped_set(self, name):
        scheduler = OperationScheduler(ParameterSets.by_name(name))
        assert 0.0 < derived_hoisted_rotation_factor(scheduler) < 1.0

    @pytest.mark.parametrize("name", [
        "SET-A", "SET-C", "SET-E", "Boot", "HELR", "AES",
    ])
    def test_transform_discount_below_hoisting_discount(self, name):
        # A double-hoisted stage drops every rotation's ModDown tail, so
        # its per-rotation discount undercuts the per-step one.
        scheduler = OperationScheduler(ParameterSets.by_name(name))
        lazy = derived_hoisted_rotation_factor(scheduler, transform=True)
        assert 0.0 < lazy < derived_hoisted_rotation_factor(scheduler)

    def test_lazy_items_priced_with_transform_discount(self,
                                                       set_c_scheduler):
        sched = WorkloadSchedule("lt")
        sched.add("hrotate", 10, 7, discount=TRANSFORM)
        plain = set_c_scheduler.simulate("hrotate", level=10).elapsed_us
        lazy = derived_hoisted_rotation_factor(set_c_scheduler,
                                               transform=True)
        assert sched.price(set_c_scheduler).total_us == pytest.approx(
            7 * plain * lazy)

    def test_derivation_error_propagates_from_price(self, set_c_scheduler,
                                                    monkeypatch):
        from repro.workloads import recorded

        def broken(scheduler, **shape):
            raise ValueError("degenerate hoisting trace")

        monkeypatch.setattr(recorded, "derived_hoisted_rotation_factor",
                            broken)
        sched = WorkloadSchedule("rot")
        sched.add("hrotate", 10, 1)
        sched.add("hrotate", 10, 7, discount=HOISTED)
        with pytest.raises(ValueError, match="degenerate"):
            sched.price(set_c_scheduler)


class TestRecordedBootstrap:
    def test_set_c_bootstrap_records_and_prices(self, set_c_scheduler):
        # The acceptance path: functional SET-C bootstrap recorded at
        # proxy ring scale, lowered to a PE kernel DAG at N=2^14,
        # priced end-to-end on the DAG scheduler.
        timing = simulate_recorded_bootstrap(
            ParameterSets.set_c(), scheduler=set_c_scheduler,
            proxy_log2n=9,
        )
        assert timing.total_us > 0
        for phase in ("StC", "ModRaise", "CtS", "EvalMod"):
            assert timing.breakdown[phase] > 0

    def test_trace_cached_per_chain_and_knobs(self):
        a = record_bootstrap_trace(ParameterSets.set_c(), proxy_log2n=9)
        b = record_bootstrap_trace(ParameterSets.set_c(), proxy_log2n=9)
        assert a is b

    def test_trace_has_all_bootstrap_phases(self):
        trace = record_bootstrap_trace(ParameterSets.set_c(), proxy_log2n=9)
        assert trace.ops() == ["StC", "ModRaise", "CtS", "EvalMod"]
        counts = trace.kind_counts()
        for kind in ("ntt", "intt", "modup", "moddown", "inner_product",
                     "tensor_product", "divide", "modadd"):
            assert counts.get(kind, 0) > 0, kind


class TestRecordedWorkloadTiming:
    def test_embedded_bootstraps_replaced(self, set_c_scheduler):
        sched = WorkloadSchedule("w")
        sched.add("hadd", 10, 3, note="core.add")
        sched.add("hadd", 14, 0.5, note="boot.ModRaise")
        sched.add("hmult", 11, 4, note="boot.EvalMod.baby")
        recorded_boot = WorkloadTiming(name="b", total_us=1000.0, batch=1)
        core_only = WorkloadSchedule("w")
        core_only.add("hadd", 10, 3, note="core.add")
        expected_core = core_only.price(set_c_scheduler).total_us

        timing = recorded_workload_timing(
            sched, set_c_scheduler, recorded_boot=recorded_boot)
        assert timing.breakdown["boot(recorded)"] == pytest.approx(500.0)
        assert timing.total_us == pytest.approx(expected_core + 500.0)

    def test_multiple_bootstraps_counted(self, set_c_scheduler):
        sched = WorkloadSchedule("w")
        sched.add("hadd", 14, 2, note="boot0.ModRaise")
        sched.add("hadd", 14, 2, note="boot1.ModRaise")
        recorded_boot = WorkloadTiming(name="b", total_us=10.0, batch=1)
        timing = recorded_workload_timing(
            sched, set_c_scheduler, recorded_boot=recorded_boot)
        assert timing.total_us == pytest.approx(40.0)
