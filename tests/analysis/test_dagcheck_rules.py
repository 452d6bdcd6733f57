"""Unit tests for the dagcheck rule families on synthetic traces.

Each rule gets a minimal hand-built trace that violates exactly one
invariant (and a near-identical clean twin), so a regression in one
checker cannot hide behind the catalog workloads all being clean.
"""

import dataclasses
import types

import pytest

from repro.analysis.dagcheck import (
    ScaleMap,
    check_dag_schedule,
    check_hbm_budget,
    check_semantics,
    check_trace_schedule,
    happens_before_certificate,
)
from repro.analysis.dagcheck.memory import HbmCertificate
from repro.trace.ir import OpTrace, TraceEvent


def ev(eid, kind, level=2, deps=(), op=None, shape=None, args=(),
       scale=None, key=()):
    return TraceEvent(
        eid=eid, kind=kind, op=op or f"test/{kind}", span=f"{kind}#{eid}",
        level=level, shape=shape or {}, deps=tuple(deps), args=tuple(args),
        key=tuple(key), scale=scale,
    )


def trace(*events, rotations=None):
    return OpTrace(label="synthetic", n=64, params=None,
                   events=tuple(events), rotations=rotations)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestLevelRule:
    def test_level_raise_outside_modraise_flagged(self):
        t = trace(ev(0, "ntt", level=2), ev(1, "intt", level=3, deps=[0]))
        assert rules_of(check_semantics(t)) == ["D-LVL"]

    def test_modraise_span_permits_raise(self):
        t = trace(
            ev(0, "ntt", level=2),
            ev(1, "intt", level=3, deps=[0], op="boot/ModRaise/intt"),
        )
        assert check_semantics(t) == []

    def test_automorphism_prime_count_must_match_level(self):
        t = trace(ev(0, "automorphism", level=2, shape={"primes": 5}))
        assert rules_of(check_semantics(t)) == ["D-LVL"]
        clean = trace(ev(0, "automorphism", level=2, shape={"primes": 3}))
        assert check_semantics(clean) == []

    def test_elementwise_rows_must_tile_polynomials(self):
        t = trace(ev(0, "modmul", level=2, shape={"rows": 4}))
        assert rules_of(check_semantics(t)) == ["D-LVL"]
        clean = trace(ev(0, "modmul", level=2, shape={"rows": 6}))
        assert check_semantics(clean) == []


class TestBasisRule:
    """Data over ``Q_l ∪ P`` must come down through a ModDown."""

    PARAMS = types.SimpleNamespace(num_special=2)

    def keyswitch(self, moddown=True):
        # Level 2 (3 primes) plus 2 special primes = 5 per extended pane.
        events = [
            ev(0, "intt", shape={"rows": 3}),
            ev(1, "modup", deps=[0]),
            ev(2, "ntt", deps=[1], shape={"rows": 10, "panes": 2}),
            ev(3, "inner_product", deps=[2], shape={"primes": 5}),
            ev(4, "intt", deps=[3], shape={"rows": 10, "panes": 2}),
        ]
        if moddown:
            events.append(ev(5, "moddown", deps=[4],
                             shape={"main_primes": 3}))
        events.append(ev(6, "ntt", deps=[5 if moddown else 4],
                         shape={"rows": 6, "panes": 2}))
        return dataclasses.replace(trace(*events), params=self.PARAMS)

    def test_keyswitch_roundtrip_clean(self):
        assert check_semantics(self.keyswitch()) == []

    def test_dropped_moddown_flagged(self):
        found = check_semantics(self.keyswitch(moddown=False))
        assert rules_of(found) == ["D-LVL"]
        assert "no ModDown" in found[0].message

    def test_elementwise_on_extended_data_flagged(self):
        t = dataclasses.replace(trace(
            ev(0, "modup"),
            ev(1, "modadd", deps=[0], shape={"rows": 6}),
        ), params=self.PARAMS)
        assert rules_of(check_semantics(t)) == ["D-LVL"]

    def test_no_params_skips_rule(self):
        t = dataclasses.replace(self.keyswitch(moddown=False), params=None)
        assert check_semantics(t) == []


class TestDomainRule:
    def test_eval_output_into_coeff_consumer_flagged(self):
        # ntt produces eval-domain data; a second ntt needs coeff input.
        t = trace(ev(0, "ntt"), ev(1, "ntt", deps=[0]))
        assert rules_of(check_semantics(t)) == ["D-CEV"]

    def test_roundtrip_is_clean(self):
        t = trace(ev(0, "intt"), ev(1, "ntt", deps=[0]),
                  ev(2, "intt", deps=[1]))
        assert check_semantics(t) == []

    def test_mixed_domain_elementwise_flagged(self):
        t = trace(ev(0, "ntt"), ev(1, "intt"),
                  ev(2, "modadd", deps=[0, 1]))
        assert rules_of(check_semantics(t)) == ["D-CEV"]


class TestScaleRule:
    def test_tagged_addition_with_disagreeing_operand(self):
        t = trace(
            ev(0, "modmul", scale=2.0 ** 40),
            ev(1, "modadd", deps=[0], scale=2.0 ** 41),
        )
        assert rules_of(check_semantics(t)) == ["D-SCL"]

    def test_matching_scales_clean(self):
        t = trace(
            ev(0, "modmul", scale=2.0 ** 40),
            ev(1, "modadd", deps=[0], scale=2.0 ** 40),
        )
        assert check_semantics(t) == []

    def test_scalemap_inherits_unique_dep_scale(self):
        t = trace(
            ev(0, "modmul", scale=2.0 ** 40),
            ev(1, "automorphism", deps=[0], shape={"primes": 3}),
        )
        scales = ScaleMap(t)
        assert scales[1] == 2.0 ** 40

    def test_scalemap_unknown_without_params_divide(self):
        # divide needs the modulus chain to map the scale; params=None
        # must yield unknown, never a guess.
        t = trace(
            ev(0, "modmul", scale=2.0 ** 40),
            ev(1, "divide", deps=[0], shape={"rows": 2, "drop": 1}),
        )
        assert ScaleMap(t)[1] is None


class TestRescaleRule:
    def test_back_to_back_tensor_products_flagged(self):
        t = trace(
            ev(0, "tensor_product", shape={"rows": 3}),
            ev(1, "tensor_product", deps=[0], shape={"rows": 3}),
        )
        assert rules_of(check_semantics(t)) == ["D-RES"]

    def test_divide_on_path_clears_pending(self):
        t = trace(
            ev(0, "tensor_product", shape={"rows": 3}),
            ev(1, "divide", level=2, deps=[0], shape={"rows": 2, "drop": 1}),
            ev(2, "tensor_product", level=1, deps=[1], shape={"rows": 2}),
        )
        assert check_semantics(t) == []

    def test_pending_propagates_through_interior_stages(self):
        t = trace(
            ev(0, "tensor_product", shape={"rows": 3}),
            ev(1, "ntt", deps=[0]),
            ev(2, "tensor_product", deps=[1], shape={"rows": 3}),
        )
        assert "D-RES" in rules_of(check_semantics(t))


class TestFusedRescale:
    """A ``moddown`` with ``drop = k`` is the double-hoisted tail's
    ModDown·rescale: the level, scale and rescale rules treat it as a
    ``divide`` of ``k`` primes."""

    @staticmethod
    def _params():
        from repro.ckks import ParameterSets
        return ParameterSets.toy()

    def _fused(self, *, main_primes, drop=1, tag_ratio=1.0):
        params = self._params()
        level = 2
        q_top = params.chain().moduli[level]
        base = 2.0 ** 40
        events = (
            ev(0, "tensor_product", level=level, shape={"rows": 3},
               scale=base),
            ev(1, "intt", level=level, deps=[0]),
            ev(2, "moddown", level=level, deps=[1],
               shape={"main_primes": main_primes, "special_primes": 2,
                      "polys": 2, **({"drop": drop} if drop else {})},
               scale=base / q_top * tag_ratio),
            ev(3, "ntt", level=level, deps=[2]),
            ev(4, "tensor_product", level=level - 1, deps=[3],
               shape={"rows": 2}),
        )
        return OpTrace(label="fused", n=64, params=params, events=events)

    def test_fused_rescale_is_clean(self):
        assert check_semantics(self._fused(main_primes=2)) == []

    def test_scale_follows_the_fused_divisor(self):
        t = self._fused(main_primes=2)
        q_top = t.params.chain().moduli[2]
        assert ScaleMap(t)[3] == pytest.approx(2.0 ** 40 / q_top)

    def test_wrong_main_prime_count_flagged(self):
        assert rules_of(check_semantics(self._fused(main_primes=3))) == \
            ["D-LVL"]

    def test_mistagged_fused_scale_flagged(self):
        t = self._fused(main_primes=2, tag_ratio=2.0)
        assert rules_of(check_semantics(t)) == ["D-SCL"]

    def test_plain_moddown_does_not_clear_pending(self):
        # Without ``drop`` the tail divides by P only: the second tensor
        # product consumes an unrescaled one, and the rescaled tag lies.
        t = self._fused(main_primes=3, drop=0)
        assert rules_of(check_semantics(t)) == ["D-RES", "D-SCL"]


class TestKeyRule:
    def test_undeclared_rotation_step_flagged(self):
        t = trace(
            ev(0, "automorphism", shape={"primes": 3}, args=[4]),
            rotations=(1, 2, -1),
        )
        assert rules_of(check_semantics(t)) == ["D-KEY"]

    def test_declared_steps_and_conjugation_clean(self):
        t = trace(
            ev(0, "automorphism", shape={"primes": 3}, args=[2, -1]),
            rotations=(1, 2, -1),
        )
        assert check_semantics(t) == []

    def test_no_declared_set_skips_rule(self):
        t = trace(ev(0, "automorphism", shape={"primes": 3}, args=[99]))
        assert check_semantics(t) == []


class TestScheduleRule:
    def test_trace_order_violation_flagged(self):
        t = trace(ev(1, "ntt", deps=[0]), ev(0, "intt"))
        assert rules_of(check_trace_schedule(t)) == ["D-SCH"]

    def test_program_order_clean(self):
        t = trace(ev(0, "intt"), ev(1, "ntt", deps=[0]))
        assert check_trace_schedule(t) == []


class TestDagSurfaces:
    """DAG-level legality and the happens-before certificate, on the
    real lowered ResNet block (small enough for unit-test budget)."""

    @pytest.fixture(scope="class")
    def lowered(self):
        from repro.trace import lower_trace
        from repro.workloads.recorded import record_resnet_block_trace

        t = record_resnet_block_trace()
        return t, lower_trace(t)

    def test_lowered_dag_is_legal_and_certified(self, lowered):
        t, dag = lowered
        assert check_dag_schedule(dag) == []
        assert happens_before_certificate(dag, t) == []

    def test_forward_dep_flagged(self, lowered):
        _, dag = lowered
        victim = next(i for i, nd in enumerate(dag.nodes) if nd.deps)
        bad_node = dataclasses.replace(
            dag.nodes[victim], deps=(len(dag.nodes) - 1,))
        bad = dataclasses.replace(
            dag, nodes=list(dag.nodes[:victim]) + [bad_node]
            + list(dag.nodes[victim + 1:]))
        assert rules_of(check_dag_schedule(bad)) == ["D-SCH"]

    def test_searched_permutations_stay_certified(self, lowered):
        from repro.trace.opt import schedule_search

        t, dag = lowered
        best, scores = schedule_search(dag)
        assert scores, "schedule_search returned no strategies"
        assert check_dag_schedule(best) == []
        assert happens_before_certificate(best, t) == []


class TestHbmRule:
    def test_undercommitted_budget_flagged(self):
        cert = HbmCertificate(label="j", peak_bytes=2.0 ** 30, node_count=4)
        found = check_hbm_budget("j", 2.0 ** 29, cert)
        assert rules_of(found) == ["D-HBM"]
        assert "certificate" in found[0].message

    def test_sufficient_budget_clean(self):
        cert = HbmCertificate(label="j", peak_bytes=2.0 ** 30, node_count=4)
        assert check_hbm_budget("j", 2.0 ** 30, cert) == []

    def test_certificate_brackets_observed_peak(self):
        from repro.analysis.dagcheck import (
            observed_peak_bytes,
            static_hbm_certificate,
        )
        from repro.analysis.dagcheck.runner import CERT_SLACK
        from repro.trace import lower_trace
        from repro.workloads.recorded import record_resnet_block_trace

        dag = lower_trace(record_resnet_block_trace())
        cert = static_hbm_certificate(dag)
        observed = observed_peak_bytes(dag.run())
        assert observed > 0
        assert observed <= cert.peak_bytes <= CERT_SLACK * observed
