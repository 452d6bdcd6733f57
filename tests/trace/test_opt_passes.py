"""Trace-DAG optimizer: per-pass legality, replay parity, regressions.

The machine-checkable contract of every pass (DESIGN.md §12): data
dependencies preserved, per-kind work accounting conserved, and — via
the replay-token construction of :mod:`repro.trace.opt.replay` —
bit-identical replay of the surviving primitive events.  The pipeline
enforces all three after every pass (``verify=True``); the tests here
additionally assert them from first principles so a verifier bug cannot
hide an optimizer bug.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
from repro.ckks.hoisting import hoisted_rotations
from repro.ckks.params import ParameterSets
from repro.gpusim import profile_cache_stats, run_dag
from repro.trace import lower_trace, validate_trace
from repro.trace.ir import OpTrace, TraceEvent
from repro.trace.opt import (
    FoldTwistPass,
    FuseElementwisePass,
    MergeLaunchesPass,
    OptimizationError,
    PassPipeline,
    RotationDedupPass,
    default_passes,
    event_work,
    observed_rotation_steps,
    optimize_trace,
    permute_dag,
    primitive_events,
    replay_tokens,
    schedule_search,
    trace_pool_peak_rows,
    work_counts,
)
from repro.trace.recorder import record
from repro.workloads import proxy_params_for, record_bootstrap_trace

PARAMS = ParameterSets.small()


@pytest.fixture(scope="module")
def setup():
    ctx = CkksContext.create(PARAMS, seed=3)
    keys = ctx.keygen(rotations=[1, 2, 3])
    vals = np.zeros(ctx.slots)
    vals[:2] = [0.5, -0.25]
    ct = ctx.encrypt(vals, keys)
    ct2 = ctx.encrypt(vals, keys)
    return ctx, keys, ct, ct2


@pytest.fixture(scope="module")
def hmult_trace(setup):
    ctx, keys, ct, ct2 = setup
    with record("hmult", params=PARAMS) as rec:
        ctx.evaluator.hmult(ct, ct2, keys)
    return rec.trace


@pytest.fixture(scope="module")
def hoisted_trace(setup):
    ctx, keys, ct, _ = setup
    with record("hoisted", params=PARAMS) as rec:
        hoisted_rotations(ctx.evaluator, ct, [1, 2, 3], keys).ciphertexts()
    return rec.trace


@pytest.fixture(scope="module")
def boot_trace():
    return record_bootstrap_trace()


RECORDINGS = ("hmult_trace", "hoisted_trace", "boot_trace")


def assert_replay_parity(before: OpTrace, after: OpTrace, removed=()):
    """Surviving primitives replay bit-identically (token equality)."""
    tok_before = replay_tokens(before)
    tok_after = replay_tokens(after)
    removed_eids = {e.eid for e in removed}
    assert set(tok_after) == set(tok_before) - removed_eids
    for eid, tok in tok_after.items():
        assert tok == tok_before[eid], f"event {eid} diverged"


def assert_work_conserved(before: OpTrace, after: OpTrace, removed=()):
    """Per-kind work accounting: nothing appears, nothing vanishes."""
    got = work_counts(after)
    for e in removed:
        k = e.kind
        got[k] = got.get(k, 0) + event_work(e)
    assert {k: v for k, v in got.items() if v} == \
        {k: v for k, v in work_counts(before).items() if v}


class TestEachPassAlone:
    @pytest.mark.parametrize("recording", RECORDINGS)
    @pytest.mark.parametrize("make_pass", [
        RotationDedupPass, FoldTwistPass, FuseElementwisePass,
        MergeLaunchesPass,
    ])
    def test_pass_contract(self, recording, make_pass, request):
        trace = request.getfixturevalue(recording)
        out, stats = make_pass().run(trace)
        validate_trace(out)
        assert_replay_parity(trace, out, stats.removed)
        assert_work_conserved(trace, out, stats.removed)

    @pytest.mark.parametrize("recording", RECORDINGS)
    def test_deps_still_reference_producers(self, recording, request):
        trace = request.getfixturevalue(recording)
        out, _ = optimize_trace(trace)
        defined = set()
        for e in out.events:
            for d in e.deps:
                assert d in defined, f"event {e.eid} reads undefined {d}"
            defined.add(e.eid)
            defined.update(c.eid for c in e.fused)


class TestComposedPipeline:
    @pytest.mark.parametrize("recording", RECORDINGS)
    def test_replay_parity_after_full_pipeline(self, recording, request):
        trace = request.getfixturevalue(recording)
        out, report = optimize_trace(trace)
        removed = [e for st in report.passes for e in st.removed]
        validate_trace(out)
        assert_replay_parity(trace, out, removed)
        assert_work_conserved(trace, out, removed)

    @pytest.mark.parametrize("recording", RECORDINGS)
    def test_expansion_restores_primitive_granularity(self, recording,
                                                      request):
        trace = request.getfixturevalue(recording)
        out, report = optimize_trace(trace)
        expanded = out.expanded()
        assert not any(e.fused for e in expanded.events)
        removed = [e for st in report.passes for e in st.removed]
        assert len(expanded.events) == \
            len(primitive_events(trace)) - len(removed)
        assert_replay_parity(trace, expanded, removed)

    def test_bootstrap_pipeline_reduces_events(self, boot_trace):
        out, report = optimize_trace(boot_trace)
        assert len(out.events) < len(boot_trace.events)
        by_name = {s.name: s for s in report.passes}
        assert by_name["fold-twists"].fused_groups > 0
        assert by_name["fuse-elementwise"].fused_groups > 0

    def test_verifier_rejects_forged_event(self, hmult_trace):
        class Forge(FuseElementwisePass):
            name = "forge"

            def run(self, trace):
                out, stats = super().run(trace)
                import dataclasses
                events = list(out.events)
                for i, e in enumerate(events):
                    if e.kind == "modadd":
                        events[i] = dataclasses.replace(
                            e, shape={**e.shape,
                                      "rows": e.shape["rows"] + 1}
                        )
                        break
                return OpTrace(label=out.label, n=out.n,
                               params=out.params,
                               events=tuple(events)), stats

        with pytest.raises(OptimizationError):
            PassPipeline([Forge()]).run(hmult_trace)


class TestRotationDedup:
    def _dup_trace(self):
        events = (
            TraceEvent(0, "ntt", "op", "op", 3, {"rows": 2}, ()),
            TraceEvent(1, "automorphism", "op", "op", 3,
                       {"primes": 3, "polys": 2}, (0,), args=(1,)),
            TraceEvent(2, "automorphism", "op", "op", 3,
                       {"primes": 3, "polys": 2}, (0,), args=(1,)),
            TraceEvent(3, "modadd", "op", "op", 3, {"rows": 2}, (1,)),
            TraceEvent(4, "modadd", "op", "op", 3, {"rows": 2}, (2,)),
            # Same step from a *different* source: not a duplicate.
            TraceEvent(5, "automorphism", "op", "op", 3,
                       {"primes": 3, "polys": 2}, (3,), args=(1,)),
            TraceEvent(6, "modmul", "op", "op", 3, {"rows": 2}, (5,)),
            # Dead rotation: nobody reads it.
            TraceEvent(7, "automorphism", "op", "op", 3,
                       {"primes": 3, "polys": 2}, (0,), args=(2,)),
        )
        return OpTrace(label="dup", n=64, events=events)

    def test_duplicate_and_dead_rotations_removed(self):
        trace = self._dup_trace()
        out, stats = RotationDedupPass().run(trace)
        assert stats.deduped == 1
        assert stats.dead == 1
        kinds = [e.eid for e in out.events if e.kind == "automorphism"]
        assert kinds == [1, 5]

    def test_consumers_remapped_to_survivor(self):
        out, _ = RotationDedupPass().run(self._dup_trace())
        by_eid = {e.eid: e for e in out.events}
        assert by_eid[4].deps == (1,)  # was (2,): the dropped duplicate
        assert by_eid[3].deps == (1,)

    def test_distinct_steps_from_same_source_kept(self, hoisted_trace):
        out, stats = RotationDedupPass().run(hoisted_trace)
        # The hoisted pass already shares one ModUp across steps; its
        # per-step automorphisms are distinct and must all survive.
        assert stats.deduped == 0

    def test_observed_steps_include_recorded_args(self, hoisted_trace):
        assert set(observed_rotation_steps(hoisted_trace)) >= {1, 2, 3}


class TestRotationConsistency:
    """Satellite: declared rotation keys match the recorded run."""

    def test_bootstrap_observed_equals_declared(self):
        params = proxy_params_for(ParameterSets.boot(), 10)
        ctx = CkksContext.create(params, seed=0)
        boot = Bootstrapper(ctx, BootstrapConfig(
            sine_degree=31, fft_factored=True, fuse=3,
        ))
        keys = ctx.keygen(rotations=boot.required_rotations(),
                          conjugation=True)
        vals = np.zeros(ctx.slots)
        vals[:4] = [0.5, -0.25, 0.125, 0.75]
        ct = ctx.encrypt(vals, keys, level=boot.stc_levels)
        with record("boot", params=params, n=params.n) as rec:
            boot.bootstrap(ct, keys)
        observed = boot.assert_rotations_consistent(rec.trace)
        # Exact agreement: every declared key is exercised, so keygen
        # generates nothing the run never uses.
        assert observed == boot.required_rotations()

    def test_undeclared_rotation_rejected(self):
        params = proxy_params_for(ParameterSets.boot(), 10)
        ctx = CkksContext.create(params, seed=0)
        boot = Bootstrapper(ctx, BootstrapConfig(
            sine_degree=31, fft_factored=True, fuse=3,
        ))
        bad = next(s for s in range(1, 1 << 20)
                   if s not in set(boot.required_rotations()))
        trace = OpTrace(label="synth", n=64, events=(
            TraceEvent(0, "automorphism", "op", "op", 3,
                       {"primes": 2, "polys": 2}, (), args=(bad,)),
        ))
        with pytest.raises(AssertionError, match="undeclared"):
            boot.assert_rotations_consistent(trace)


class TestFusionLowering:
    def test_optimized_dag_specs_validate(self, boot_trace):
        out, _ = optimize_trace(boot_trace)
        dag = lower_trace(out, style="pe")
        for nd in dag.nodes:
            nd.spec.validate()

    def test_optimized_dag_launches_fewer_kernels(self, boot_trace):
        out, _ = optimize_trace(boot_trace)
        base = lower_trace(boot_trace, style="pe")
        opt = lower_trace(out, style="pe")
        assert opt.kernel_count < base.kernel_count

    def test_fold_tags_surface_in_specs(self, boot_trace):
        out, _ = optimize_trace(boot_trace)
        dag = lower_trace(out, style="pe")
        tags = [nd.spec.tags for nd in dag.nodes]
        assert any("fold_pre" in t or "fold_post" in t for t in tags)
        assert any("fused" in t for t in tags)

    def test_constituent_eids_exported(self, boot_trace):
        out, _ = optimize_trace(boot_trace)
        dag = lower_trace(out, style="pe")
        covered = set()
        for nd in dag.nodes:
            covered.update(nd.eids)
        for e in out.events:
            assert e.eid in covered
            for c in e.fused:
                assert c.eid in covered

    def test_optimized_not_slower(self, boot_trace):
        out, _ = optimize_trace(boot_trace)
        base_us = lower_trace(boot_trace, style="pe").run().elapsed_us
        opt_us = lower_trace(out, style="pe").run().elapsed_us
        assert opt_us <= base_us + 1e-6


class TestReorder:
    def test_pool_peak_rows_follows_order(self):
        # Three 8-row producers feeding one 1-row reducer each.  Program
        # order runs all producers first (three live buffers); the
        # interleaved order frees each producer before the next starts.
        ev = []
        for i in range(3):
            ev.append(TraceEvent(2 * i, "ntt", "op", "op", 3,
                                 {"rows": 8}, ()))
        for i in range(3):
            ev.append(TraceEvent(2 * i + 1, "divide", "op", "op", 3,
                                 {"rows": 1, "drop": 1}, (2 * i,)))
        trace = OpTrace(label="synth", n=64, events=tuple(
            sorted(ev, key=lambda e: e.kind != "ntt")
        ))
        assert trace_pool_peak_rows(trace) == 25
        assert trace_pool_peak_rows(trace, [0, 3, 1, 4, 2, 5]) == 11

    def test_schedule_search_never_slower_than_recorded(self, boot_trace):
        out, _ = optimize_trace(boot_trace)
        dag = lower_trace(out, style="pe")
        best, scores = schedule_search(dag)
        assert min(scores.values()) <= scores["recorded"] + 1e-6
        assert best.run().elapsed_us == pytest.approx(
            min(scores.values()))

    def test_permute_dag_rejects_illegal_order(self, hmult_trace):
        dag = lower_trace(hmult_trace, style="pe")
        order = list(range(dag.kernel_count))
        dep_node = next(i for i, nd in enumerate(dag.nodes) if nd.deps)
        order[dep_node], order[dag.nodes[dep_node].deps[0]] = \
            order[dag.nodes[dep_node].deps[0]], order[dep_node]
        with pytest.raises(ValueError, match="dependency|permutation"):
            permute_dag(dag, order)


class TestProfileCacheStats:
    """Satellite: run_dag exposes its spec-profile cache counters."""

    def test_counters_follow_convention(self, hmult_trace):
        dag = lower_trace(hmult_trace, style="pe")
        before = profile_cache_stats()
        dag.run()
        after = profile_cache_stats()
        assert set(after) == {"hits", "misses", "runs", "currsize"}
        assert after["runs"] == before["runs"] + 1
        assert after["misses"] > before["misses"]
        assert after["currsize"] > 0

    def test_repeated_specs_hit(self, boot_trace):
        dag = lower_trace(boot_trace, style="pe")
        before = profile_cache_stats()
        dag.run()
        after = profile_cache_stats()
        # Traces repeat shapes heavily: far fewer distinct specs than
        # launches.
        assert after["currsize"] < dag.kernel_count
        assert after["hits"] - before["hits"] == \
            dag.kernel_count - after["currsize"]


class TestTraceKindLint:
    """Satellite: the T-KIND fhelint rule guards the emit vocabulary."""

    def _findings(self, source):
        from repro.analysis.fhelint.registry import Registry
        from repro.analysis.fhelint.tracerules import trace_kind_findings

        mod = Registry().add_module("snippet.py", source)
        return trace_kind_findings(mod, lambda line: "f")

    def test_unknown_kind_flagged(self):
        out = self._findings("emit('nttt', rows=2)\n")
        assert [f.rule for f in out] == ["T-KIND"]

    def test_known_kinds_clean(self):
        src = ("emit('ntt', rows=2)\n"
               "_temit('automorphism', primes=3)\n"
               "rec.emit('fused_elementwise', rows=1)\n")
        assert self._findings(src) == []

    def test_variable_kind_out_of_scope(self):
        assert self._findings("emit(kind, rows=2)\n") == []

    def test_repo_is_clean(self):
        import os

        from repro.analysis.fhelint.runner import run_lint

        root = os.path.join(os.path.dirname(__file__), os.pardir,
                            os.pardir, "src", "repro")
        result = run_lint([root])
        assert [f for f in result.findings
                if f.rule == "T-KIND" and not f.suppressed] == []
