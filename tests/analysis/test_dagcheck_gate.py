"""The dagcheck repository gate: catalog clean, mutations killed.

Mirrors the CI invocation (``python -m repro.analysis.dagcheck``) at
unit-test scale: the recorded workloads must verify clean over every
surface, every seeded mutation must be caught by its expected rule, and
the JSON artifact / reproduction-summary plumbing must round-trip.
"""

import json

import pytest

from repro.analysis.dagcheck import (
    CATALOG,
    MUTATIONS,
    check_trace,
    forge,
    run_dagcheck,
)
from repro.analysis.dagcheck.runner import CERT_SLACK


#: Forge targets, smallest first; only the HELR iteration holds a
#: hoisted rotate-and-sum.
FORGE_TARGETS = ("resnet_block", "aes_transcipher", "helr_iteration")


@pytest.fixture(scope="module")
def traces():
    recorders = CATALOG()
    return {name: recorders[name]() for name in FORGE_TARGETS}


@pytest.fixture(scope="module")
def result():
    return run_dagcheck(names=["resnet_block", "aes_transcipher"])


class TestCatalogClean:
    def test_recorded_traces_verify_clean(self, traces):
        for name, t in traces.items():
            found = check_trace(t)
            assert found == [], (
                name + ":\n" + "\n".join(f.render() for f in found))

    def test_full_surface_sweep_is_clean(self, result):
        for name, report in result.reports.items():
            assert report.clean, name
            assert set(report.surfaces) >= {
                "trace", "dag", "dag-hb", "opt-trace", "opt-dag",
                "opt-dag-hb", "sched-search", "sched-search-hb",
            }, (name, report.surfaces)

    def test_certificates_bracket_observed(self, result):
        for name, report in result.reports.items():
            ratio = report.cert_ratio()
            assert ratio is not None, name
            assert 1.0 <= ratio <= CERT_SLACK, (name, ratio)


class TestMutationKills:
    def test_every_forge_is_killed(self, traces):
        for name, (rule, _) in MUTATIONS.items():
            for target in FORGE_TARGETS:
                try:
                    found = forge(name, traces[target])
                    break
                except ValueError:
                    continue
            else:
                pytest.fail(f"no catalog trace supports forge {name}")
            assert found, f"mutation {name} survived"
            assert {f.rule for f in found} == {rule}

    def test_sum_moddown_forge_targets_the_rotate_sum(self, traces):
        assert forge("dropped_sum_moddown", traces["helr_iteration"])
        with pytest.raises(ValueError):
            forge("dropped_sum_moddown", traces["resnet_block"])

    def test_runner_records_kills(self, result):
        assert set(result.mutation_kills) == set(MUTATIONS)
        assert result.surviving_mutations == []

    def test_unknown_forge_rejected(self, traces):
        with pytest.raises(KeyError):
            forge("no_such_mutation", traces["resnet_block"])


class TestGatePlumbing:
    def test_exit_code_and_json_shape(self, result):
        assert result.exit_code == 0
        data = result.to_json()
        assert data["exit_code"] == 0
        assert data["findings"] == []
        assert data["surviving_mutations"] == []
        assert set(data["rule_counts"]) >= {
            "D-LVL", "D-CEV", "D-SCL", "D-RES",
            "D-KEY", "D-NSE", "D-SCH", "D-HBM",
        }
        for name, cert in data["certificates"].items():
            assert cert["ratio"] is not None, name
            assert 1.0 <= cert["ratio"] <= CERT_SLACK

    def test_injected_finding_fails_gate(self, result):
        from repro.analysis.fhelint.findings import Finding

        report = next(iter(result.reports.values()))
        report.findings.append(Finding(
            rule="D-SCL", path="synthetic", line=1, func="f", message="m"))
        try:
            assert result.exit_code == 1
            github = result.render(fmt="github")
            assert "::error" in github and "D-SCL" in github
        finally:
            report.findings.pop()
        assert result.exit_code == 0

    def test_text_render_mentions_verdict(self, result):
        text = result.render()
        assert "[PASS] dagcheck" in text
        assert "KILLED" in text

    def test_reproduce_summary_folds_artifact(self, result, tmp_path):
        from repro.analysis import dagcheck_gate_summary

        artifact = tmp_path / "ANALYSIS_dagcheck.json"
        result.write_json(str(artifact))
        text = dagcheck_gate_summary(str(artifact))
        assert "dagcheck" in text
        assert "[PASS] dagcheck gate: CLEAN" in text
        data = json.loads(artifact.read_text())
        assert data["exit_code"] == 0


class TestServingIntegration:
    def test_certified_reservation_audits_clean(self):
        from repro.serving.jobs import default_catalog

        for model in ("formula", "certified"):
            catalog = default_catalog(["resnet"], hbm_model=model)
            assert catalog.audit_hbm("resnet", 2) == [], model
            priced = catalog.price("resnet", 2)
            assert priced.certified_hbm_bytes > 0
            if model == "certified":
                assert priced.hbm_bytes == priced.certified_hbm_bytes
            else:
                assert priced.hbm_bytes >= priced.certified_hbm_bytes

    def test_unknown_hbm_model_rejected(self):
        from repro.serving.jobs import default_catalog

        with pytest.raises(ValueError):
            default_catalog(["resnet"], hbm_model="guesswork")
