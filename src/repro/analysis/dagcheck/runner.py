"""Catalog-wide dagcheck runner: results, JSON report, CI gate."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fhelint.findings import DAG_RULES, Finding
from .catalog import WorkloadReport, run_catalog
from .mutations import MUTATIONS, forge

#: Certificate tightness bound asserted by CI: the static peak-HBM
#: certificate must not exceed the observed peak by more than this.
CERT_SLACK = 1.25


@dataclass
class DagcheckResult:
    """One full dagcheck run over the catalog."""

    reports: Dict[str, WorkloadReport] = field(default_factory=dict)
    #: forge name -> number of expected-rule findings it produced.
    mutation_kills: Dict[str, int] = field(default_factory=dict)

    @property
    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for report in self.reports.values():
            out.extend(report.findings)
        return out

    @property
    def surviving_mutations(self) -> List[str]:
        """Forges the checker failed to catch — must be empty."""
        return sorted(n for n, k in self.mutation_kills.items() if k == 0)

    @property
    def loose_certificates(self) -> List[str]:
        """Workloads whose HBM certificate is not in
        ``[observed, CERT_SLACK * observed]``."""
        bad = []
        for name, report in self.reports.items():
            ratio = report.cert_ratio()
            if ratio is not None and not 1.0 <= ratio <= CERT_SLACK:
                bad.append(name)
        return sorted(bad)

    @property
    def exit_code(self) -> int:
        if self.findings or self.surviving_mutations:
            return 1
        if self.loose_certificates:
            return 1
        return 0

    def rule_counts(self) -> Dict[str, int]:
        out = {rule: 0 for rule in DAG_RULES}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def render(self, *, fmt: str = "text") -> str:
        if fmt == "github":
            return "\n".join(
                f"::error file={f.path},line={f.line}::"
                f"[{f.rule}] {f.func}: {f.message}"
                for f in self.findings
            )
        lines: List[str] = []
        for name, report in sorted(self.reports.items()):
            status = "CLEAN" if report.clean else \
                f"{len(report.findings)} finding(s)"
            cert = ""
            if report.certificate is not None:
                cert = f", hbm cert {report.certificate.peak_gib:.3f} GiB"
                ratio = report.cert_ratio()
                if ratio is not None:
                    cert += f" ({ratio:.2f}x observed)"
            lines.append(
                f"{name}: {status} over "
                f"{len(report.surfaces)} surface(s){cert}")
            lines.extend("  " + f.render() for f in report.findings)
        for name in sorted(self.mutation_kills):
            kills = self.mutation_kills[name]
            verdict = "KILLED" if kills else "SURVIVED"
            lines.append(f"mutation {name}: {verdict} ({kills} finding(s))")
        verdict = "PASS" if self.exit_code == 0 else "FAIL"
        lines.append(f"[{verdict}] dagcheck: {len(self.findings)} "
                     f"finding(s), {len(self.surviving_mutations)} "
                     "surviving mutation(s)")
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "version": 1,
            "rules": dict(DAG_RULES),
            "rule_counts": self.rule_counts(),
            "findings": [f.to_json() for f in self.findings],
            "mutation_kills": dict(self.mutation_kills),
            "surviving_mutations": self.surviving_mutations,
            "certificates": {
                name: {
                    "peak_bytes": report.certificate.peak_bytes,
                    "observed_peak_bytes": report.observed_peak,
                    "ratio": report.cert_ratio(),
                    "nodes": report.certificate.node_count,
                }
                for name, report in sorted(self.reports.items())
                if report.certificate is not None
            },
            "workloads": {
                name: {
                    "surfaces": report.surfaces,
                    "findings": len(report.findings),
                }
                for name, report in sorted(self.reports.items())
            },
            "exit_code": self.exit_code,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_dagcheck(*, optimizer: bool = True, search: bool = True,
                 memory: bool = True, mutations: bool = True,
                 names: Optional[List[str]] = None) -> DagcheckResult:
    """The full catalog run plus the mutation-kill battery.

    Mutations are forged against the first catalog trace, smallest
    first, that supports each forge (the ResNet block where possible;
    the HELR iteration holds the hoisted rotate-and-sum) so the kill
    battery stays cheap relative to the catalog sweep.
    """
    result = DagcheckResult(
        reports=run_catalog(optimizer=optimizer, search=search,
                            memory=memory, names=names))
    if mutations:
        from .catalog import CATALOG
        recorders = CATALOG()
        candidates = ("resnet_block", "aes_transcipher", "helr_iteration")
        for name in MUTATIONS:
            for pos, workload in enumerate(candidates):
                try:
                    found = forge(name, recorders[workload]())
                    break
                except ValueError:
                    if pos == len(candidates) - 1:
                        raise
            result.mutation_kills[name] = len(found)
    return result
