"""The program names the perfbench harness looks up must exist.

perfbench (``perfbench/run.py``) wraps named entry points of every layer
in span probes and fingerprints the backend knob. A probe whose target
was renamed or deleted only shows up there as a zero-call probe; this
test makes the same check part of the tier-1 suite.
"""

from pathlib import Path

from repro.backend import NumpyBackend, active_backend, backend_name
from repro.tuning import TuningConfig

ROOT = Path(__file__).resolve().parents[1]


def test_every_probe_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.probes import Probes, SpanLog

    original = NumpyBackend.mod_mul
    with Probes(SpanLog()) as probes:
        assert probes.missing == []
        assert type(active_backend()).mod_mul is not original
    assert NumpyBackend.mod_mul is original
    # perfbench's machine fingerprint
    assert backend_name() == "numpy"
    assert TuningConfig()["backend"] == "numpy"
