"""The single compute backend and its one-point knob."""

import pytest

from repro.backend import NumpyBackend, active_backend, backend_name
from repro.tuning import TuningConfig, build_pipeline
from repro.tuning.knobs import KnobDomainError


def test_default_backend_is_numpy():
    assert backend_name() == "numpy"
    assert isinstance(active_backend(), NumpyBackend)
    assert active_backend() is active_backend()
    assert build_pipeline().backend == "numpy"


def test_removed_cupy_backend_is_unknown():
    with pytest.raises(KnobDomainError, match="'cupy'"):
        build_pipeline(TuningConfig({"backend": "cupy"}))



def test_call_sites_look_methods_up_at_call_time(monkeypatch):
    """Replacing a method on the backend class reaches every caller —
    the hook perfbench's layer probes rely on."""
    from repro.ckks import CkksContext, ParameterSets

    calls = {}
    for name in ("mod_add", "mod_sub", "mod_mul", "wide_dot"):
        original = getattr(NumpyBackend, name)

        def counted(self, *args, _name=name, _original=original, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self, *args, **kw)

        monkeypatch.setattr(NumpyBackend, name, counted)
    ctx = CkksContext.create(ParameterSets.toy(), seed=0)
    keys = ctx.keygen()
    a = ctx.encrypt([0.5, 0.25], keys)
    b = ctx.encrypt([0.125, 0.75], keys)
    ctx.evaluator.hsub(ctx.evaluator.hadd(a, b), b)
    ctx.hmult(a, b, keys)
    assert set(calls) == {"mod_add", "mod_sub", "mod_mul", "wide_dot"}
