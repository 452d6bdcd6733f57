"""The compute backend of the RNS/NTT hot path.

Every batched kernel the profiler ranks hot — elementwise modular
arithmetic, the Barrett/Montgomery reduce chains, the stacked NTT/INTT
and the key-switch ``wide_dot`` inner product — is a method of the one
:class:`NumpyBackend` instance that :func:`active_backend` returns.

Call sites look the method up on that instance at call time
(``active_backend().mod_mul(...)``). That lookup is where perfbench's
layer probes wrap the class methods, and the ``-> NumpyBackend`` return
annotation is how fhelint resolves such a call to the method's
``@bounded`` contract. See DESIGN.md §11.
"""

from __future__ import annotations

from ..tuning.knobs import Choice, KnobSpec, register_knob
from .numpy_backend import NumpyBackend

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------

register_knob(KnobSpec(
    name="backend", layer="backend",
    domain=Choice(("numpy",)), default="numpy",
    doc="Array-ops backend the functional engine dispatches through "
        "(numpy is the only one).",
    observe=lambda pipe: pipe.backend,
))

_ACTIVE = NumpyBackend()


def active_backend() -> NumpyBackend:
    """The backend every hot kernel dispatches through."""
    return _ACTIVE


def backend_name() -> str:
    """Name of the backend (always ``"numpy"``)."""
    return _ACTIVE.name


__all__ = ["NumpyBackend", "active_backend", "backend_name"]
