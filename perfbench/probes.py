"""Host-side span probes around the public entry points of each layer.

A :class:`SpanLog` keeps every span in memory as a flat list (name,
start, end, parent index, request id, measured quantity) and turns it
into per-layer totals at the end of a run.  :class:`Probes` installs
the wrappers for the duration of a ``with`` block and restores every
original on exit, so the untraced requests of the same run execute the
program untouched.

Each function is wrapped at the name its caller looks up: a module
function is rebound in *every* ``repro`` module that holds it (for
example ``keyswitch`` in ``repro.ckks.ops``, ``hoisted_rotations`` in
``repro.ckks.linear_transform``), and a method is replaced on its class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record fields (a list, so closing a span is an in-place update).
NAME, START, END, PARENT, REQUEST, QTY, CHILD_NS = range(7)


class SpanLog:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request: Any = None
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.request, 0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, qty: float = 0) -> None:
        rec = self.spans[idx]
        rec[END] = time.perf_counter_ns()
        rec[QTY] = qty
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_NS] += rec[END] - rec[START]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable,
             qty: Optional[Callable[..., float]] = None) -> Callable:
        """``fn`` inside a span; ``qty(result, *args, **kwargs)`` gives
        the span's measured quantity (rows, computed bytes)."""
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = log.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.close(idx)
                raise
            log.close(idx, qty(result, *args, **kwargs) if qty else 0)
            return result

        return traced

    def wrap_context(self, name: str, fn: Callable) -> Callable:
        """A context-manager factory whose ``with`` body is one span."""
        log = self

        @functools.wraps(fn)
        @contextlib.contextmanager
        def traced(*args, **kwargs):
            with log.span(name):
                with fn(*args, **kwargs) as value:
                    yield value

        return traced

    # -- aggregation -------------------------------------------------------

    def layer_totals(self, request_filter: Callable[[Any], bool]
                     ) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s, qty}`` over the spans whose
        request id passes ``request_filter``."""
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.spans:
            if not request_filter(rec[REQUEST]):
                continue
            acc = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "qty": 0.0})
            dur = rec[END] - rec[START]
            acc["calls"] += 1
            acc["total_s"] += dur * 1e-9
            acc["self_s"] += (dur - rec[CHILD_NS]) * 1e-9
            acc["qty"] += rec[QTY]
        return out

    def write_chrome_trace(self, path: str, *, max_requests: int) -> int:
        """Write the spans of set-up and of the first ``max_requests``
        traced requests as Chrome/Perfetto trace events; returns the
        number of events written."""
        if not self.spans:
            return 0
        t0 = min(rec[START] for rec in self.spans)
        kept_requests: List[Any] = []
        events = []
        for rec in self.spans:
            req = rec[REQUEST]
            if isinstance(req, int):
                if req not in kept_requests:
                    if len(kept_requests) >= max_requests:
                        continue
                    kept_requests.append(req)
            events.append({
                "name": rec[NAME], "ph": "X", "pid": 1, "tid": 1,
                "ts": (rec[START] - t0) / 1e3,
                "dur": (rec[END] - rec[START]) / 1e3,
                "args": {"request": req, "parent": rec[PARENT],
                         "qty": rec[QTY]},
            })
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "host (measured)"}},
        ] + events, "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(events)


# -- quantity helpers --------------------------------------------------------

def _rows(result, x, *args, **kwargs) -> float:
    """Residue rows an NTT pass transformed (every axis but the last)."""
    return x.size // x.shape[-1]


def _binary_bytes(result, self, a, b, *args, **kwargs) -> float:
    """Computed bytes of an element-wise op: both operands read, the
    result written (broadcast operands count at their own size)."""
    return a.nbytes + getattr(b, "nbytes", 0) + result.nbytes


def _wide_dot_bytes(result, self, ext, rows, *args, **kwargs) -> float:
    return ext.nbytes + rows.nbytes + result.nbytes


# -- the probe table ---------------------------------------------------------
#
# (probe name, module, attribute path, kind, quantity):
#   "method"   replaces ``Class.method`` on the class;
#   "backend"  replaces the method on the active compute backend's class;
#   "function" rebinds the function in every repro module that holds it;
#   "context"  as "function", for a context-manager factory whose ``with``
#              body becomes the span.

PROBES = [
    ("ckks.bootstrap.slot_to_coeff", "repro.ckks.bootstrap",
     "Bootstrapper.slot_to_coeff", "method", None),
    ("ckks.bootstrap.mod_raise", "repro.ckks.bootstrap",
     "Bootstrapper.mod_raise", "method", None),
    ("ckks.bootstrap.coeff_to_slot", "repro.ckks.bootstrap",
     "Bootstrapper.coeff_to_slot", "method", None),
    ("ckks.bootstrap.eval_mod", "repro.ckks.bootstrap",
     "Bootstrapper.eval_mod", "method", None),
    ("ckks.polyeval.eval_chebyshev", "repro.ckks.polyeval",
     "PolynomialEvaluator.eval_chebyshev", "method", None),
    ("ckks.linear_transform.apply", "repro.ckks.linear_transform",
     "LinearTransform.apply", "method", None),
    ("ckks.linear_transform.compile", "repro.ckks.linear_transform",
     "LinearTransform.compile", "method", None),
    ("ckks.hoisting.hoisted_rotations", "repro.ckks.hoisting",
     "hoisted_rotations", "function", None),
    ("ckks.keyswitch", "repro.ckks.keyswitch", "keyswitch", "function",
     None),
    ("ckks.ops.hmult", "repro.ckks.ops", "Evaluator.hmult", "method", None),
    ("ckks.ops.hrotate", "repro.ckks.ops", "Evaluator.hrotate", "method",
     None),
    ("ckks.ops.rescale", "repro.ckks.ops", "Evaluator.rescale", "method",
     None),
    ("numtheory.rns.basis_constructions", "repro.numtheory.rns",
     "RNSBasis.__init__", "method", None),
    ("numtheory.rns.extend_basis", "repro.numtheory.rns", "extend_basis",
     "function", None),
    ("numtheory.rns.extend_basis_stacked", "repro.numtheory.rns",
     "extend_basis_stacked", "function", None),
    ("numtheory.rns.mod_down", "repro.numtheory.rns", "mod_down",
     "function", None),
    ("ntt.stacked.ntt", "repro.ntt.stacked", "stacked_negacyclic_ntt",
     "function", _rows),
    ("ntt.stacked.intt", "repro.ntt.stacked", "stacked_negacyclic_intt",
     "function", _rows),
    ("backend.mod_add", "repro.backend", "mod_add", "backend",
     _binary_bytes),
    ("backend.mod_sub", "repro.backend", "mod_sub", "backend",
     _binary_bytes),
    ("backend.mod_mul", "repro.backend", "mod_mul", "backend",
     _binary_bytes),
    ("backend.wide_dot", "repro.backend", "wide_dot", "backend",
     _wide_dot_bytes),
    ("ckks.encoding.encode", "repro.ckks.encoding", "Encoder.encode",
     "method", None),
    ("ckks.encoding.decode", "repro.ckks.encoding", "Encoder.decode",
     "method", None),
    ("ckks.keys.generate", "repro.ckks.keys", "KeyGenerator.generate",
     "method", None),
    ("ckks.keys.generate_rotation", "repro.ckks.keys",
     "KeyGenerator.generate_rotation", "method", None),
    ("ckks.keys.generate_relin", "repro.ckks.keys",
     "KeyGenerator.generate_relin", "method", None),
    ("trace.recorder.record", "repro.trace.recorder", "record", "context",
     None),
    ("tuning.build_pipeline", "repro.tuning.config", "build_pipeline",
     "function", None),
    ("trace.opt.optimize_trace", "repro.trace.opt.pipeline",
     "optimize_trace", "function", None),
    ("trace.lowering.lower_trace", "repro.trace.lowering", "lower_trace",
     "function", None),
    ("gpusim.run_dag", "repro.gpusim.streams", "run_dag", "function", None),
    ("serving.run", "repro.serving.simulator", "ServingSimulator.run",
     "method", None),
]


def _resolve(module: str, path: str, kind: str):
    """The object a probe wraps: ``(class, attribute)`` for methods, the
    function itself otherwise."""
    mod = importlib.import_module(module)
    if kind == "backend":
        cls = type(mod.active_backend())
        getattr(cls, path)
        return cls, path
    if kind == "method":
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name)
        getattr(cls, attr)
        return cls, attr
    return getattr(mod, path)


# -- installation ------------------------------------------------------------

def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "repro" or name.startswith("repro."))]


class Probes:
    """Installs :data:`PROBES` into the loaded ``repro`` modules.

    ``with Probes(log):`` wraps; leaving the block restores every
    attribute it replaced.  A probe whose target is gone is listed in
    :attr:`missing` instead of failing the run, so the benchmark reports
    it as a probe that saw no calls.
    """

    def __init__(self, log: SpanLog):
        self.log = log
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        #: Probes whose target no longer exists in the program.
        self.missing: List[str] = []
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    def __enter__(self) -> "Probes":
        # Resolve (and so import) every target before wrapping any: a
        # module first imported while a wrapper is live would bind it.
        targets = []
        for name, module, path, kind, qty in PROBES:
            try:
                targets.append((name, _resolve(module, path, kind), kind,
                                qty))
            except (ImportError, AttributeError):
                self.missing.append(name)
        for name, owner, kind, qty in targets:
            if kind in ("method", "backend"):
                cls, attr = owner
                self._set(cls, attr, self.log.wrap(name, getattr(cls, attr),
                                                    qty))
            else:
                wrapped = (self.log.wrap_context(name, owner)
                           if kind == "context"
                           else self.log.wrap(name, owner, qty))
                self._wrappers[id(wrapped)] = (wrapped, owner)
                for mod in _repro_modules():
                    for key, value in list(vars(mod).items()):
                        if value is owner:
                            self._set(mod, key, wrapped)
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> bool:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()
        # A module the program imported inside the block may hold a
        # wrapper the undo list never saw.
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        self._wrappers.clear()
        return False
