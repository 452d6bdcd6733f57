"""Trace IR: what one functional CKKS run actually executed.

A :class:`TraceEvent` is one *device-stage* of a homomorphic operation —
an NTT/INTT pass over so-many residue rows, a ModUp/ModDown, a wide-dot
inner product, an automorphism gather, an element-wise kernel — emitted
by the instrumented functional hot paths (:mod:`repro.ckks`) while a
:class:`~repro.trace.recorder.TraceRecorder` is active.  An
:class:`OpTrace` is the ordered list of events of one recording.

Shapes are stored in **ring-degree-free units** (residue rows, prime
counts, digit counts, polynomial counts); the ring degree ``n`` lives
once on the trace.  That is what makes proxy-scale recording work: a
bootstrap recorded functionally at a small proxy ring that shares the
target's modulus-chain structure (``max_level``, ``num_special``,
``dnum``) lowers to full-size kernels by retargeting ``n`` alone — every
level, digit and row count in the trace is already the true one.

Dependencies are *data* dependencies: the recorder maps each read buffer
to the event that last wrote it, so the lowered kernel DAG preserves
exactly the ordering the functional run required and nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.annotations import frozen

#: Event kinds the lowering understands (see repro.trace.lowering).
EVENT_KINDS = (
    "ntt",            # forward NTT over `rows` residue rows
    "intt",           # inverse NTT over `rows` residue rows
    "modup",          # basis extension of `polys` digits: source_primes (summed
                      # over the digits) -> target_primes each
    "moddown",        # ModDown: main_primes/special_primes, polys[, drop: the
                      # top `drop` main primes divided out too (fused rescale)]
    "inner_product",  # keyswitch/wide-dot accumulation: primes, digits[, steps]
    "automorphism",   # gather with sign flips: primes, polys
    "modadd",         # element-wise modular add over `rows` rows
    "modmul",         # element-wise modular multiply over `rows` rows
    "tensor_product", # HMULT d0/d1/d2 kernel over `rows` rows per polynomial
    "divide",         # rescale exact-divide over `rows` output rows, `drop` primes
)

#: Kinds produced only by the optimizer (:mod:`repro.trace.opt`); each
#: carries its primitive constituents verbatim in ``TraceEvent.fused``.
FUSED_KINDS = (
    "fused_elementwise",  # vertical chain: intermediates elided, one launch
    "fused_launch",       # horizontal merge: independent kernels, one launch
)

#: Kinds the recorder may emit (the primitive vocabulary) plus the fused
#: kinds; :func:`validate_trace` and fhelint's T-KIND rule enforce this.
ALL_KINDS = EVENT_KINDS + FUSED_KINDS

#: Primitive kinds that lower to a single element-wise pass — the fusion
#: candidates (chains of these collapse into one ``fused_elementwise``).
ELEMENTWISE_KINDS = ("modadd", "modmul", "tensor_product", "divide")


@frozen
@dataclass(frozen=True)
class TraceEvent:
    """One recorded device-stage.

    ``op`` is the ``/``-joined span path ("hmult/keyswitch"); ``span`` is
    the same path with per-instance counters ("hmult#3/keyswitch#4") so
    stages of *different* invocations never blend.  ``shape`` holds the
    ring-degree-free size fields listed per kind in :data:`EVENT_KINDS`,
    plus optional lowering hints (``split``: the PE plan style launches
    this stage as that many independent kernels; ``steps``: batched
    hoisted-rotation multiplicity).

    ``args`` carries semantic parameters that shapes cannot express —
    today the slot rotation step(s) of an ``automorphism`` event
    (conjugation is the sentinel ``-1``), which is what lets the
    optimizer prove two rotations identical and the bootstrapper audit
    its key set against what a run actually rotated by.

    ``key`` is the key-material identity of an ``inner_product`` event:
    one recorder-scoped ordinal per switching key the reduction consumed
    (one entry per rotation step for batched hoisting, a single entry
    for a plain key-switch, empty for keyless reductions such as
    plaintext-diagonal wide dots).  Two inner products over identical
    inputs but different evk stacks compute different results, so any
    future cross-``inner_product`` CSE must require equal ``key`` tuples
    — the replay tokens of :mod:`repro.trace.opt.replay` already fold
    the field in.

    ``fused`` is empty on recorded events.  Optimizer-produced events
    (:data:`FUSED_KINDS`, and ``ntt``/``intt`` events that absorbed
    twist work) carry their primitive constituents here *verbatim* —
    original eids, deps and shapes — so an optimized trace expands back
    to primitive granularity for replay verification, and downstream
    events keep referencing constituent eids without any rewriting.

    ``scale`` is the CKKS scale of the ciphertext this stage produced,
    recorded where the emitting operation knows it (element-wise stages
    and the post-rescale NTT).  ``None`` means "not a ciphertext-scale
    boundary" — key-switch interior stages pass their input scale
    through.  The static checker (:mod:`repro.analysis.dagcheck`)
    propagates tags along data deps and verifies consistency at adds,
    divides and tensor products; nothing at runtime consumes the field.
    """

    eid: int
    kind: str
    op: str
    span: str
    level: Optional[int]
    shape: Dict[str, int]
    deps: Tuple[int, ...] = ()
    args: Tuple[int, ...] = ()
    key: Tuple[int, ...] = ()
    fused: Tuple["TraceEvent", ...] = ()
    scale: Optional[float] = None

    @property
    def leaf(self) -> str:
        """Innermost span name — the operation this stage belongs to."""
        return self.op.rsplit("/", 1)[-1] if self.op else ""

    @property
    def group(self) -> str:
        """Outermost span name — the workload phase (StC, EvalMod, ...)."""
        return self.op.split("/", 1)[0] if self.op else ""


@frozen
@dataclass(frozen=True)
class OpTrace:
    """One recording: the events of a functional run, in program order.

    ``rotations`` is the declared rotation-key step set the run's keygen
    provisioned (``-1`` = a conjugation key was generated); ``None``
    means the recording did not declare one.  The static key-audit rule
    checks every ``automorphism`` event's step arguments against it.
    """

    label: str
    n: int
    params: Any = None  # CkksParams of the recorded run (opaque here)
    events: Tuple[TraceEvent, ...] = field(default_factory=tuple)
    rotations: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        return len(self.events)

    def kind_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def ops(self) -> List[str]:
        """Top-level span names in first-seen order (workload phases)."""
        seen: List[str] = []
        for e in self.events:
            g = e.group
            if g and (not seen or seen[-1] != g) and g not in seen:
                seen.append(g)
        return seen

    def events_for(self, prefix: str) -> List[TraceEvent]:
        """Events whose span path starts with ``prefix``."""
        return [
            e for e in self.events
            if e.op == prefix or e.op.startswith(prefix + "/")
        ]

    def summary(self) -> str:
        counts = self.kind_counts()
        body = ", ".join(f"{k}: {counts[k]}" for k in sorted(counts))
        return (
            f"OpTrace({self.label!r}, n={self.n}, "
            f"{len(self.events)} events: {body})"
        )

    def expanded(self) -> "OpTrace":
        """The primitive-granularity view: fused events replaced by their
        constituents, in order.  A recorded trace expands to itself; an
        optimized trace expands to something replay-comparable with the
        recording it came from."""
        out: List[TraceEvent] = []
        for e in self.events:
            out.extend(e.fused if e.fused else (e,))
        return replace(self, events=tuple(out))


def validate_trace(trace: OpTrace) -> OpTrace:
    """Structural validity of a (possibly optimized) trace; chainable.

    Checks, for every event in order: the kind is in :data:`ALL_KINDS`;
    shape values are non-negative ints; every dependency references the
    eid of an *earlier* top-level event or of a constituent carried by an
    earlier fused event; fused constituents are primitive (no nesting),
    element-wise where the kind demands it, and consistent with the
    ``fold_pre``/``fold_post`` accounting on folded transforms.  Raises
    ``ValueError`` on the first violation.
    """
    defined: set = set()
    seen_eids: set = set()
    for pos, e in enumerate(trace.events):
        where = f"event #{pos} (eid {e.eid}, kind {e.kind!r})"
        if e.kind not in ALL_KINDS:
            raise ValueError(f"{where}: unknown kind")
        for k, v in e.shape.items():
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{where}: shape[{k!r}] = {v!r}")
        for d in e.deps:
            if d not in defined:
                raise ValueError(
                    f"{where}: dep {d} does not reference an earlier event"
                )
        if e.fused:
            if e.kind in ("ntt", "intt"):
                pre = e.shape.get("fold_pre", 0)
                post = e.shape.get("fold_post", 0)
                if pre + post + 1 != len(e.fused):
                    raise ValueError(
                        f"{where}: fold_pre+fold_post+1 != len(fused)"
                    )
                host = e.fused[pre]
                if host.kind != e.kind:
                    raise ValueError(
                        f"{where}: folded host kind {host.kind!r} differs"
                    )
                twists = e.fused[:pre] + e.fused[pre + 1:]
            elif e.kind == "fused_elementwise":
                twists = e.fused
            elif e.kind == "fused_launch":
                twists = ()
            else:
                raise ValueError(f"{where}: kind cannot carry constituents")
            for c in twists:
                if c.kind not in ELEMENTWISE_KINDS:
                    raise ValueError(
                        f"{where}: constituent eid {c.eid} kind {c.kind!r} "
                        "is not element-wise"
                    )
            group_eids = {c.eid for c in e.fused}
            for c in e.fused:
                if c.fused:
                    raise ValueError(
                        f"{where}: constituent eid {c.eid} is itself fused"
                    )
                if c.kind not in EVENT_KINDS:
                    raise ValueError(
                        f"{where}: constituent eid {c.eid} has non-primitive "
                        f"kind {c.kind!r}"
                    )
                for d in c.deps:
                    if d not in defined and d not in group_eids:
                        raise ValueError(
                            f"{where}: constituent eid {c.eid} dep {d} is "
                            "neither earlier nor inside the group"
                        )
        new_eids = (e.eid,) + tuple(c.eid for c in e.fused)
        for eid in new_eids:
            if eid in seen_eids:
                raise ValueError(f"{where}: duplicate eid {eid}")
            seen_eids.add(eid)
        defined.update(new_eids)
    return trace
