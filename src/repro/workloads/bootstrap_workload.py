"""Packed bootstrapping workload (Table XIV "Boot").

Builds the slim-bootstrapping operation schedule of [14], [26] at the
Boot parameter set (N=2^16, L=34, K=12): SlotToCoeff and CoeffToSlot as
radix-decomposed BSGS linear transforms with hoisted rotations, ModRaise
as element-wise work, and EvalMod as a BSGS Chebyshev sine evaluation.
The same pipeline runs *functionally* at toy scale in
:mod:`repro.ckks.bootstrap`; here it is priced at full scale.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from ..ckks.params import CkksParams, ParameterSets
from ..ckks.polyeval import chebyshev_plan
from ..core.scheduler import OperationScheduler
from ..tuning.knobs import knob_default
from .schedules import WorkloadSchedule, WorkloadTiming


def linear_transform_schedule(name: str, slots: int, level: int, *,
                              stages: int = 3,
                              fft_factored: Optional[bool] = None,
                              fuse: Optional[int] = None
                              ) -> WorkloadSchedule:
    """BSGS radix-decomposed homomorphic DFT (CoeffToSlot / SlotToCoeff).

    The s-point transform splits into ``stages`` radix-``s^(1/stages)``
    stages; each stage is a BSGS matrix-vector product with
    ``2*sqrt(radix)`` rotation groups (baby steps hoisted) and ``radix``
    plaintext multiplications, consuming one level.

    ``fft_factored`` prices the sparse radix-2 factorization instead
    (:func:`repro.ckks.bootstrap.special_fft_factors`): ``log2(s)/fuse``
    stages of at most ``3**fuse`` diagonals each — the functional path's
    cost model.  ``None`` defaults resolve from the ``boot.*`` knob
    registry — the *same* source ``BootstrapConfig`` reads, so this
    schedule and the functional bootstrap cannot disagree about what the
    default pipeline looks like.
    """
    if fft_factored is None:
        fft_factored = knob_default("boot.fft_factored")
    if fuse is None:
        fuse = knob_default("boot.fuse")
    sched = WorkloadSchedule(name)
    if fft_factored:
        if fuse < 1:
            raise ValueError(f"fuse must be >= 1, got {fuse}")
        m = max(1, slots.bit_length() - 1)
        num_stages = -(-m // fuse)
        for stage in range(num_stages):
            lvl = max(1, level - stage)
            k = min(fuse, m - stage * fuse)
            diags = min(3 ** k, slots)
            # One full rotation pays the ModUp; the remaining diagonal
            # rotations share it.
            sched.add("hrotate", lvl, 1, note=f"{name}.stage{stage}.rot")
            sched.add("hrotate", lvl, diags - 1, hoisted=True,
                      note=f"{name}.stage{stage}.rot")
            sched.add("pmult", lvl, diags,
                      note=f"{name}.stage{stage}.pmult")
            sched.add("rescale", lvl, 1,
                      note=f"{name}.stage{stage}.rescale")
        return sched
    radix = max(2, round(slots ** (1.0 / stages)))
    baby = max(1, int(math.isqrt(radix)))
    giant = max(1, radix // baby)
    for stage in range(stages):
        lvl = max(1, level - stage)
        # Baby-step rotations: one full, the rest hoisted on the shared
        # ModUp; giant-step rotations likewise.
        sched.add("hrotate", lvl, 1, note=f"{name}.stage{stage}.rot")
        sched.add("hrotate", lvl, baby - 1, hoisted=True,
                  note=f"{name}.stage{stage}.rot")
        sched.add("hrotate", lvl, giant - 1, hoisted=True,
                  note=f"{name}.stage{stage}.rot")
        sched.add("pmult", lvl, radix, note=f"{name}.stage{stage}.pmult")
        sched.add("rescale", lvl, 1, note=f"{name}.stage{stage}.rescale")
    return sched


def eval_mod_schedule(level: int, *,
                      degree: Optional[int] = None) -> WorkloadSchedule:
    """BSGS Chebyshev sine evaluation: ~2 sqrt(degree) ciphertext products.

    The HMULTs and the scalar PMULTs (one addition each), at the levels
    they run, come from :func:`~repro.ckks.polyeval.chebyshev_plan` over
    the odd support of the sine — the plan the functional evaluator
    executes — plus the input-normalization and output rescales.
    ``degree``
    defaults from the ``boot.sine_degree`` knob (the value
    ``BootstrapConfig`` uses), never a local literal.
    """
    if degree is None:
        degree = knob_default("boot.sine_degree")
    plan = chebyshev_plan(range(1, degree + 1, 2))
    sched = WorkloadSchedule("EvalMod")
    for op, depths in (("hmult", plan.hmult_depths),
                       ("pmult", plan.pmult_depths),
                       ("hadd", plan.pmult_depths)):
        for lvl, count in sorted(Counter(level - d for d in depths).items(),
                                 reverse=True):
            sched.add(op, max(1, lvl), count, note=f"EvalMod.{op}")
    sched.add("rescale", max(1, level - plan.depth), 2,
              note="EvalMod.rescale")
    return sched


def bootstrap_schedule(params: CkksParams = None, *,
                       fft_factored: Optional[bool] = None,
                       fuse: Optional[int] = None) -> WorkloadSchedule:
    """The full slim bootstrap at the Boot parameter set.

    ``fft_factored``/``fuse`` price the sparse-factorized StC/CtS
    variant; ``None`` resolves both from the ``boot.*`` knob registry
    (whose shipped defaults keep the published dense-radix schedule).
    """
    if fft_factored is None:
        fft_factored = knob_default("boot.fft_factored")
    if fuse is None:
        fuse = knob_default("boot.fuse")
    params = params or ParameterSets.boot()
    slots = params.slots
    top = params.max_level
    sched = WorkloadSchedule("Boot")
    # SlotToCoeff runs on the nearly-exhausted ciphertext (low levels).
    stc_level = (
        max(3, -(-max(1, slots.bit_length() - 1) // fuse))
        if fft_factored else 3
    )
    sched.extend(linear_transform_schedule(
        "StC", slots, stc_level, stages=3,
        fft_factored=fft_factored, fuse=fuse,
    ))
    # ModRaise: element-wise lift onto the full chain.
    sched.add("hadd", top, 1, note="ModRaise")
    # CoeffToSlot at the top of the chain.
    sched.extend(linear_transform_schedule(
        "CtS", slots, top, stages=3,
        fft_factored=fft_factored, fuse=fuse,
    ))
    # EvalMod below CtS.
    sched.extend(eval_mod_schedule(top - 3))
    return sched


def simulate_bootstrap(params: CkksParams = None, *, batch: int = 1,
                       scheduler: OperationScheduler = None
                       ) -> WorkloadTiming:
    """Price one packed bootstrap; Table XIV reports amortized ms."""
    params = params or ParameterSets.boot()
    scheduler = scheduler or OperationScheduler(params)
    return bootstrap_schedule(params).price(scheduler, batch=batch)
