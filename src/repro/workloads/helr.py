"""HELR: logistic regression over CKKS (Table XIV "HELR").

Two layers, as everywhere in this reproduction:

* :func:`helr_iteration_schedule` — the full-scale operation schedule of
  one training iteration [25] (BSGS matrix-vector products for the
  forward pass and gradient, a degree-3 polynomial sigmoid, amortized
  bootstrapping every ``boot_period`` iterations), priced by the
  simulator;
* :class:`EncryptedLogisticRegression` — a *functional* mini-HELR that
  actually trains on encrypted data at toy ring sizes, validated against
  plaintext gradient descent in tests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import numpy as np

from ..ckks import CkksContext, ParameterSets
from ..ckks.hoisting import hoisted_rotations
from ..ckks.params import CkksParams
from ..core.scheduler import OperationScheduler
from .bootstrap_workload import bootstrap_schedule
from .schedules import HOISTED, WorkloadSchedule, WorkloadTiming

#: Degree-3 least-squares fit of the sigmoid on [-8, 8] from [25].
SIGMOID3_COEFFS = (0.5, 0.15012, 0.0, -0.0015930)

#: Fan-in of one all-reduce round: a round at stride ``s`` adds the
#: rotations by ``s, 2s, .., (RADIX-1)s`` in one hoisted rotate-and-sum.
#: Radix 4 at 2048 slots takes five hoisted rounds plus one plain
#: rotation and 16 keys (radix 2: eleven key switches, 11 keys). Radix 8
#: was measured too (perfbench ``helr``, n = 2^12, one 20 s run each on
#: a 2-CPU host): 8% faster per request (23.6 against 25.7 reference
#: units) but it needs 24 keys, which raised peak RSS from 97 to 119 MB
#: and set-up from 1.0 to 1.3 s (the RSS bound of the benchmark is
#: 10%), and the simulator prices its HELR iteration higher (23763
#: against 23615 µs).
ALLREDUCE_RADIX = 4


def allreduce_rounds(slots: int) -> List[List[int]]:
    """The rotation steps of each all-reduce round over ``slots`` (a
    power of two): strides ``1, RADIX, RADIX^2, ..`` with steps
    ``{s, 2s, .., (RADIX-1)s}``, the last round cut to the slots left
    (at 2048 slots: strides 1, 4, 16, 64, 256, then ``[1024]``)."""
    rounds = []
    stride = 1
    while stride < slots:
        fan = min(ALLREDUCE_RADIX, slots // stride)
        rounds.append([k * stride for k in range(1, fan)])
        stride *= fan
    return rounds


def helr_iteration_schedule(params: CkksParams = None, *,
                            features: int = 196,
                            boot_period: int = 2,
                            fft_factored: bool = False,
                            fuse: int = 1) -> WorkloadSchedule:
    """One HELR training iteration at the paper's HELR parameter set.

    ``fft_factored``/``fuse`` select the sparse-factorized bootstrap
    schedule; the defaults keep the published pricing.
    """
    params = params or ParameterSets.helr()
    top = params.max_level
    sched = WorkloadSchedule("HELR-iteration")
    rot_groups = max(1, int(math.isqrt(features)))
    for phase, lvl in (("forward", top), ("gradient", top - 3)):
        # BSGS matrix-vector product: one full rotation then hoisted ones.
        sched.add("hrotate", lvl, 1, note=f"{phase}.rot")
        sched.add("hrotate", lvl, 2 * rot_groups - 1, discount=HOISTED,
                  note=f"{phase}.rot")
        sched.add("pmult", lvl, rot_groups, note=f"{phase}.pmult")
        sched.add("hadd", lvl, rot_groups, note=f"{phase}.add")
        sched.add("rescale", lvl, 1, note=f"{phase}.rescale")
    # Degree-3 sigmoid: two ciphertext products plus coefficient PMULTs.
    sched.add("hmult", top - 2, 2, note="sigmoid.hmult")
    sched.add("pmult", top - 2, 3, note="sigmoid.pmult")
    sched.add("hadd", top - 2, 3, note="sigmoid.add")
    # Weight update.
    sched.add("pmult", top - 5, 1, note="update.pmult")
    sched.add("hadd", top - 5, 1, note="update.add")
    # Amortized bootstrapping.
    boot = bootstrap_schedule(params, fft_factored=fft_factored, fuse=fuse)
    for item in boot.items:
        sched.items.append(dataclasses.replace(
            item, count=item.count / boot_period,
            note=f"boot.{item.note or item.op}"))
    return sched


def simulate_helr_iteration(params: CkksParams = None, *, batch: int = 1,
                            scheduler: OperationScheduler = None
                            ) -> WorkloadTiming:
    """Amortized ms/iteration (the Table XIV HELR metric)."""
    params = params or ParameterSets.helr()
    scheduler = scheduler or OperationScheduler(params)
    return helr_iteration_schedule(params).price(scheduler, batch=batch)


class EncryptedLogisticRegression:
    """Functional mini-HELR: gradient descent on encrypted samples.

    One sample's feature vector per ciphertext (zero-padded to the slot
    count). Per iteration and sample: a slot-wise product with the
    encrypted weights, a rotation all-reduce to broadcast ``z = x.w`` to
    every slot, the degree-3 polynomial sigmoid, and a masked gradient
    accumulation — all under encryption. Tests validate against
    :func:`plaintext_reference`.
    """

    def __init__(self, ctx: CkksContext, keys, *, learning_rate: float = 1.0):
        self.ctx = ctx
        self.keys = keys
        self.lr = learning_rate

    # -- public API ---------------------------------------------------------------

    def train(self, x: np.ndarray, y: np.ndarray, *,
              iterations: int = 2) -> np.ndarray:
        """Train and return the decrypted weights (features <= slots)."""
        samples, features = x.shape
        if features > self.ctx.slots:
            raise ValueError("toy HELR requires features <= slots")
        ev = self.ctx.evaluator
        c0, c1, _, c3 = SIGMOID3_COEFFS

        ct_x = [self.ctx.encrypt(x[i], self.keys) for i in range(samples)]
        ct_w = self.ctx.encrypt(np.zeros(features), self.keys)

        # The gradient plaintext of sample i depends only on (i, level):
        # memoize so later iterations (which revisit the same levels)
        # never re-encode.
        pt_cache = {}

        def pt_sample(i, level):
            key = (i, level)
            if key not in pt_cache:
                pt_cache[key] = self.ctx.encode(x[i], level=level)
            return pt_cache[key]

        for _ in range(iterations):
            grad_acc = None
            for i in range(samples):
                lvl = min(ct_w.level, ct_x[i].level)
                prod = ev.hmult(ev.level_down(ct_x[i], lvl),
                                ev.level_down(ct_w, lvl), self.keys)
                ct_z = self._allreduce(prod)  # z in every slot
                # sigma(z) = c0 + c1 z + c3 z^3.
                ct_z2 = ev.hmult(ct_z, ct_z, self.keys)
                ct_z3 = ev.hmult(ct_z2, ev.level_down(ct_z, ct_z2.level),
                                 self.keys)
                ct_sig = ev.add_scalar(
                    ev.rescale(ev.hadd_matched(
                        ev.rescale(ev.pmult_scalar(ct_z, c1)),
                        ev.pmult_scalar(ct_z3, c3),
                    )),
                    c0 - float(y[i]),  # fold the label subtraction in
                )
                # gradient contribution: (sigma - y) * x_i.
                pt_x = pt_sample(i, ct_sig.level)
                ct_g = ev.rescale(ev.pmult(ct_sig, pt_x))
                grad_acc = ct_g if grad_acc is None else ev.hadd_matched(
                    ev.level_down(grad_acc,
                                  min(grad_acc.level, ct_g.level)),
                    ev.level_down(ct_g, min(grad_acc.level, ct_g.level)),
                )
            ct_step = ev.rescale(
                ev.pmult_scalar(grad_acc, -self.lr / samples)
            )
            ct_w = ev.hadd_matched(
                ev.level_down(ct_w, min(ct_w.level, ct_step.level)),
                ev.level_down(ct_step, min(ct_w.level, ct_step.level)),
            )
        return self.ctx.decrypt_decode_real(ct_w, self.keys)[:features]

    def _allreduce(self, ct):
        """Rotation all-reduce: every slot becomes the sum of all slots.

        Each round of :func:`allreduce_rounds` is one hoisted
        rotate-and-sum (one ModUp, one inner product per step, one
        ModDown); a round with a single rotation has nothing to share and
        stays a plain ``hrotate`` + ``hadd``.
        """
        ev = self.ctx.evaluator
        for steps in allreduce_rounds(self.ctx.slots):
            if len(steps) == 1:
                ct = ev.hadd(ct, ev.hrotate(ct, steps[0], self.keys))
            else:
                ct = hoisted_rotations(ev, ct, steps, self.keys).sum()
        return ct

    @staticmethod
    def required_rotations(slots: int) -> List[int]:
        """Exactly the steps the all-reduce rounds rotate by."""
        return sorted(s for steps in allreduce_rounds(slots) for s in steps)


def plaintext_reference(x: np.ndarray, y: np.ndarray, *, iterations: int,
                        learning_rate: float = 1.0) -> np.ndarray:
    """The same training loop in the clear (degree-3 sigmoid)."""
    c0, c1, _, c3 = SIGMOID3_COEFFS
    samples, features = x.shape
    w = np.zeros(features)
    for _ in range(iterations):
        z = x @ w
        sig = c0 + c1 * z + c3 * z**3
        grad = (sig - y) @ x / samples
        w = w - learning_rate * grad
    return w
