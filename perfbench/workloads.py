"""The three workloads: inputs from the seed, one request, its check.

Each workload is a closed loop driven by one caller: ``setup()`` builds
the state and serves the first request; ``request()`` serves one more
and returns ``(ok, error)``, where ``ok`` is the request's correctness
check and ``error`` the worst absolute error it measured (``None`` for
pricing).  ``block`` is the number of requests the timed loop serves as
one unit (one pass over the pricing mix).  Only public ``repro`` entry
points are called, and the program sees only inputs generated from the
workload seed.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Worst slot error accepted from one boot-mid bootstrap (3 bits).
#: Measured before it was fixed: 0.083-0.102 over 60 requests at key
#: and input seeds 1-6 (3.30-3.60 bits); the bound is 23% above the
#: worst seen.
BOOT_MAX_ERR = 0.125

#: Worst weight error against ``plaintext_reference`` accepted from one
#: HELR ``train`` call.  Measured before it was fixed: 8.1e-5-1.24e-3
#: over 60 requests at key and input seeds 1-6; the bound is twice the
#: worst seen.
HELR_MAX_ERR = 2.5e-3

#: One sample per batch keeps a request near 1 s, so a 20 s run
#: collects ~20 samples.
HELR_SAMPLES = 1
HELR_FEATURES = 16

#: Seed of the CKKS context (keys and encryption noise).  It is fixed so
#: that runs differ only in their seeded inputs: the achieved precision
#: depends on the key material (HELR's worst error moves by ~1 bit
#: between key seeds), which would otherwise swamp run-to-run spread.
CONTEXT_SEED = 0


class BootstrapWorkload:
    """Warm slim bootstrap on the boot-mid set (n=2^9, 16 levels)."""

    name = "bootstrap"
    block = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])

    def setup(self) -> Tuple[bool, Optional[float]]:
        from repro.ckks import CkksContext, CkksParams
        from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper

        params = CkksParams(n=512, max_level=16, num_special=2, dnum=17,
                            scale_bits=26, secret_hamming_weight=8)
        self.ctx = CkksContext.create(params, seed=CONTEXT_SEED)
        self.boot = Bootstrapper(self.ctx, BootstrapConfig(
            sine_degree=63, eval_range=4.5, fft_factored=True, fuse=2))
        self.keys = self.ctx.keygen(rotations=self.boot.required_rotations(),
                                    conjugation=True)
        return self.request()

    def request(self) -> Tuple[bool, Optional[float]]:
        ctx = self.ctx
        vals = self.rng.uniform(-0.75, 0.75, ctx.slots)
        ct = ctx.encrypt(vals, self.keys, level=self.boot.stc_levels)
        out = self.boot.bootstrap(ct, self.keys)
        err = float(np.max(np.abs(ctx.decrypt_decode_real(out, self.keys)
                                  - vals)))
        return err <= BOOT_MAX_ERR, err


class HelrWorkload:
    """One functional encrypted logistic-regression iteration (n=2^12)."""

    name = "helr"
    block = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])

    def setup(self) -> Tuple[bool, Optional[float]]:
        from repro.ckks import CkksContext, CkksParams
        from repro.workloads.helr import EncryptedLogisticRegression

        params = CkksParams(n=4096, max_level=7, num_special=3, dnum=3,
                            scale_bits=28)
        self.ctx = CkksContext.create(params, seed=CONTEXT_SEED)
        keys = self.ctx.keygen(
            rotations=EncryptedLogisticRegression.required_rotations(
                self.ctx.slots))
        self.model = EncryptedLogisticRegression(self.ctx, keys)
        return self.request()

    def request(self) -> Tuple[bool, Optional[float]]:
        from repro.workloads.helr import plaintext_reference

        x = self.rng.uniform(-1, 1, size=(HELR_SAMPLES, HELR_FEATURES))
        y = (x.sum(axis=1) > 0).astype(float)
        w = self.model.train(x, y, iterations=1)
        err = float(np.max(np.abs(w - plaintext_reference(
            x, y, iterations=1))))
        return err <= HELR_MAX_ERR, err


#: The non-recording knobs pricing requests vary, with their grids.
PRICING_KNOBS: Dict[str, Tuple] = {
    "machine.style": ("pe", "kf"),
    "dagopt.optimize": (False, True),
    "ntt.variant": ("wd-tensor", "wd-cuda", "wd-ftc", "wd-bo", "wd-fuse"),
    "gpu.model": ("NVIDIA A100-PCIE-80G", "NVIDIA A100-SXM-40G",
                  "NVIDIA H100-SXM", "NVIDIA V100", "AMD MI100"),
    "geometry.threads_per_block": (64, 128, 256, 512, 1024),
}
PRICING_PER_WORKLOAD = 10
PRICING_DESIGN_SEED = 0
#: Assignments the simulator refuses (the V100 has no INT8 tensor cores
#: for the tensor-core NTT), kept out of the cycle.
PRICING_INVALID = ({"gpu.model": "NVIDIA V100", "ntt.variant": "wd-tensor"},)


def _valid(assignment: Dict) -> bool:
    return not any(all(assignment[k] == v for k, v in bad.items())
                   for bad in PRICING_INVALID)


def _pricing_mix() -> List[Tuple[str, Dict]]:
    """The request mix: for each catalog workload, 10 knob assignments in
    which every knob value appears equally often.  It is drawn once from
    a fixed design seed, so every run prices the same mix; which values
    combine moves the median request cost by ~10% between draws."""
    rng = np.random.default_rng(PRICING_DESIGN_SEED)
    mix = []
    for wl in ("boot", "helr", "resnet"):
        rows = None
        while rows is None or not all(_valid(row) for row in rows):
            columns = {}
            for knob, grid in PRICING_KNOBS.items():
                col = list(itertools.islice(itertools.cycle(grid),
                                            PRICING_PER_WORKLOAD))
                columns[knob] = [col[i] for i in rng.permutation(len(col))]
            rows = [{k: columns[k][i] for k in PRICING_KNOBS}
                    for i in range(PRICING_PER_WORKLOAD)]
        mix.extend((wl, row) for row in rows)
    return mix


def pricing_requests(seed: int) -> List[Tuple[str, Dict]]:
    """The request cycle: the fixed mix in an order drawn from ``seed``."""
    mix = _pricing_mix()
    order = np.random.default_rng([seed, 3]).permutation(len(mix))
    return [mix[i] for i in order]


class PricingWorkload:
    """Simulator pricing of the recorded catalog on fresh gym envs."""

    name = "pricing"

    def __init__(self, seed: int):
        self.cycle = pricing_requests(seed)
        #: Requests per unit the loop runs whole: one pass of the cycle.
        self.block = len(self.cycle)
        self.next = 0
        self.seen: Dict[str, float] = {}

    def setup(self) -> Tuple[bool, Optional[float]]:
        from simulated import record_catalog

        record_catalog()
        return True, None

    def request(self) -> Tuple[bool, Optional[float]]:
        from simulated import price

        wl, assignment = self.cycle[self.next % len(self.cycle)]
        self.next += 1
        latency = price(wl, assignment)
        key = repr((wl, sorted(assignment.items())))
        # Repeats of a point across cycles must price bit-identically.
        ok = self.seen.setdefault(key, latency) == latency and latency > 0
        return ok, None


WORKLOADS = {w.name: w for w in (BootstrapWorkload, HelrWorkload,
                                 PricingWorkload)}
