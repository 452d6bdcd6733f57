"""AES-CTR transciphering over CKKS (Table XV).

Transciphering lets a client send AES ciphertexts instead of bulky FHE
ciphertexts: the server evaluates the AES keystream *homomorphically*
(under an encrypted AES key) and subtracts it, converting symmetric
ciphertexts into CKKS ciphertexts.

What the paper ran is an AES-CTR-128 evaluation over CKKS at N=2^16,
L=46 for 2^15 blocks (512 KB) — 3.5 minutes on the A100. We model the
homomorphic evaluation as the byte-sliced AES circuit of the E2E
transciphering line of work [7]: 16 byte-slices of the state, each
SubBytes a low-degree polynomial interpolation over the packed byte
values, ShiftRows free (a slot permutation folded into masks), MixColumns
a handful of slot-wise linear ops, with bootstraps on a level budget.
The client-side AES itself is the real implementation in
:mod:`repro.workloads.aes`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..ckks.params import CkksParams, ParameterSets
from ..core.scheduler import OperationScheduler
from .bootstrap_workload import bootstrap_schedule
from .schedules import HOISTED, WorkloadSchedule, WorkloadTiming

#: Table XV workload: 2^15 blocks of 128 bits = 512 KB.
BLOCKS = 2**15
DATA_BYTES = BLOCKS * 16

#: Ciphertext products per byte-slice SubBytes evaluation (the GF(2^8)
#: S-box as a packed degree-254 interpolation, BSGS: ~2*sqrt(255)
#: baby/giant products).
_SUBBYTES_HMULTS = 64

#: Byte slices of the AES state.
_STATE_SLICES = 16

#: Bootstrap passes per round: each byte-slice pipeline burns its level
#: budget in the deep SubBytes polynomial and must refresh.
_BOOTS_PER_ROUND = 5.0 * _STATE_SLICES


def transcipher_schedule(params: CkksParams = None) -> WorkloadSchedule:
    """Homomorphic AES-CTR keystream evaluation for 2^15 blocks.

    With N=2^16 (32768 complex slots packing 2^15 block-bytes per slice),
    one slice-ciphertext covers all blocks at once, so the schedule is 10
    rounds over 16 byte-slices.
    """
    params = params or ParameterSets.aes()
    top = params.max_level
    sched = WorkloadSchedule("AES-CTR transcipher")
    rounds = 10
    for rnd in range(rounds):
        lvl = max(6, top - 4 * (rnd % 3))
        # SubBytes on every byte slice.
        sched.add("hmult", lvl, _STATE_SLICES * _SUBBYTES_HMULTS,
                  note=f"round{rnd}.subbytes")
        sched.add("pmult", lvl, _STATE_SLICES * 8,
                  note=f"round{rnd}.subbytes.coeff")
        # ShiftRows+MixColumns: slot permutations and linear combinations.
        sched.add("hrotate", lvl - 2, 4, note=f"round{rnd}.mix")
        sched.add("hrotate", lvl - 2, 12, discount=HOISTED,
                  note=f"round{rnd}.mix")
        sched.add("pmult", lvl - 2, _STATE_SLICES,
                  note=f"round{rnd}.mix.masks")
        sched.add("hadd", lvl - 2, _STATE_SLICES * 3,
                  note=f"round{rnd}.addroundkey")
        # Bootstraps to refresh the slice pipelines.
        boot = bootstrap_schedule(params)
        for item in boot.items:
            sched.items.append(dataclasses.replace(
                item, count=item.count * _BOOTS_PER_ROUND,
                note=f"round{rnd}.boot.{item.note or item.op}"))
    # Final keystream subtraction from the encoded symmetric ciphertexts.
    sched.add("hadd", 4, _STATE_SLICES, note="keystream.subtract")
    return sched


@dataclass
class TranscipherResult:
    timing: WorkloadTiming
    data_bytes: int

    @property
    def latency_min(self) -> float:
        return self.timing.total_us / 60e6

    @property
    def throughput_kb_per_s(self) -> float:
        return (self.data_bytes / 1024) / (self.timing.total_us / 1e6)


def simulate_transcipher(params: CkksParams = None, *,
                         scheduler: OperationScheduler = None,
                         ) -> TranscipherResult:
    """Price the 512 KB AES-CTR transciphering run (Table XV)."""
    params = params or ParameterSets.aes()
    scheduler = scheduler or OperationScheduler(params)
    timing = transcipher_schedule(params).price(scheduler)
    return TranscipherResult(timing=timing, data_bytes=DATA_BYTES)


def cpu_transcipher_minutes() -> float:
    """The paper's multi-threaded CPU baseline (Hygon C86, Table XV)."""
    from ..baselines.published import TABLE_XV_TRANSCIPHER

    return TABLE_XV_TRANSCIPHER[
        "CPU Baseline (Hygon C86 7265)"
    ]["latency_min"]
