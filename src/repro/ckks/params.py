"""CKKS parameter sets, including every set the paper evaluates.

Table VI defines SET-A..E (NTT / homomorphic-operation benchmarks) and
Table XIII the workload parameter sets (ResNet, HELR, Boot, AES). All use
the 32-bit word size of §V-A: every RNS prime fits one GPU word.

Functional tests and examples use the ``toy``/``small`` sets — same code
paths, laptop-sized rings. The timing simulator accepts the full-size sets
directly (it prices operation counts, not live data).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from ..numtheory import PrimeChain, build_prime_chain


@dataclass(frozen=True)
class CkksParams:
    """Static parameters of one CKKS instantiation.

    Attributes
    ----------
    n:
        Ring degree N (power of two). Messages hold ``n / 2`` complex slots.
    max_level:
        L — number of rescaling primes (fresh ciphertexts sit at this level).
    num_special:
        K — special primes for hybrid key-switching.
    dnum:
        Decomposition number of hybrid key-switching [26].
    scale_bits:
        log2 of the encoding scale Delta.
    base_bits / special_bits:
        Bit sizes of the base and special primes.
    rescale_primes:
        Primes dropped per RESCALE: 1 (standard) or 2 (the double-prime
        rescaling of [5], [33] the paper adopts for 32-bit words).
    """

    n: int
    max_level: int
    num_special: int = 1
    dnum: int = 3
    scale_bits: int = 28
    base_bits: int = 31
    special_bits: int = 31
    rescale_primes: int = 1
    #: Standard deviation of the RLWE error distribution.
    error_std: float = 3.2
    #: Hamming weight of the ternary secret (0 = dense ternary).
    secret_hamming_weight: int = 0
    name: str = ""

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"ring degree must be a power of two >= 8: {self.n}")
        if self.max_level < 1:
            raise ValueError("need at least one rescaling prime")
        if self.num_special < 1:
            raise ValueError("hybrid key-switching needs >= 1 special prime")
        if self.rescale_primes not in (1, 2):
            raise ValueError("rescale_primes must be 1 or 2")
        if not 1 <= self.dnum <= self.max_level + 1:
            raise ValueError(
                f"dnum must be in [1, L+1] = [1, {self.max_level + 1}]"
            )

    @property
    def slots(self) -> int:
        return self.n // 2

    @property
    def scale(self) -> float:
        return float(2 ** self.effective_scale_bits)

    @property
    def effective_scale_bits(self) -> int:
        """Delta matches what one RESCALE divides out: one prime's bits for
        standard rescaling, two primes' for double-prime rescaling."""
        return self.scale_bits * self.rescale_primes

    @property
    def num_primes(self) -> int:
        """Ciphertext-chain primes: base + L scale primes."""
        return self.max_level + 1

    @property
    def total_primes(self) -> int:
        return self.num_primes + self.num_special

    def chain(self) -> PrimeChain:
        return _chain_for(
            self.n, self.max_level, self.num_special, self.base_bits,
            self.scale_bits, self.special_bits,
        )

    @property
    def log_qp(self) -> int:
        """Total modulus bits (the Table VI / XIII `log qp` column)."""
        return self.chain().log_qp

    def ciphertext_bytes(self, level: int = None, *, word_bytes: int = 4
                         ) -> int:
        """Size of a (c0, c1) ciphertext at ``level`` in GPU words."""
        level = self.max_level if level is None else level
        return 2 * (level + 1) * self.n * word_bytes


def proxy_params_for(params: CkksParams, log2n: int = 10) -> CkksParams:
    """``params`` with the ring shrunk to ``2**log2n`` (chain unchanged).

    The chain-structure fields that determine trace shapes are preserved,
    so :func:`repro.trace.lower_trace` accepts the recording for the
    original ``params``. Returns ``params`` itself when already small.
    """
    n = 2 ** log2n
    if params.n <= n:
        return params
    return dataclasses.replace(
        params, n=n, name=f"{params.name or 'params'}-proxy{log2n}"
    )


def chain_key(params: CkksParams) -> tuple:
    """The modulus-chain structure that fixes every recorded trace shape.

    Two parameter sets with equal keys record the same ring-degree-free
    trace for the same functional run, so recordings cache on this key.
    """
    return (params.max_level, params.num_special, params.dnum,
            params.rescale_primes, params.scale_bits)


@lru_cache(maxsize=64)
def _chain_for(n, max_level, num_special, base_bits, scale_bits,
               special_bits) -> PrimeChain:
    return build_prime_chain(
        n, num_levels=max_level, num_special=num_special,
        base_bits=base_bits, scale_bits=scale_bits,
        special_bits=special_bits,
    )


class ParameterSets:
    """Named parameter sets from the paper plus functional test sets."""

    # --- Table VI: NTT / homomorphic-operation evaluation sets -------------

    @staticmethod
    def set_a() -> CkksParams:
        return CkksParams(n=2**12, max_level=2, num_special=1, dnum=3,
                          name="SET-A")

    @staticmethod
    def set_b() -> CkksParams:
        return CkksParams(n=2**13, max_level=6, num_special=1, dnum=7,
                          name="SET-B")

    @staticmethod
    def set_c() -> CkksParams:
        return CkksParams(n=2**14, max_level=14, num_special=1, dnum=15,
                          name="SET-C")

    @staticmethod
    def set_d() -> CkksParams:
        return CkksParams(n=2**15, max_level=24, num_special=1, dnum=25,
                          name="SET-D")

    @staticmethod
    def set_e() -> CkksParams:
        return CkksParams(n=2**16, max_level=34, num_special=1, dnum=35,
                          name="SET-E")

    # --- Table XIII: FHE workload sets --------------------------------------

    @staticmethod
    def resnet() -> CkksParams:
        return CkksParams(n=2**16, max_level=37, num_special=13, dnum=3,
                          name="ResNet")

    @staticmethod
    def helr() -> CkksParams:
        return CkksParams(n=2**16, max_level=37, num_special=13, dnum=3,
                          name="HELR")

    @staticmethod
    def boot() -> CkksParams:
        return CkksParams(n=2**16, max_level=34, num_special=12, dnum=3,
                          name="Boot")

    @staticmethod
    def aes() -> CkksParams:
        return CkksParams(n=2**16, max_level=46, num_special=10, dnum=5,
                          name="AES")

    # --- Functional sets (same code paths, test-sized rings) ----------------

    @staticmethod
    def toy() -> CkksParams:
        """Tiny instance for unit tests: N=64, 3 levels.

        ``num_special=2`` keeps the special-prime product above the 2-prime
        key-switching digits (the Han-Ki noise condition).
        """
        return CkksParams(n=64, max_level=3, num_special=2, dnum=2,
                          scale_bits=26, name="toy")

    @staticmethod
    def small() -> CkksParams:
        """Example-sized instance: N=2048, 8 levels."""
        return CkksParams(n=2048, max_level=8, num_special=3, dnum=3,
                          scale_bits=28, name="small")

    @staticmethod
    def double_rescale_toy() -> CkksParams:
        """Toy instance exercising the double-prime rescaling path [5]."""
        return CkksParams(n=64, max_level=6, num_special=2, dnum=4,
                          scale_bits=16, rescale_primes=2,
                          name="toy-2rescale")

    #: Lookup by name for CLI-ish call sites.
    BY_NAME: Dict[str, str] = {
        "SET-A": "set_a", "SET-B": "set_b", "SET-C": "set_c",
        "SET-D": "set_d", "SET-E": "set_e",
        "ResNet": "resnet", "HELR": "helr", "Boot": "boot", "AES": "aes",
        "toy": "toy", "small": "small",
    }

    @classmethod
    def by_name(cls, name: str) -> CkksParams:
        try:
            return getattr(cls, cls.BY_NAME[name])()
        except KeyError:
            raise ValueError(
                f"unknown parameter set {name!r}; known: "
                f"{sorted(cls.BY_NAME)}"
            ) from None

    @classmethod
    def table_vi(cls) -> Dict[str, CkksParams]:
        """The five Table VI sets in order."""
        return {
            "SET-A": cls.set_a(), "SET-B": cls.set_b(),
            "SET-C": cls.set_c(), "SET-D": cls.set_d(),
            "SET-E": cls.set_e(),
        }


# -- declared tuning knobs (DESIGN.md §14) ----------------------------------
#
# The parameter layer owns the choice of named set and the hybrid
# key-switching decomposition number.  ``ckks.dnum = None`` keeps the
# chosen set's own ``dnum``; an explicit value is validated against
# ``[1, L+1]`` by ``CkksParams.__post_init__`` when ``build_pipeline``
# materializes the set — out-of-domain assignments raise at build time.

from ..tuning.knobs import (  # noqa: E402  (registry import is dep-free)
    Choice, IntRange, KnobSpec, register_knob,
)

register_knob(KnobSpec(
    name="params.set", layer="ckks",
    domain=Choice(tuple(ParameterSets.BY_NAME)),
    default="SET-C",
    doc="Named CKKS parameter set (Table VI / Table XIII / functional).",
    observe=lambda pipe: pipe.params.name,
))

register_knob(KnobSpec(
    name="ckks.dnum", layer="ckks",
    domain=IntRange(1, 64, optional=True, grid=(1, 2, 3, 5, 15)),
    default=None,
    doc="Hybrid key-switching decomposition number; None inherits the "
        "chosen set's own dnum.",
    observe=lambda pipe: pipe.params.dnum,
))
