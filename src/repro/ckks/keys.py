"""Key generation: secret/public keys and hybrid key-switching keys.

Key-switching follows the hybrid (gadget) scheme of Han-Ki [26] that the
paper implements: the ciphertext primes are partitioned into ``dnum``
digits; the switching key for a source secret ``s'`` holds, per digit
``j``, an RLWE encryption under ``s`` of ``P * T_j * s'`` over the extended
basis ``Q*P``, where ``T_j`` is the CRT basis element of digit ``j`` and
``P`` the special-prime product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..numtheory import modinv
from ..numtheory.rns import digit_partition
from .params import CkksParams
from .poly import EVAL, RnsPoly
from .rns_context import get_rns_basis
from .sampling import sample_error, sample_ternary, sample_uniform


@dataclass
class SecretKey:
    """Ternary secret ``s``, stored in eval domain over the full Q*P basis."""

    poly: RnsPoly
    #: The raw ternary coefficients (needed to derive automorphism keys).
    coeffs: np.ndarray


@dataclass
class PublicKey:
    """Encryption key ``(b, a) = (-a*s + e, a)`` over the ciphertext basis."""

    b: RnsPoly
    a: RnsPoly


@dataclass(eq=False)
class KeySwitchKey:
    """Hybrid switching key: one RLWE pair per digit over the Q*P basis.

    Stored once, in the layout the batched inner product reads: ``b`` and
    ``a`` are read-only ``(L+K, dnum, N)`` eval-form stacks over the full
    chain ``q_0..q_L ++ p_0..p_(K-1)``, digit ``j`` in column ``j``. Every
    other form of the key — a digit's pair, the rows of one level — is a
    view of these two arrays (:func:`.ks_common.key_level_views`).
    Keys compare by identity (array fields have no boolean ``==``).
    """

    b: np.ndarray
    a: np.ndarray
    moduli: Tuple[int, ...]
    digits: List[List[int]]

    @property
    def dnum(self) -> int:
        return len(self.digits)

    @property
    def pairs(self) -> List[Tuple[RnsPoly, RnsPoly]]:
        """``[(b_j, a_j)]``: each digit's pair as full-chain polynomial
        views of the stacks."""
        return [(RnsPoly(self.b[:, j], self.moduli, EVAL),
                 RnsPoly(self.a[:, j], self.moduli, EVAL))
                for j in range(self.dnum)]


@dataclass
class KeySet:
    """Everything a computation needs: public, relinearization and rotation
    keys (the latter generated on demand)."""

    secret: SecretKey
    public: PublicKey
    relin: KeySwitchKey
    rotation: Dict[int, KeySwitchKey] = field(default_factory=dict)
    conjugation: KeySwitchKey = None


class KeyGenerator:
    """Generates all key material for one parameter set."""

    def __init__(self, params: CkksParams, rng: np.random.Generator = None,
                 *, error_scale: int = 1):
        """``error_scale`` multiplies every key-material error polynomial;
        BGV passes its plaintext modulus ``t`` here so key-switching noise
        stays ≡ 0 (mod t)."""
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng()
        self.error_scale = error_scale
        chain = params.chain()
        self.q_moduli = tuple(chain.moduli)
        self.p_moduli = tuple(chain.special_primes)
        self.qp_moduli = self.q_moduli + self.p_moduli
        self.p_product = chain.p_product()
        self._q_basis = get_rns_basis(self.q_moduli)

    # -- top level ---------------------------------------------------------------

    def generate(self, *, rotations: List[int] = None,
                 conjugation: bool = False) -> KeySet:
        """Generate a full key set; ``rotations`` lists slot offsets to
        pre-generate HROTATE keys for.

        Duplicate and zero steps are skipped — callers merging rotation
        demands from several transforms (e.g. the bootstrap stages) can
        pass the raw concatenation without paying for a key twice.
        """
        secret = self.generate_secret()
        keys = KeySet(
            secret=secret,
            public=self.generate_public(secret),
            relin=self.generate_relin(secret),
        )
        for step in rotations or []:
            if step and step not in keys.rotation:
                keys.rotation[step] = self.generate_rotation(secret, step)
        if conjugation:
            keys.conjugation = self.generate_conjugation(secret)
        return keys

    # -- individual keys -----------------------------------------------------------

    def generate_secret(self) -> SecretKey:
        coeffs = sample_ternary(
            self.params.n, self.rng,
            hamming_weight=self.params.secret_hamming_weight,
        )
        poly = RnsPoly.from_signed(coeffs, self.qp_moduli).to_eval()
        return SecretKey(poly=poly, coeffs=coeffs)

    def generate_public(self, secret: SecretKey) -> PublicKey:
        """Fresh RLWE sample under ``s`` over the ciphertext basis Q."""
        basis = self._q_basis
        a = RnsPoly(
            sample_uniform(basis, self.params.n, self.rng),
            self.q_moduli, EVAL,
        )
        e = RnsPoly.from_signed(
            sample_error(self.params.n, self.rng, std=self.params.error_std)
            * self.error_scale,
            self.q_moduli,
        ).to_eval()
        s_q = secret.poly.take_primes(range(len(self.q_moduli)))
        b = e - a * s_q
        return PublicKey(b=b, a=a)

    def generate_relin(self, secret: SecretKey) -> KeySwitchKey:
        """Switching key for ``s^2`` (HMULT relinearization)."""
        s_sq = secret.poly * secret.poly
        return self._switching_key(secret, s_sq)

    def generate_rotation(self, secret: SecretKey, step: int) -> KeySwitchKey:
        """Switching key for the slot-rotation automorphism ``5^step``."""
        exponent = pow(5, step, 2 * self.params.n)
        return self.generate_galois(secret, exponent)

    def generate_conjugation(self, secret: SecretKey) -> KeySwitchKey:
        return self.generate_galois(secret, 2 * self.params.n - 1)

    def generate_galois(self, secret: SecretKey,
                        exponent: int) -> KeySwitchKey:
        """Switching key for an arbitrary Galois automorphism exponent."""
        s_coeff = RnsPoly.from_signed(secret.coeffs, self.qp_moduli)
        s_rot = s_coeff.automorphism(exponent).to_eval()
        return self._switching_key(secret, s_rot)

    # -- hybrid gadget construction ---------------------------------------------------

    def _switching_key(self, secret: SecretKey,
                       source: RnsPoly) -> KeySwitchKey:
        """Encrypt ``P * T_j * source`` per digit under ``secret``.

        ``source`` must be in eval domain over the full Q*P basis.
        """
        num_q = len(self.q_moduli)
        digits = digit_partition(num_q, self.params.dnum)
        q_product = 1
        for q in self.q_moduli:
            q_product *= q
        # Noise sanity: hybrid key-switching keeps noise small only when the
        # special-prime product P covers each digit product (Han-Ki [26]).
        max_digit_bits = max(
            sum(self.q_moduli[i].bit_length() for i in digit)
            for digit in digits
        )
        p_bits = self.p_product.bit_length()
        if max_digit_bits > p_bits + 2:
            raise ValueError(
                f"digit product ({max_digit_bits} bits) exceeds the special "
                f"prime product P ({p_bits} bits); increase num_special or "
                "dnum"
            )
        qp_basis = get_rns_basis(self.qp_moduli)
        n = self.params.n
        shape = (len(self.qp_moduli), len(digits), n)
        b_stack = np.empty(shape, dtype=np.uint64)
        a_stack = np.empty(shape, dtype=np.uint64)
        for j, digit in enumerate(digits):
            d_product = 1
            for i in digit:
                d_product *= self.q_moduli[i]
            q_hat = q_product // d_product
            t_j = q_hat * modinv(q_hat % d_product, d_product)
            payload = source.mul_scalar(self.p_product * t_j)
            a = RnsPoly(
                sample_uniform(qp_basis, n, self.rng), self.qp_moduli, EVAL,
            )
            e = RnsPoly.from_signed(
                sample_error(n, self.rng, std=self.params.error_std)
                * self.error_scale,
                self.qp_moduli,
            ).to_eval()
            b_stack[:, j] = (e - a * secret.poly + payload).data
            a_stack[:, j] = a.data
        b_stack.setflags(write=False)
        a_stack.setflags(write=False)
        return KeySwitchKey(b=b_stack, a=a_stack, moduli=self.qp_moduli,
                            digits=digits)
