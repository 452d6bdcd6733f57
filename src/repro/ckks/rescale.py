"""RESCALE: dropping primes to manage scale growth.

Standard RNS-CKKS rescaling divides by the last prime of the chain. With
32-bit words a single prime cannot absorb a large scale, so the paper also
adopts *double-prime rescaling* [5], [33]: one RESCALE drops two primes
whose product plays the role of Delta. Both flavours are implemented; the
parameter set's ``rescale_primes`` chooses between them.

Each dropped prime is divided out of *all* remaining residue rows in one
batched pass (:func:`repro.numtheory.rns.rescale_rows`); the INTT feeding
it is likewise a single vectorized transform of the residue matrix.
"""

from __future__ import annotations

from typing import Tuple

from ..numtheory.rns import rescale_rows
from ..trace.recorder import emit as _temit
from .poly import EVAL, RnsPoly
from .rns_context import get_rns_basis


def rescale_poly(poly: RnsPoly, *, primes: int = 1) -> Tuple[RnsPoly, int]:
    """Drop the last ``primes`` moduli, dividing the represented value.

    Returns the rescaled polynomial (coefficient domain) and the integer
    divisor (product of the dropped primes) for scale bookkeeping.
    """
    if primes < 1:
        raise ValueError("must drop at least one prime")
    if poly.num_primes <= primes:
        raise ValueError(
            f"cannot drop {primes} prime(s) from a {poly.num_primes}-prime "
            "polynomial — the ciphertext is already at the lowest level"
        )
    was_eval = poly.domain == EVAL
    coeff = poly.to_coeff()
    if was_eval:
        _temit("intt", rows=poly.num_primes, reads=(poly,), writes=(coeff,))
    divisor = 1
    data = coeff.data
    moduli = list(coeff.moduli)
    for _ in range(primes):
        basis = get_rns_basis(tuple(moduli))
        data = rescale_rows(data, basis)
        divisor *= moduli[-1]
        moduli = moduli[:-1]
    out = RnsPoly(data, tuple(moduli), coeff.domain)
    _temit("divide", rows=out.num_primes, drop=primes, reads=(coeff,),
           writes=(out, data))
    return out, divisor
