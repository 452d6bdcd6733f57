"""Exactness of the float64 limb-split GEMM NTT (the numpy backend's
stacked transform).

Every prime of every parameter-set chain is transformed at every ring
size it supports from 2**4 to 2**14 (two GEMM levels up to 4096, three
above), on random and worst-case inputs, and compared bit for bit with
the per-prime Montgomery kernel (and, at small sizes, with the O(N^2)
reference). The plan must refuse any (q, depth, limb) choice whose
float64 sums could reach 2**53.
"""

import inspect

import numpy as np
import pytest

from repro.ckks import ParameterSets
from repro.ntt import (
    ShoupStack,
    batched_negacyclic_intt,
    batched_negacyclic_ntt,
    get_shoup_stack,
    get_tables,
    reference_negacyclic_intt,
    reference_negacyclic_ntt,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.ntt import limbgemm
from repro.ntt.limbgemm import (
    F64_EXACT,
    LEAF_MAX,
    ExactnessError,
    GemmNttPlan,
    check_exact,
    gemm_bound,
    get_gemm_plan,
)
from repro.ntt.twiddles import TwiddleStack
from repro.numtheory import find_ntt_primes

SIZES = [1 << k for k in range(4, 15)]


def _chain_primes():
    """Ring size -> every distinct prime of every ParameterSets chain
    that is NTT-friendly at that size."""
    factories = [
        f for name, f in inspect.getmembers(ParameterSets,
                                             predicate=inspect.isfunction)
        if name not in ("by_name", "table_vi")
    ]
    by_size = {n: set() for n in SIZES}
    for factory in factories:
        params = factory()
        chain = params.chain()
        for q in tuple(chain.moduli) + tuple(chain.special_primes):
            for n in SIZES:
                if n <= params.n:
                    by_size[n].add(int(q))
    return {n: tuple(sorted(qs)) for n, qs in by_size.items()}


PRIMES = _chain_primes()


def _montgomery(data, oracle, inverse=False):
    """Row-by-row oracle: the per-prime Montgomery radix-2 kernel."""
    kernel = batched_negacyclic_intt if inverse else batched_negacyclic_ntt
    out = np.empty_like(data)
    for g in range(data.shape[1]):
        out[:, g] = kernel(np.ascontiguousarray(data[:, g]), oracle)
    return out


def _check_primes(moduli, n):
    q = np.array(moduli, dtype=np.uint64)[:, None, None]
    stack = ShoupStack(moduli, n)
    oracle = TwiddleStack(moduli, n)
    rng = np.random.default_rng(n)
    data = np.stack([rng.integers(0, int(p), size=(1, n), dtype=np.uint64)
                     for p in moduli])
    # Worst cases next to the random row: the largest lazy forward input
    # (2**32 - 1) and the largest inverse input (2q - 1).
    lazy_max = np.full(data.shape, (1 << 32) - 1, dtype=np.uint64)
    inv_max = np.broadcast_to(2 * q - 1, data.shape)
    fwd_in = np.concatenate([data, lazy_max], axis=1)
    inv_in = np.concatenate([data, inv_max], axis=1)

    got = stacked_negacyclic_ntt(fwd_in, stack)
    assert np.array_equal(got, _montgomery(fwd_in % q, oracle))
    assert np.array_equal(stacked_negacyclic_intt(inv_in, stack),
                          _montgomery(inv_in % q, oracle, inverse=True))
    assert np.array_equal(stacked_negacyclic_intt(got, stack), fwd_in % q)

    lazy = stacked_negacyclic_ntt(fwd_in, stack, lazy=True)
    assert (lazy < 2 * q).all()
    assert np.array_equal(np.minimum(lazy, lazy - q), got)


@pytest.mark.parametrize("n", SIZES)
def test_every_chain_prime_every_ring_size(n):
    moduli = PRIMES[n]
    assert moduli, f"no chain prime supports n={n}"
    # Sixteen primes at a time; the per-prime tables of ~100 primes at
    # n = 2**14 would otherwise hold ~200 MB for the rest of the test run.
    for start in range(0, len(moduli), 16):
        _check_primes(moduli[start:start + 16], n)
        get_gemm_plan.cache_clear()
        get_tables.cache_clear()


@pytest.mark.parametrize("n", [16, 32, 64])
def test_matches_the_exact_reference(n):
    """The O(N^2) bigint oracle, on canonical and lazy outputs."""
    moduli = PRIMES[n][:6]
    stack = get_shoup_stack(moduli, n)
    q = np.array(moduli, dtype=np.uint64)[:, None, None]
    rng = np.random.default_rng(100 + n)
    data = np.stack([rng.integers(0, p, size=(2, n), dtype=np.uint64)
                     for p in moduli])
    want = np.stack([
        np.stack([reference_negacyclic_ntt(data[i, g], get_tables(p, n))
                  for g in range(2)])
        for i, p in enumerate(moduli)
    ])
    assert np.array_equal(stacked_negacyclic_ntt(data, stack), want)
    lazy = stacked_negacyclic_ntt(data + q, stack, lazy=True)
    assert (lazy < 2 * q).all()
    assert np.array_equal(np.minimum(lazy, lazy - q), want)
    back = np.stack([
        np.stack([reference_negacyclic_intt(want[i, g], get_tables(p, n))
                  for g in range(2)])
        for i, p in enumerate(moduli)
    ])
    assert np.array_equal(back, data)
    assert np.array_equal(stacked_negacyclic_intt(want, stack), data)


class TestPlan:
    Q = find_ntt_primes(1, 31, 1 << 14)[0]

    def test_levels_by_ring_size(self):
        assert GemmNttPlan(self.Q, 64).radices == (64,)
        assert GemmNttPlan(self.Q, 512).radices == (16, 32)
        assert GemmNttPlan(self.Q, 4096).radices == (64, 64)
        assert GemmNttPlan(self.Q, 1 << 14).radices == (16, 16, 64)

    def test_every_default_depth_is_inside_the_mantissa(self):
        for q in (5, self.Q, (1 << 31) - 1):
            assert gemm_bound(q, LEAF_MAX + 1) < F64_EXACT

    def test_refuses_a_too_deep_leaf(self, monkeypatch):
        monkeypatch.setattr(limbgemm, "LEAF_MAX", 128)
        with pytest.raises(ExactnessError):
            GemmNttPlan(self.Q, 128)
        with pytest.raises(ExactnessError):
            check_exact(self.Q, 128)

    def test_refuses_wider_limbs_and_out_of_range_moduli(self):
        check_exact(self.Q, 64)
        with pytest.raises(ExactnessError):
            check_exact(self.Q, 64, limb_bits=17)
        with pytest.raises(ExactnessError):
            check_exact(1 << 31, 8)
        assert issubclass(ExactnessError, ValueError)

    def test_tables_are_shared_per_prime(self):
        n = 256
        q1, q2, q3 = find_ntt_primes(3, 30, n)
        a = ShoupStack((q1, q2), n).gemm_plans
        b = ShoupStack((q3, q1), n).gemm_plans
        assert a[0] is b[1] is get_gemm_plan(q1, n)
