"""Shared RNS bases: one immutable RNSBasis per moduli tuple, so warm
key-switches and rescales construct none."""

import numpy as np
import pytest

from repro.ckks import CkksContext, ParameterSets, all_cache_stats
from repro.ckks.rns_context import get_rns_basis
from repro.numtheory import find_ntt_primes
from repro.numtheory import rns

MODULI = tuple(find_ntt_primes(4, 28, 64))


def test_one_instance_per_moduli_tuple():
    before = all_cache_stats()["bases"]
    a = get_rns_basis(MODULI)
    b = get_rns_basis(tuple(int(q) for q in MODULI))
    assert a is b
    assert all_cache_stats()["bases"]["hits"] > before["hits"]


def test_shared_basis_is_immutable():
    basis = get_rns_basis(MODULI)
    assert isinstance(basis.moduli, tuple)
    assert isinstance(basis.hat_invs, tuple)
    assert isinstance(basis.reducers, tuple)
    with pytest.raises(ValueError):
        basis._hat_inv_col[0, 0] = 1


def test_sub_basis_is_built_once():
    basis = get_rns_basis(MODULI)
    head = basis.sub_basis(range(3))
    assert head is basis.sub_basis([0, 1, 2])
    assert head.moduli == MODULI[:3]


def test_warm_operations_construct_no_basis(monkeypatch):
    ctx = CkksContext.create(ParameterSets.toy(), seed=3)
    keys = ctx.keygen(rotations=[1])
    vals = np.linspace(-1, 1, ctx.params.slots)
    ct = ctx.encrypt(vals, keys)

    def run():
        prod = ctx.hmult(ct, ct, keys)
        return ctx.evaluator.hrotate(prod, 1, keys)

    run()
    built = []
    init = rns.RNSBasis.__init__

    def counting_init(self, moduli):
        built.append(tuple(moduli))
        init(self, moduli)

    monkeypatch.setattr(rns.RNSBasis, "__init__", counting_init)
    out = run()
    assert built == []
    got = ctx.decrypt_decode_real(out, keys)
    want = np.roll(vals * vals, -1)
    assert np.max(np.abs(got - want)) < 1e-3
