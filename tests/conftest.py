"""Shared fixtures for the test suite.

The SGX cost model records modeled enclave charges in ledgers; unit
tests only care about logic, so it is disabled suite-wide.  The
expensive fixtures (signed transaction pools, certified chains) are
session-scoped and deterministic.
"""

from __future__ import annotations

import pytest

from repro.bench.params import BenchParams
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import Transaction, sign_transaction
from repro.chain.vm import VM
from repro.contracts import BLOCKBENCH
from repro.crypto import KeyPair, generate_keypair
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import cost_model_disabled


@pytest.fixture(autouse=True)
def _no_sgx_charges():
    """Unit tests run with the enclave cost model off."""
    with cost_model_disabled():
        yield


@pytest.fixture(scope="session")
def user_keypair() -> KeyPair:
    return generate_keypair(b"test-user")


@pytest.fixture(scope="session")
def second_keypair() -> KeyPair:
    return generate_keypair(b"test-user-2")


def fresh_vm() -> VM:
    vm = VM()
    for factory in BLOCKBENCH.values():
        vm.deploy(factory())
    return vm


@pytest.fixture()
def vm() -> VM:
    return fresh_vm()


def make_kv_tx(keypair: KeyPair, nonce: int, key: str, value: str) -> Transaction:
    return sign_transaction(keypair.private, nonce, "kvstore", "put", (key, value))


@pytest.fixture(scope="session")
def kv_chain(user_keypair) -> ChainBuilder:
    """A 10-block KVStore chain, 3 transactions per block."""
    builder = ChainBuilder(difficulty_bits=4)
    nonce = 0
    for _ in range(10):
        txs = []
        for _ in range(3):
            txs.append(
                make_kv_tx(user_keypair, nonce, f"k{nonce % 4}", f"v{nonce}")
            )
            nonce += 1
        builder.add_block(txs)
    return builder


@pytest.fixture(scope="session")
def certified_setup(kv_chain):
    """A CI that certified the whole kv_chain, with both index kinds."""
    from repro.core.issuer import CertificateIssuer
    from repro.query.indexes import AccountHistoryIndexSpec, KeywordIndexSpec

    with cost_model_disabled():
        genesis, state = make_genesis()
        ias = AttestationService(seed=b"test-ias")
        specs = [
            AccountHistoryIndexSpec(name="history"),
            KeywordIndexSpec(name="keyword"),
        ]
        issuer = CertificateIssuer(
            genesis,
            state,
            fresh_vm(),
            kv_chain.pow,
            index_specs=specs,
            ias=ias,
            key_seed=b"test-enclave",
        )
        for block in kv_chain.blocks[1:]:
            issuer.process_block(block, schemes=("hierarchical", "augmented"))
    return {
        "genesis": genesis,
        "ias": ias,
        "specs": {spec.name: spec for spec in specs},
        "issuer": issuer,
        "chain": kv_chain,
    }


@pytest.fixture(scope="session")
def bench_params() -> BenchParams:
    return BenchParams(name="test", cert_blocks=2, default_block_size=4)
