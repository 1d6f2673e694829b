"""Ablations for DCert's two enclave design choices.

1. **Stateless enclave (§4.1).**  The naive design keeps/loads the full
   state inside the enclave; DCert ships only Merkle update proofs.  We
   grow the chain, track the real update-proof sizes, and model the
   naive design's per-block cost of marshalling the whole serialized
   state through the Ecall boundary (EPC paging beyond 93 MB usable,
   per the calibrated cost model), extrapolating to the paper's
   motivating scale (Ethereum: ~920 GB state).

2. **Ecall batching (§2.2).**  DCert enters the enclave once per block;
   a per-transaction-Ecall design pays the transition cost `block size`
   times.  Both variants are *measured* against a real no-op enclave,
   with the cost model's transition charge reported beside as a
   *modeled* column from the ledger.
"""

from __future__ import annotations

import time

from repro.bench.harness import CertifiedChainHarness
from repro.bench.reporting import print_table
from repro.sgx.costs import SGXCostModel
from repro.sgx.enclave import EnclaveHost, EnclaveProgram
from repro.sgx.platform import SGXPlatform


def _state_size_bytes(state) -> int:
    """Serialized size of the full state (what the naive design ships)."""
    return sum(len(key) + len(value) for key, value in state._tree.items())


def test_ablation_stateless_enclave(params, benchmark):
    harness = CertifiedChainHarness(params, network="ablation-stateless")
    model = SGXCostModel()
    rows = []
    checkpoints = (2, 6, 10)
    for block_index in range(1, checkpoints[-1] + 1):
        timing = harness.add_and_certify(
            harness.generator.block_txs("KV", params.default_block_size)
        )
        if block_index in checkpoints:
            state_bytes = _state_size_bytes(harness.issuer.node.state)
            naive_paging_s = model.paging_charge(state_bytes)
            rows.append(
                [
                    block_index,
                    timing.update_proof_bytes,
                    state_bytes,
                    round(state_bytes / max(1, timing.update_proof_bytes), 1),
                    round(naive_paging_s * 1000, 3),
                ]
            )
    # The paper's motivating extrapolation: mainnet-scale state.
    for label, state_bytes in (
        ("1 GB state", 1 << 30),
        ("920 GB state (Ethereum)", 920 * (1 << 30)),
    ):
        rows.append(
            [
                label,
                rows[-1][1],
                state_bytes,
                round(state_bytes / max(1, rows[-1][1]), 1),
                round(model.paging_charge(state_bytes) * 1000, 1),
            ]
        )
    print_table(
        "Ablation 1 — stateless enclave: update proof vs full state shipped",
        ["block / scale", "proof B (DCert)", "state B (naive)",
         "naive/DCert ratio", "naive paging ms"],
        rows,
    )
    # At bench scale the whole state is tiny (the naive design is even
    # competitive — honest observation); the design decision pays off at
    # real scale, where the proof stays constant while the naive payload
    # is the full state: orders of magnitude apart, plus hours of paging.
    proof_bytes = rows[2][1]
    mainnet_state = rows[-1][2]
    assert mainnet_state > proof_bytes * 1_000_000
    assert model.paging_charge(mainnet_state) > 1000  # seconds

    benchmark.pedantic(
        lambda: harness.add_and_certify(
            harness.generator.block_txs("KV", params.default_block_size)
        ),
        rounds=3,
        iterations=1,
    )


class _NoOpProgram(EnclaveProgram):
    ECALLS = ("noop",)

    def noop(self) -> None:
        return None


def test_ablation_ecall_batching(params, benchmark):
    host = EnclaveHost(
        _NoOpProgram(), SGXPlatform(seed=b"ablation"), cost_model=SGXCostModel()
    )

    def batched() -> float:
        started = time.perf_counter()
        host.ecall("noop")
        return time.perf_counter() - started

    def per_transaction(block_size: int) -> float:
        started = time.perf_counter()
        for _ in range(block_size):
            host.ecall("noop")
        return time.perf_counter() - started

    rows = []
    for block_size in params.block_sizes:
        # Average over repetitions to stabilize the tiny measurements;
        # the modeled transition charge is the ledger's delta.
        repeats = 50
        before = host.ledger.snapshot()
        one = sum(batched() for _ in range(repeats)) / repeats
        one_modeled = host.ledger.delta(before).transition_s / repeats
        before = host.ledger.snapshot()
        many = sum(per_transaction(block_size) for _ in range(repeats)) / repeats
        many_modeled = host.ledger.delta(before).transition_s / repeats
        rows.append(
            [
                block_size,
                round(one * 1e6, 2),
                round(many * 1e6, 2),
                round(one_modeled * 1e6, 2),
                round(many_modeled * 1e6, 2),
                round(many_modeled / one_modeled, 1),
            ]
        )
    print_table(
        "Ablation 2 — one Ecall per block vs one per transaction "
        "(measured dispatch; modeled transition cost)",
        ["txs/block", "batched us", "per-tx us",
         "batched modeled us", "per-tx modeled us", "modeled ratio"],
        rows,
    )
    # Per-tx transitions must scale with the block size.  The modeled
    # charge carries the transition cost; measured no-op ecalls do not.
    assert rows[-1][5] > params.block_sizes[-1] * 0.5

    benchmark(batched)


def test_ablation_lazy_vs_eager_proofs(params, benchmark):
    """Eager (one Ecall with the full update proof) vs lazy (Ocall per
    touched cell) — both real code paths, same security checks.

    Expected: lazy pays 2 transitions per cell and loses by a margin
    that grows with the block's state footprint, vindicating the §2.2
    design rule the paper follows.
    """
    import time

    from repro.bench.harness import CertifiedChainHarness
    from repro.core.issuer import attach_lazy_proof_service, gen_cert_lazy

    rows = []
    for block_size in params.block_sizes[:3]:
        harness = CertifiedChainHarness(
            params, network=f"ablation-lazy-{block_size}"
        )
        attach_lazy_proof_service(harness.issuer)
        eager_s, lazy_s, ocalls = [], [], []
        for _ in range(3):
            block, _ = harness.builder.add_block(
                harness.generator.block_txs("KV", block_size)
            )
            started = time.perf_counter()
            lazy_cert = gen_cert_lazy(harness.issuer, block)
            lazy_s.append(time.perf_counter() - started)
            ocalls.append(harness.issuer.enclave.ledger.ocalls)
            started = time.perf_counter()
            eager_cert, _, _ = harness.issuer.gen_cert(block)
            eager_s.append(time.perf_counter() - started)
            assert lazy_cert.sig == eager_cert.sig
            harness.issuer.process_block(block)
        per_block_ocalls = (
            (ocalls[-1] - (ocalls[0] - ocalls[0])) / len(ocalls)
            if len(ocalls) == 1
            else (ocalls[-1] - ocalls[0]) / (len(ocalls) - 1)
        )
        rows.append(
            [
                block_size,
                round(sum(eager_s) / len(eager_s) * 1000, 1),
                round(sum(lazy_s) / len(lazy_s) * 1000, 1),
                int(per_block_ocalls),
            ]
        )
    print_table(
        "Ablation 3 — eager update proof (1 Ecall) vs lazy fetching "
        "(Ocall per cell)",
        ["txs/block", "eager ms", "lazy ms", "ocalls/block"],
        rows,
    )
    # Lazy must pay transitions proportional to touched cells.
    assert rows[-1][3] > rows[0][3]

    harness = CertifiedChainHarness(params, network="ablation-lazy-bench")
    attach_lazy_proof_service(harness.issuer)

    def lazy_block():
        block, _ = harness.builder.add_block(
            harness.generator.block_txs("KV", params.block_sizes[0])
        )
        gen_cert_lazy(harness.issuer, block)
        harness.issuer.process_block(block)

    benchmark.pedantic(lazy_block, rounds=3, iterations=1)
