"""The three workloads: ``certify``, ``follow`` and ``query``.

Each workload is a class with the same steps, which
:mod:`perfbench.run` drives once per part (a run is split into
:data:`PARTS` independently set-up parts so set-up time is a median):

* ``build(part)`` — set-up, timed as ``setup_s``: mine the chain,
  certify the prefix, build the deployment;
* ``prepare(dep, tally)`` — untimed: fingerprint the inputs and build
  what the benchmark's own checks need (the query oracle);
* ``main(dep, watch, tally, joins)`` — the timed operations, which
  the traced run also attributes to layers.  It is a generator that
  yields after each operation, so the traced run can interleave an
  untraced and a traced copy;
* ``check(dep, tally)`` — the untimed correctness gate.

Every workload also bootstraps fresh clients (:class:`Joiner`) between
its own operations, timed one by one on the ``joins`` stopwatch; the
traced run passes ``joins=None`` and skips them, except ``follow``,
whose joins are half of its measured work.

Inputs come only from the seed: the program sees generated blocks and
requests, never the seed itself.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.bench.harness import fresh_vm
from repro.bench.params import BenchParams
from repro.bench.workloadgen import WorkloadGenerator
from repro.chain.builder import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core import (
    CertificateIssuer,
    ClientConfig,
    IssuerService,
    SuperlightClient,
    compute_expected_measurement,
    connect,
)
from repro.crypto import generate_keypair
from repro.errors import ReproError
from repro.net import QueryGateway
from repro.net.pubsub import SubscriptionHub
from repro.obs.wallclock import now_s
from repro.query import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryService,
    QueryServiceProvider,
    ValueRangeQuery,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.sgx.attestation import AttestationService

from perfbench.harness import ByteCountingBus, Stopwatch, quiet_cost_model

#: Independently set-up parts per run; ``setup_s`` is their median.
PARTS = 3
NETWORK = "perfbench"
DIFFICULTY_BITS = 4
#: Fresh clients bootstrapped per part: 3 x 34 = 102 >= 100 samples,
#: enough for a p90 with ten samples beyond it.
JOINS_PER_PART = 34

PARAMS = BenchParams(
    name="perfbench",
    difficulty_bits=DIFFICULTY_BITS,
    num_accounts=32,
    num_contract_instances=8,
    query_tuples=50,
)


def part_seed(seed: int, part: int) -> int:
    """A distinct generator seed for each (run seed, part) pair."""
    return seed * PARTS + part


def all_index_specs():
    """One index of each certified query family (fresh objects)."""
    return [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]


@dataclass
class Tally:
    """What one run measured, plus its failures."""

    latency_ms: list[float] = field(default_factory=list)
    bootstrap_ms: list[float] = field(default_factory=list)
    work: int = 0
    work_s: float = 0.0
    payload_bytes: int = 0
    payload_ops: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    client_state_bytes: int = 0
    #: Fingerprint of the generated inputs (blocks and requests).
    inputs: object = field(default_factory=hashlib.sha256)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


@dataclass
class Deployment:
    """Everything one part built; workloads add their own fields."""

    issuer: CertificateIssuer
    measurement: bytes
    ias: AttestationService
    #: The generated blocks: those ``main`` certifies (certify) or
    #: publishes (follow), or the whole chain (query).
    blocks: list
    bus: ByteCountingBus | None = None
    extra: dict = field(default_factory=dict)


def _issuer(builder: ChainBuilder, specs) -> tuple[CertificateIssuer, AttestationService]:
    genesis, state = make_genesis(network=NETWORK)
    ias = AttestationService(seed=b"perfbench-ias")
    issuer = CertificateIssuer(
        genesis,
        state,
        fresh_vm(),
        builder.pow,
        index_specs=specs,
        ias=ias,
        key_seed=b"perfbench-enclave",
        cost_model=quiet_cost_model(),
    )
    return issuer, ias


def _measurement(issuer: CertificateIssuer, ias: AttestationService, specs) -> bytes:
    return compute_expected_measurement(
        issuer.node.blocks[0].header.header_hash(),
        ias.public_key,
        fresh_vm(),
        DIFFICULTY_BITS,
        {spec.name: spec for spec in specs},
    )


def _mine(builder: ChainBuilder, transactions) -> None:
    """Append one block of benchmark-generated transactions.  The
    generator signed them itself, so the miner skips re-verifying the
    signatures; every issuer and provider still verifies each one."""
    builder.add_block(transactions, verify_signatures=False)


def _fingerprint(tally: Tally, blocks) -> None:
    for block in blocks:
        tally.inputs.update(block.header.header_hash())


class Joiner:
    """Fresh tip-only clients bootstrapping one at a time, each timed
    from ``connect`` until it holds a verified tip.

    Workloads call :meth:`join_one` between their own operations, so
    the bootstrap samples spread over the whole measured run, and
    :meth:`finish` once the loop ends to reach :data:`JOINS_PER_PART`.
    """

    def __init__(self, dep: Deployment, bus, watch: Stopwatch, tally: Tally, label: str) -> None:
        self.dep = dep
        self.bus = bus
        self.watch = watch
        self.tally = tally
        self.label = label
        self.clients: list = []
        self.left = JOINS_PER_PART

    def join_one(self) -> None:
        if self.left <= 0:
            return
        self.left -= 1
        dep, tally = self.dep, self.tally
        name = f"{self.label}{len(self.clients)}"
        tip = dep.issuer.node.tip.header.header_hash()
        tally.attempted += 1
        self.watch.start()
        try:
            client = connect(
                ClientConfig(
                    measurement=dep.measurement,
                    ias_public_key=dep.ias.public_key,
                    bus=self.bus,
                    name=name,
                    issuers=("ci",),
                    bootstrap=True,
                )
            )
        except ReproError as exc:
            self.watch.stop()
            tally.fail(f"bootstrap {name}: {exc}")
            return
        tally.bootstrap_ms.append(self.watch.stop() * 1000.0)
        self.clients.append(client)
        if client.latest_header is None or client.latest_header.header_hash() != tip:
            tally.fail(f"bootstrapped client {name} missed the tip")

    def finish(self) -> None:
        while self.left > 0:
            self.join_one()


class Certify:
    """The CI write path: certify pre-mined Blockbench blocks one at a
    time with hierarchical certificates for all four index types."""

    name = "certify"
    tail_q = 0.9
    work_unit = "tx"
    ROTATION = ("DN", "CPU", "IO", "KV", "SB")
    BLOCK_TXS = 8
    #: Blocks per second of --seconds, sized on the reference box so a
    #: 20 s run certifies >= 100 blocks (p90 with ten beyond it).
    BLOCKS_PER_S = 5.1

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.blocks_per_part = max(2, math.ceil(seconds * self.BLOCKS_PER_S / PARTS))

    def build(self, part: int) -> Deployment:
        generator = WorkloadGenerator(PARAMS, seed=part_seed(self.seed, part))
        builder = ChainBuilder(difficulty_bits=DIFFICULTY_BITS, network=NETWORK)
        _mine(builder, generator.smallbank_setup_txs())
        for index in range(self.blocks_per_part):
            workload = self.ROTATION[index % len(self.ROTATION)]
            _mine(builder, generator.block_txs(workload, self.BLOCK_TXS))
        specs = all_index_specs()
        issuer, ias = _issuer(builder, specs)
        prefix = issuer.process_block(builder.blocks[1])
        dep = Deployment(
            issuer=issuer,
            measurement=b"",
            ias=ias,
            blocks=builder.blocks[2:],
            extra={"specs": specs, "certified": [prefix]},
        )
        return dep

    def prepare(self, dep: Deployment, tally: Tally) -> None:
        dep.measurement = _measurement(dep.issuer, dep.ias, dep.extra["specs"])
        _fingerprint(tally, dep.blocks)
        enclave = dep.issuer.enclave
        host_class = type(enclave)

        # Bytes marshalled into the enclave; looked up on the class at
        # call time so a traced run's class-level wrapper still applies.
        def ecall(name, *args, payload_bytes=0, **kwargs):
            tally.payload_bytes += payload_bytes
            return host_class.ecall(
                enclave, name, *args, payload_bytes=payload_bytes, **kwargs
            )

        enclave.ecall = ecall

    def ops(self, dep: Deployment) -> int:
        return len(dep.extra["certified"]) - 1

    def main(self, dep: Deployment, watch: Stopwatch, tally: Tally, joins) -> Iterator[None]:
        issuer = dep.issuer
        joiner = None
        if joins is not None:
            bus = ByteCountingBus()
            IssuerService(bus, "ci", issuer)
            joiner = Joiner(dep, bus, joins, tally, "joiner")
        for block in dep.blocks:
            tally.attempted += 1
            watch.start()
            try:
                certified = issuer.process_block(block)
            except ReproError as exc:
                watch.stop()
                tally.fail(f"process_block at height {block.header.height}: {exc}")
                break
            elapsed = watch.stop()
            tally.latency_ms.append(elapsed * 1000.0)
            tally.work += len(block.transactions)
            tally.work_s += elapsed
            tally.payload_ops += 1
            dep.extra["certified"].append(certified)
            if joiner is not None:
                joiner.join_one()
            yield
        if joiner is not None:
            joiner.finish()

    def check(self, dep: Deployment, tally: Tally) -> None:
        """Every emitted certificate validates, in order, in an
        independent local client."""
        client = SuperlightClient(dep.measurement, dep.ias.public_key)
        for certified in dep.extra["certified"]:
            header = certified.block.header
            try:
                if not client.validate_chain(header, certified.certificate):
                    tally.fail(f"block certificate {header.height} not adopted")
                    continue
                for name, cert in certified.index_certificates.items():
                    root = certified.index_roots[name]
                    if not client.validate_index_certificate(name, header, root, cert):
                        tally.fail(f"index certificate {name}@{header.height} stale")
            except ReproError as exc:
                tally.fail(f"certificate {header.height} rejected: {exc}")
        tally.client_state_bytes = client.storage_bytes()


class Follow:
    """The light-client path: fresh clients bootstrap, then subscribers
    adopt each pre-certified tip pushed through the hub."""

    name = "follow"
    tail_q = 0.9
    work_unit = "adoptions"
    SUBSCRIBERS = 8
    KEYS = 16
    #: Pushed tips per second of --seconds (a 20 s run publishes >= 100).
    TIPS_PER_S = 6.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.tips_per_part = max(2, math.ceil(seconds * self.TIPS_PER_S / PARTS))

    def build(self, part: int) -> Deployment:
        rng = random.Random(part_seed(self.seed, part))
        keypair = generate_keypair(b"perfbench-follow")
        builder = ChainBuilder(difficulty_bits=DIFFICULTY_BITS, network=NETWORK)
        for nonce in range(self.tips_per_part + 1):
            key = f"k{rng.randrange(self.KEYS)}"
            value = f"v{rng.randrange(1 << 30)}"
            _mine(builder, [sign_transaction(keypair.private, nonce, "kvstore", "put", (key, value))])
        specs = [AccountHistoryIndexSpec(name="history")]
        issuer, ias = _issuer(builder, specs)
        issuer.process_block(builder.blocks[1])
        bus = ByteCountingBus()
        service = IssuerService(bus, "ci", issuer)
        hub = SubscriptionHub.embedded(service)
        measurement = _measurement(issuer, ias, specs)
        fired: list[float] = []
        subscribers = []
        for index in range(self.SUBSCRIBERS):
            subscriber = connect(
                ClientConfig(
                    measurement=measurement,
                    ias_public_key=ias.public_key,
                    bus=bus,
                    name=f"sub{index}",
                    issuers=("ci",),
                    hub="ci",
                    bootstrap=True,
                    subscribe=True,
                )
            )
            subscriber.on_tip(lambda header, cert: fired.append(now_s()))
            subscribers.append(subscriber)
        # Certified with the hub detached: nothing is pushed yet.
        stream = [issuer.process_block(block) for block in builder.blocks[2:]]
        return Deployment(
            issuer=issuer,
            measurement=measurement,
            ias=ias,
            blocks=builder.blocks[2:],
            bus=bus,
            extra={
                "hub": hub,
                "stream": stream,
                "subscribers": subscribers,
                "fired": fired,
                "published": [],
            },
        )

    def prepare(self, dep: Deployment, tally: Tally) -> None:
        _fingerprint(tally, dep.blocks)

    def ops(self, dep: Deployment) -> int:
        return len(dep.extra["joined"]) + self.SUBSCRIBERS * len(dep.extra["published"])

    def main(self, dep: Deployment, watch: Stopwatch, tally: Tally, joins) -> Iterator[None]:
        """Fresh clients bootstrap on the measured watch here, traced
        too: joining is half of this workload."""
        bus, hub = dep.bus, dep.extra["hub"]
        fired, published = dep.extra["fired"], dep.extra["published"]
        bytes_before = sum(bus.rpc_bytes_in.values()) + sum(bus.push_bytes_in.values())
        timed_before = watch.total_s
        joiner = Joiner(dep, bus, watch, tally, "fresh")
        dep.extra["joined"] = joiner.clients
        adoptions = 0
        for certified in dep.extra["stream"]:
            joiner.join_one()
            tally.attempted += 1
            fired.clear()
            started = watch.start()
            try:
                hub.publish(certified)
                bus.run_until_idle()
            except ReproError as exc:
                watch.stop()
                tally.fail(f"publish {certified.block.header.height}: {exc}")
                break
            watch.stop()
            published.append(certified)
            if len(fired) == self.SUBSCRIBERS:
                tally.latency_ms.append((max(fired) - started) * 1000.0)
                adoptions += self.SUBSCRIBERS
            else:
                tally.fail(
                    f"tip {certified.block.header.height} reached "
                    f"{len(fired)}/{self.SUBSCRIBERS} subscribers"
                )
            yield
        joiner.finish()
        adoptions += len(joiner.clients)
        tally.work += adoptions
        tally.work_s += watch.total_s - timed_before
        received = sum(bus.rpc_bytes_in.values()) + sum(bus.push_bytes_in.values())
        tally.payload_bytes += received - bytes_before
        tally.payload_ops += adoptions

    def check(self, dep: Deployment, tally: Tally) -> None:
        """Every subscriber ends on the last published header, with no
        rejected push."""
        published = dep.extra["published"]
        if not published:
            return
        last = published[-1].block.header.header_hash()
        for subscriber in dep.extra["subscribers"]:
            header = subscriber.latest_header
            if header is None or header.header_hash() != last:
                tally.fail(f"{subscriber.rpc.name} is not on the last published tip")
            if subscriber.push_rejected:
                tally.fail(f"{subscriber.rpc.name} rejected {subscriber.push_rejected} pushes")
            if subscriber.push_adopted != len(published):
                tally.fail(
                    f"{subscriber.rpc.name} adopted {subscriber.push_adopted}"
                    f"/{len(published)} pushes"
                )
        tally.client_state_bytes = dep.extra["subscribers"][0].storage_bytes()


class Query:
    """Verified reads beside writes: a push-subscribed, gateway-fronted
    client runs a closed loop of typed queries over three replicas while
    the chain advances every :attr:`ADVANCE_EVERY` queries."""

    name = "query"
    tail_q = 0.99
    work_unit = "queries"
    REPLICAS = 3
    PREFIX_BLOCKS = 2
    PREFIX_TXS = 8
    ADVANCE_TXS = 4
    #: Sized with QUERIES_PER_S so a 20 s run advances the tip 9 times
    #: per part, keeping set-up (which certifies those blocks) short.
    ADVANCE_EVERY = 1800
    #: Request-mix shares and the most distinct requests per family.
    #: Both are assumptions: the paper gives no traffic mix, so the
    #: families get equal shares and equal pool caps.  The keyword
    #: family has only about 100-115 distinct requests on these chains,
    #: so its pool is all of them.  The whole pool (about 560) is larger
    #: than the client's 128-entry answer cache.
    MIX = (("history", 0.25), ("keyword", 0.25), ("aggregate", 0.25), ("range", 0.25))
    POOL = {"history": 150, "keyword": 150, "aggregate": 150, "range": 150}
    #: Zipf exponent of the draws within a family, also an assumption:
    #: the low end of the 0.64-0.83 range Breslau et al. (INFOCOM 1999)
    #: measured for web request streams.  It keeps the hit ratio near a
    #: third, so the median query is a verified miss and sits well away
    #: from the hit/miss boundary.
    ZIPF_S = 0.64
    WINDOW = 6
    #: Queries per second of --seconds (p99 needs >= 1,000 samples).
    #: Sized on the reference box so a 20 s run measures about 27 s of
    #: queries: the box's speed swings between runs, and a longer
    #: measured stretch is less often spent wholly at one speed.
    QUERIES_PER_S = 2700.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.queries_per_part = max(20, math.ceil(seconds * self.QUERIES_PER_S / PARTS))
        self.advances_per_part = (self.queries_per_part - 1) // self.ADVANCE_EVERY

    def build(self, part: int) -> Deployment:
        seed = part_seed(self.seed, part)
        generator = WorkloadGenerator(PARAMS, seed=seed)
        builder = ChainBuilder(difficulty_bits=DIFFICULTY_BITS, network=NETWORK)
        _mine(builder, generator.smallbank_setup_txs())
        for index in range(self.PREFIX_BLOCKS + self.advances_per_part):
            workload = "KV" if index % 2 == 0 else "SB"
            size = self.PREFIX_TXS if index < self.PREFIX_BLOCKS else self.ADVANCE_TXS
            _mine(builder, generator.block_txs(workload, size))
        prefix = builder.blocks[1 : self.PREFIX_BLOCKS + 2]
        advances = builder.blocks[self.PREFIX_BLOCKS + 2 :]
        specs = all_index_specs()
        issuer, ias = _issuer(builder, specs)
        genesis, state = make_genesis(network=NETWORK)
        provider = QueryServiceProvider(genesis, state, fresh_vm(), builder.pow, all_index_specs())
        for block in prefix:
            issuer.process_block(block)
            provider.ingest_block(block)
        bus = ByteCountingBus()
        service = IssuerService(bus, "ci", issuer)
        hub = SubscriptionHub.embedded(service)
        replicas = [f"sp{index}" for index in range(self.REPLICAS)]
        for name in replicas:
            QueryService(bus, name, provider)
        gateway = QueryGateway(bus, "gw", replicas)
        measurement = _measurement(issuer, ias, specs)
        client = connect(
            ClientConfig(
                measurement=measurement,
                ias_public_key=ias.public_key,
                bus=bus,
                name="client",
                issuers=("ci",),
                gateway=gateway,
                hub="ci",
                bootstrap=True,
                subscribe=True,
            )
        )
        # Certified with the hub detached: pushed later, in the loop.
        pending = [issuer.process_block(block) for block in advances]
        requests = self._requests(random.Random(seed), builder.blocks[1:])
        return Deployment(
            issuer=issuer,
            measurement=measurement,
            ias=ias,
            blocks=builder.blocks[1:],
            bus=bus,
            extra={
                "hub": hub,
                "provider": provider,
                "client": client,
                "gateway": gateway,
                "prefix": prefix,
                "pending": pending,
                "requests": requests,
                "answered": 0,
            },
        )

    def _requests(self, rng: random.Random, blocks) -> list:
        """A seeded request stream: fixed family shares, Zipf-skewed
        draws from per-family pools of distinct requests.  Each pool is
        a seeded sample of every request of its family over the chain's
        keys, accounts, words and heights.  Keywords skip bare numbers
        (SmallBank amounts), which match most transactions and would let
        one draw of the pool decide a run's cost."""
        keyword_spec = KeywordIndexSpec()
        keys, singles, pairs = set(), set(), set()
        for block in blocks:
            for tx in block.transactions:
                if tx.contract == "kvstore" and tx.args:
                    keys.add(tx.args[0])
                words = sorted(
                    word for word in keyword_spec.extract_keywords(tx) if not word.isdigit()
                )
                singles.update((word,) for word in words)
                pairs.update(itertools.combinations(words, 2))
        windows = [
            (start, start + width)
            for start in range(1, len(blocks) + 1)
            for width in range(self.WINDOW + 1)
        ]
        candidates = {
            "history": [
                HistoryQuery(index="history", account=key, t_from=lo, t_to=hi)
                for key in sorted(keys)
                for lo, hi in windows
            ],
            "keyword": [
                KeywordQuery(index="keyword", keywords=words)
                for words in sorted(singles) + sorted(pairs)
            ],
            "aggregate": [
                AggregateQuery(index="aggregate", account=f"a{account}", t_from=lo, t_to=hi)
                for account in range(PARAMS.num_accounts)
                for lo, hi in windows
            ],
            "range": [
                ValueRangeQuery(index="range", lo=lo, hi=lo + width)
                for lo in range(900, 1101)
                for width in range(61)
            ],
        }
        pools = {}
        for family, size in self.POOL.items():
            pool = candidates[family]
            rng.shuffle(pool)
            pools[family] = pool[:size]
        weights = {
            family: [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(pool))]
            for family, pool in pools.items()
        }
        families = [family for family, _ in self.MIX]
        shares = [share for _, share in self.MIX]
        return [
            rng.choices(pools[family], weights[family])[0]
            for family in rng.choices(families, shares, k=self.queries_per_part)
        ]

    def prepare(self, dep: Deployment, tally: Tally) -> None:
        """Build the never-networked oracle provider at the prefix."""
        from repro.net import wire

        _fingerprint(tally, dep.blocks)
        for request in dep.extra["requests"]:
            tally.inputs.update(wire.encode(request))
        genesis, state = make_genesis(network=NETWORK)
        oracle = QueryServiceProvider(
            genesis, state, fresh_vm(), dep.issuer.node.pow, all_index_specs()
        )
        for block in dep.extra["prefix"]:
            oracle.ingest_block(block)
        dep.extra["oracle"] = oracle
        dep.extra["epoch"] = []

    def ops(self, dep: Deployment) -> int:
        return dep.extra["answered"]

    def _settle(self, dep: Deployment, tally: Tally) -> None:
        """Check the epoch's answers against the oracle at the same
        height (untimed)."""
        oracle = dep.extra["oracle"]
        expected: dict = {}
        for request, answer in dep.extra["epoch"]:
            if request not in expected:
                expected[request] = oracle.execute(request)
            if answer != expected[request]:
                tally.fail(f"wrong answer to {request!r}")
        dep.extra["epoch"] = []

    def main(self, dep: Deployment, watch: Stopwatch, tally: Tally, joins) -> Iterator[None]:
        extra = dep.extra
        bus, hub, client = dep.bus, extra["hub"], extra["client"]
        provider, oracle = extra["provider"], extra["oracle"]
        pending = list(extra["pending"])
        receivers = (client.rpc.name, client.gateway.rpc.name)
        bytes_before = sum(bus.rpc_bytes_in.get(name, 0) for name in receivers)
        epoch = extra["epoch"]
        joiner = Joiner(dep, bus, joins, tally, "joiner") if joins is not None else None
        join_every = max(1, self.queries_per_part // JOINS_PER_PART)
        for index, request in enumerate(extra["requests"]):
            if joiner is not None and index % join_every == 0:
                joiner.join_one()
            if index and index % self.ADVANCE_EVERY == 0 and pending:
                self._settle(dep, tally)
                epoch = extra["epoch"]
                certified = pending.pop(0)
                oracle.ingest_block(certified.block)
                watch.start()
                try:
                    provider.ingest_block(certified.block)
                    hub.publish(certified)
                    bus.run_until_idle()
                except ReproError as exc:
                    watch.stop()
                    tally.fail(f"tip advance {certified.block.header.height}: {exc}")
                    break
                tally.work_s += watch.stop()
                if client.latest_header.header_hash() != certified.block.header.header_hash():
                    tally.fail(f"client missed tip {certified.block.header.height}")
            tally.attempted += 1
            watch.start()
            try:
                answer = client.query(request)
            except ReproError as exc:
                watch.stop()
                tally.fail(f"query {request!r}: {exc}")
                continue
            elapsed = watch.stop()
            tally.latency_ms.append(elapsed * 1000.0)
            tally.work += 1
            tally.work_s += elapsed
            extra["answered"] += 1
            epoch.append((request, answer))
            yield
        if joiner is not None:
            joiner.finish()
        received = sum(bus.rpc_bytes_in.get(name, 0) for name in receivers)
        tally.payload_bytes += received - bytes_before
        tally.payload_ops += extra["answered"]

    def check(self, dep: Deployment, tally: Tally) -> None:
        """Every answer equals the oracle's at the same height."""
        self._settle(dep, tally)
        client = dep.extra["client"]
        if client.push_rejected:
            tally.fail(f"query client rejected {client.push_rejected} pushes")
        tally.client_state_bytes = client.storage_bytes()


WORKLOADS = {workload.name: workload for workload in (Certify, Follow, Query)}
