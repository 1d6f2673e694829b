"""The unified LightClient surface: protocol conformance, the
connect() factory, the streaming surface, and the storage budget."""

import pytest

from repro.chain import ChainBuilder
from repro.chain.genesis import make_genesis
from repro.chain.transaction import sign_transaction
from repro.core.client_api import ClientConfig, LightClient, connect
from repro.core.superlight import (
    RemoteSuperlightClient,
    SuperlightClient,
    compute_expected_measurement,
)
from repro.errors import ReproError
from repro.crypto import generate_keypair
from repro.net.bus import MessageBus
from repro.query.api import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    QueryAnswer,
    ValueRangeQuery,
)
from repro.query.indexes import (
    AccountHistoryIndexSpec,
    BalanceAggregateIndexSpec,
    KeywordIndexSpec,
    ValueRangeIndexSpec,
)
from repro.query.provider import QueryServiceProvider
from repro.sgx.attestation import AttestationService
from tests.conftest import fresh_vm

#: The paper's constant client state: ~2.97 KB.
PAPER_STORAGE_BUDGET_BYTES = int(2.97 * 1024)


@pytest.fixture()
def local_client(certified_setup):
    setup = certified_setup
    measurement = compute_expected_measurement(
        setup["genesis"].header.header_hash(),
        setup["ias"].public_key,
        fresh_vm(),
        setup["chain"].pow.difficulty_bits,
        setup["specs"],
    )
    return SuperlightClient(measurement, setup["ias"].public_key)


@pytest.fixture(scope="module")
def four_family_world():
    """A provider over all four index families, plus a client that
    trusts its roots (injected directly: these tests exercise answer
    verification, not certificate adoption)."""
    user = generate_keypair(b"client-api-user")
    builder = ChainBuilder(difficulty_bits=4, network="client-api")
    nonce = [0]

    def tx(contract, method, *args):
        signed = sign_transaction(
            user.private, nonce[0], contract, method, tuple(args)
        )
        nonce[0] += 1
        return signed

    builder.add_block([tx("smallbank", "create", "a1", "900", "100")])
    for round_ in range(3):
        builder.add_block([
            tx("smallbank", "deposit_checking", "a1", "50"),
            tx("kvstore", "put", "k1", f"v{round_}"),
        ])
    specs = [
        AccountHistoryIndexSpec(name="history"),
        KeywordIndexSpec(name="keyword"),
        BalanceAggregateIndexSpec(name="aggregate"),
        ValueRangeIndexSpec(name="range"),
    ]
    genesis, state = make_genesis(network="client-api")
    provider = QueryServiceProvider(
        genesis, state, fresh_vm(), builder.pow, specs
    )
    for block in builder.blocks[1:]:
        provider.ingest_block(block)

    ias = AttestationService(seed=b"client-api-ias")
    client = SuperlightClient(b"\x11" * 32, ias.public_key)
    for spec in specs:
        client._index_roots[spec.name] = (
            builder.height, provider.index_root(spec.name)
        )
    return provider, client, builder.height


# -- protocol conformance ----------------------------------------------------


def test_superlight_client_conforms(local_client):
    assert isinstance(local_client, LightClient)


def test_remote_client_conforms(certified_setup):
    bus = MessageBus()
    remote = connect(ClientConfig(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
        bus=bus, name="client",
        issuers=("ci",), providers=("sp",),
    ))
    assert isinstance(remote, LightClient)


def test_arbitrary_object_does_not_conform():
    class NotAClient:
        def storage_bytes(self) -> int:
            return 0

    assert not isinstance(NotAClient(), LightClient)


def test_both_flavors_usable_through_the_protocol(certified_setup, local_client):
    def storage_of(client: LightClient) -> int:
        return client.storage_bytes()

    bus = MessageBus()
    remote = connect(ClientConfig(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
        bus=bus, name="client",
        issuers=("ci",), providers=("sp",),
    ))
    assert storage_of(local_client) == 0
    assert storage_of(remote) == 0


def test_object_missing_streaming_surface_does_not_conform():
    """The protocol now covers staying at the tip: a poll-only client
    shape (everything but subscribe/unsubscribe/on_tip) is not a
    LightClient."""

    class PollOnly:
        latest_header = None

        def validate_chain(self, header, cert):
            return False

        def verify_answer(self, request, answer):
            return False

        def certified_index_root(self, name):
            raise KeyError(name)

        def storage_bytes(self):
            return 0

    assert not isinstance(PollOnly(), LightClient)


# -- the connect() factory ---------------------------------------------------


def _anchors(certified_setup):
    return dict(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
    )


def test_connect_local_mode(certified_setup):
    client = connect(ClientConfig(**_anchors(certified_setup)))
    assert isinstance(client, SuperlightClient)


def test_connect_remote_providers(certified_setup):
    client = connect(ClientConfig(
        **_anchors(certified_setup),
        bus=MessageBus(), issuers=("ci",), providers=("sp1", "sp2"),
    ))
    assert isinstance(client, RemoteSuperlightClient)
    assert client.providers == ["sp1", "sp2"] and client.gateway is None


def test_connect_remote_gateway(certified_setup):
    from repro.net.gateway import QueryGateway

    bus = MessageBus()
    gateway = QueryGateway(bus, "gw", ["sp1", "sp2"])
    client = connect(ClientConfig(
        **_anchors(certified_setup), bus=bus, issuers=("ci",), gateway=gateway,
    ))
    assert isinstance(client, RemoteSuperlightClient)
    assert client.gateway is gateway and client.providers == []
    # The gateway's switch-verification hook is wired to the client.
    assert gateway.verify_switch is not None


def test_connect_remote_tip_only(certified_setup):
    """No providers, no gateway: a certificate-sync-only client."""
    client = connect(ClientConfig(
        **_anchors(certified_setup), bus=MessageBus(), issuers=("ci",),
    ))
    assert isinstance(client, RemoteSuperlightClient)
    assert client.providers == [] and client.gateway is None


def test_connect_emits_no_deprecation_warning(certified_setup):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        connect(ClientConfig(
            **_anchors(certified_setup),
            bus=MessageBus(), issuers=("ci",), providers=("sp",),
        ))


@pytest.mark.parametrize("overrides", [
    # A remote client with no issuer endpoints cannot sync certificates.
    dict(bus=MessageBus()),
    # Providers and a gateway are competing query transports.
    dict(bus=MessageBus(), issuers=("ci",), providers=("sp",), gateway=object()),
    # Remote-mode settings without a bus are a mis-wiring, not local mode.
    dict(providers=("sp",)),
    dict(hub="hub"),
    # subscribe=True needs a push source: a hub (remote) or issuer (local).
    dict(bus=MessageBus(), issuers=("ci",), subscribe=True),
    dict(subscribe=True),
])
def test_config_validate_rejects_miswirings(certified_setup, overrides):
    config = ClientConfig(**_anchors(certified_setup), **overrides)
    with pytest.raises(ReproError):
        config.validate()


@pytest.mark.parametrize("overrides,match", [
    # A remote client (bus/gateway transport) combined with a local
    # in-process issuer= is two shapes at once.
    (dict(bus=MessageBus(), issuers=("ci",), issuer=object()), "local-mode"),
    (dict(bus=MessageBus(), issuers=("ci",), gateway=object(),
          issuer=object()), "local-mode"),
    # Subscribing remotely without a hub endpoint: the error names it.
    (dict(bus=MessageBus(), issuers=("ci",), subscribe=True), "hub"),
    # Remote-mode settings with no service transport (no bus) point at
    # the missing bus, not at local mode.
    (dict(providers=("sp",)), "bus"),
    (dict(gateway=object()), "bus"),
    (dict(hub="hub"), "bus"),
])
def test_config_validate_names_the_miswiring(certified_setup, overrides,
                                             match):
    """Each rejection message names the conflicting/missing setting."""
    config = ClientConfig(**_anchors(certified_setup), **overrides)
    with pytest.raises(ReproError, match=match):
        config.validate()


def test_connect_rejects_issuer_with_remote_transport(certified_setup):
    """connect() refuses to build a client that is simultaneously local
    (issuer=) and remote (bus/gateway) — nothing half-constructed."""
    with pytest.raises(ReproError, match="issuer"):
        connect(ClientConfig(
            **_anchors(certified_setup),
            bus=MessageBus(), issuers=("ci",),
            issuer=certified_setup["issuer"],
        ))


# -- local push subscription (direct issuer callback) ------------------------


def _subscription_world():
    """A tiny fresh chain + issuer a local client can subscribe to."""
    from repro.core.issuer import CertificateIssuer

    user = generate_keypair(b"client-api-sub")
    builder = ChainBuilder(difficulty_bits=4, network="client-api-sub")
    for nonce in range(4):
        builder.add_block([
            sign_transaction(
                user.private, nonce, "kvstore", "put", (f"k{nonce}", f"v{nonce}")
            )
        ])
    genesis, state = make_genesis(network="client-api-sub")
    ias = AttestationService(seed=b"client-api-sub-ias")
    issuer = CertificateIssuer(
        genesis, state, fresh_vm(), builder.pow,
        index_specs=[], ias=ias, key_seed=b"client-api-sub-enclave",
    )
    return builder, issuer, ias


def test_local_client_subscribes_directly_to_issuer():
    builder, issuer, ias = _subscription_world()
    client = connect(ClientConfig(
        measurement=issuer.measurement, ias_public_key=ias.public_key,
        issuer=issuer, subscribe=True,
    ))
    seen = []
    client.on_tip(lambda header, cert: seen.append(header.height))
    for block in builder.blocks[1:3]:
        issuer.process_block(block)
    assert client.latest_header is not None
    assert client.latest_header.height == 2
    assert seen == [1, 2]
    # Unsubscribing stops the feed: later certifications leave the tip.
    client.unsubscribe()
    for block in builder.blocks[3:]:
        issuer.process_block(block)
    assert client.latest_header.height == 2 and seen == [1, 2]
    assert issuer.certified[-1].block.header.height == builder.height


def test_local_subscribe_requires_an_issuer_source():
    from repro.errors import CertificateError

    builder, issuer, ias = _subscription_world()
    client = SuperlightClient(issuer.measurement, ias.public_key)
    with pytest.raises(CertificateError):
        client.subscribe()
    with pytest.raises(CertificateError):
        client.subscribe(source=object())


# -- the unified verification surface ---------------------------------------


def test_verify_answer_covers_all_four_families(four_family_world):
    provider, client, height = four_family_world
    requests = (
        HistoryQuery(index="history", account="k1", t_from=1, t_to=height),
        KeywordQuery(index="keyword", keywords=("k1",)),
        AggregateQuery(index="aggregate", account="a1", t_from=1, t_to=height),
        ValueRangeQuery(index="range", lo=0, hi=10_000),
    )
    for request in requests:
        answer = provider.execute(request)
        assert client.verify_answer(request, answer)


def test_verify_answer_rejects_tampered_answers(four_family_world):
    from dataclasses import replace

    provider, client, height = four_family_world
    request = HistoryQuery(index="history", account="k1", t_from=1, t_to=height)
    answer = provider.execute(request)
    tampered = replace(answer.payload, versions=answer.payload.versions[:-1])
    assert not client.verify_answer(
        request, QueryAnswer(request=request, payload=tampered)
    )


# -- the storage budget (Fig. 7a) -------------------------------------------


def test_storage_counts_index_certificates(local_client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    local_client.validate_chain(tip.block.header, tip.certificate)
    base = local_client.storage_bytes()
    assert base == (
        tip.block.header.size_bytes() + tip.certificate.size_bytes()
    )
    cert = tip.index_certificates["history"]
    local_client.validate_index_certificate(
        "history", tip.block.header, tip.index_roots["history"], cert
    )
    grown = local_client.storage_bytes()
    # One index certificate plus its (height, root) bookkeeping.
    assert grown == base + cert.size_bytes() + 32 + 8


def test_full_client_state_within_paper_budget(local_client, certified_setup):
    """Header + certificate + every index certificate: ~2.97 KB."""
    tip = certified_setup["issuer"].certified[-1]
    local_client.validate_chain(tip.block.header, tip.certificate)
    for name in ("history", "keyword"):
        local_client.validate_index_certificate(
            name, tip.block.header,
            tip.index_roots[name], tip.index_certificates[name],
        )
    total = local_client.storage_bytes()
    assert 0 < total <= PAPER_STORAGE_BUDGET_BYTES
    # The wallet file is the durable form of exactly this state.
    restored = SuperlightClient.from_json(local_client.to_json())
    assert restored.storage_bytes() == total
