"""The superlight client: Alg. 3, chain selection, constant costs."""

from types import SimpleNamespace

import pytest

import repro.core.superlight as superlight
from repro.core.client_api import ClientConfig, connect
from repro.core.issuer import CertifiedTip
from repro.core.superlight import SuperlightClient, compute_expected_measurement
from repro.errors import CertificateError, ServiceUnavailableError
from repro.net.bus import MessageBus
from repro.net.pubsub import SubscriptionHub
from repro.net.rpc import RpcServer
from tests.conftest import fresh_vm


@pytest.fixture()
def client(certified_setup):
    setup = certified_setup
    measurement = compute_expected_measurement(
        setup["genesis"].header.header_hash(),
        setup["ias"].public_key,
        fresh_vm(),
        setup["chain"].pow.difficulty_bits,
        setup["specs"],
    )
    assert measurement == setup["issuer"].measurement
    return SuperlightClient(measurement, setup["ias"].public_key)


def test_validate_latest_tip(client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    assert client.validate_chain(tip.block.header, tip.certificate)
    assert client.latest_header == tip.block.header


def test_chain_selection_prefers_height(client, certified_setup):
    certified = certified_setup["issuer"].certified
    assert client.validate_chain(certified[-1].block.header, certified[-1].certificate)
    # An older (but genuinely certified) block loses chain selection.
    assert not client.validate_chain(
        certified[0].block.header, certified[0].certificate
    )
    assert client.latest_header == certified[-1].block.header


def test_storage_is_constant(client, certified_setup):
    sizes = []
    for certified in certified_setup["issuer"].certified:
        client.validate_chain(certified.block.header, certified.certificate)
        sizes.append(client.storage_bytes())
    assert max(sizes) - min(sizes) <= 8  # only numeric field widths vary


def test_report_checked_once_per_enclave(client, certified_setup):
    certified = certified_setup["issuer"].certified
    client.validate_chain(certified[0].block.header, certified[0].certificate)
    assert len(client._verified_reports) == 1
    client.validate_chain(certified[1].block.header, certified[1].certificate)
    assert len(client._verified_reports) == 1


def test_report_cache_binds_full_report_content(client, certified_setup):
    """Regression (found by tests/proptest): the verified-report cache
    must key on every attested field, not the signature alone.  A
    certificate whose report replays a previously verified signature
    but carries a tampered measurement must not ride the cache past the
    measurement check."""
    from dataclasses import replace

    tip = certified_setup["issuer"].certified[-1]
    assert client.validate_chain(tip.block.header, tip.certificate)

    index_cert = tip.index_certificates["history"]
    bad_measurement = bytes([index_cert.report.measurement[0] ^ 0x01]) + (
        index_cert.report.measurement[1:]
    )
    forged = replace(
        index_cert, report=replace(index_cert.report, measurement=bad_measurement)
    )
    with pytest.raises(CertificateError):
        client.validate_index_certificate(
            "history", tip.block.header, tip.index_roots["history"], forged
        )


def test_index_certificate_adoption(client, certified_setup):
    certified = certified_setup["issuer"].certified
    old, new = certified[-2], certified[-1]
    assert client.validate_index_certificate(
        "history", new.block.header, new.index_roots["history"],
        new.index_certificates["history"],
    )
    # An older index certificate does not displace a newer root.
    assert not client.validate_index_certificate(
        "history", old.block.header, old.index_roots["history"],
        old.index_certificates["history"],
    )
    assert client.certified_index_root("history") == new.index_roots["history"]


def test_augmented_certificate_also_validates(client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    assert client.validate_index_certificate(
        "keyword", tip.block.header, tip.index_roots["keyword"],
        tip.augmented_certificates["keyword"],
    )


def test_unknown_index_root_raises(client):
    with pytest.raises(CertificateError):
        client.certified_index_root("unheard-of")


def test_query_verification_through_client(client, certified_setup):
    issuer = certified_setup["issuer"]
    tip = issuer.certified[-1]
    client.validate_index_certificate(
        "history", tip.block.header, tip.index_roots["history"],
        tip.index_certificates["history"],
    )
    from repro.query.api import HistoryQuery, KeywordQuery, QueryAnswer

    request = HistoryQuery(index="history", account="k1", t_from=1, t_to=10)
    answer = issuer.indexes["history"].query_history("k1", 1, 10)
    assert client.verify_answer(
        request, QueryAnswer(request=request, payload=answer)
    )

    client.validate_index_certificate(
        "keyword", tip.block.header, tip.index_roots["keyword"],
        tip.index_certificates["keyword"],
    )
    keyword_request = KeywordQuery(index="keyword", keywords=("v1",))
    keyword_answer = issuer.indexes["keyword"].query_conjunctive(["v1"])
    assert client.verify_answer(
        keyword_request,
        QueryAnswer(request=keyword_request, payload=keyword_answer),
    )


def test_wrong_measurement_rejected(certified_setup):
    setup = certified_setup
    client = SuperlightClient(b"\x00" * 32, setup["ias"].public_key)
    tip = setup["issuer"].certified[-1]
    with pytest.raises(CertificateError):
        client.validate_chain(tip.block.header, tip.certificate)


def test_wrong_ias_key_rejected(certified_setup):
    from repro.sgx.attestation import AttestationService

    setup = certified_setup
    rogue_ias = AttestationService(seed=b"rogue")
    client = SuperlightClient(setup["issuer"].measurement, rogue_ias.public_key)
    tip = setup["issuer"].certified[-1]
    with pytest.raises(CertificateError):
        client.validate_chain(tip.block.header, tip.certificate)


def test_wallet_roundtrip(client, certified_setup):
    tip = certified_setup["issuer"].certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    client.validate_index_certificate(
        "history", tip.block.header, tip.index_roots["history"],
        tip.index_certificates["history"],
    )
    restored = SuperlightClient.from_json(client.to_json())
    assert restored.latest_header == client.latest_header
    assert restored.certified_index_root("history") == client.certified_index_root(
        "history"
    )
    assert restored.storage_bytes() == client.storage_bytes()


def test_wallet_tamper_rejected(client, certified_setup):
    import json

    tip = certified_setup["issuer"].certified[-1]
    client.validate_chain(tip.block.header, tip.certificate)
    wallet = json.loads(client.to_json())
    header = json.loads(wallet["header"])
    header["height"] += 100
    wallet["header"] = json.dumps(header, sort_keys=True)
    with pytest.raises(CertificateError):
        SuperlightClient.from_json(json.dumps(wallet))


def test_empty_wallet_roundtrip(certified_setup):
    client = SuperlightClient(
        certified_setup["issuer"].measurement, certified_setup["ias"].public_key
    )
    restored = SuperlightClient.from_json(client.to_json())
    assert restored.latest_header is None
    assert restored.storage_bytes() == 0


def test_verified_report_cache_is_bounded(client, certified_setup):
    # Pretend earlier sessions verified other enclaves, and shrink the
    # cap so the next genuine verification must evict the oldest.
    client.VERIFIED_REPORTS_LIMIT = 2
    client._verified_reports[(b"old-a", b"r", b"k", b"s")] = None
    client._verified_reports[(b"old-b", b"r", b"k", b"s")] = None
    certified = certified_setup["issuer"].certified[0]
    assert client.validate_chain(
        certified.block.header, certified.certificate
    )
    assert len(client._verified_reports) == 2
    assert (b"old-a", b"r", b"k", b"s") not in client._verified_reports
    # The freshly verified identity survived; revalidation stays cached.
    client.validate_chain(certified.block.header, certified.certificate)
    assert len(client._verified_reports) == 2


# -- atomic tip adoption, on every delivery path ------------------------------


def _tip(certified, index_names=None):
    """``certified`` as the CertifiedTip a CI serves, optionally with only
    the named index certificates."""
    names = certified.index_certificates if index_names is None else index_names
    return CertifiedTip(
        header=certified.block.header,
        certificate=certified.certificate,
        index_certificates={n: certified.index_certificates[n] for n in names},
        index_roots={n: certified.index_roots[n] for n in names},
    )


def _remote(certified_setup, tip, **config):
    """A remote client whose issuer endpoint ``ci`` serves ``tip`` and
    hosts a hub; returns (client, bus, hub)."""
    bus = MessageBus()
    server = RpcServer(bus, "ci")
    server.register("latest_tip", lambda _argument: tip)
    hub = SubscriptionHub(server=server)
    client = connect(ClientConfig(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
        bus=bus, issuers=("ci",), hub="ci", **config,
    ))
    return client, bus, hub


def _deliver_polled(certified_setup, tip):
    remote, _bus, _hub = _remote(certified_setup, tip)

    def deliver():
        with pytest.raises(ServiceUnavailableError):
            remote.bootstrap()

    return remote.client, deliver


def _deliver_pushed(certified_setup, tip):
    remote, bus, hub = _remote(certified_setup, tip, subscribe=True)

    def deliver():
        hub.publish(tip)
        bus.run_until_idle()
        assert remote.push_rejected == 1

    return remote.client, deliver


def _deliver_local(certified_setup, tip):
    source = SimpleNamespace(on_certified=[])
    local = connect(ClientConfig(
        measurement=certified_setup["issuer"].measurement,
        ias_public_key=certified_setup["ias"].public_key,
        issuer=source, subscribe=True,
    ))

    def deliver():
        with pytest.raises(CertificateError):
            for hook in source.on_certified:
                hook(tip)

    return local, deliver


DELIVERY_PATHS = {
    "polled": _deliver_polled,
    "pushed": _deliver_pushed,
    "local": _deliver_local,
}


@pytest.mark.parametrize("path", DELIVERY_PATHS)
def test_tip_with_a_foreign_index_certificate_is_refused_atomically(
    certified_setup, path
):
    """A genuine block certificate beside an index certificate for a
    different digest: refused with no header, root or callback moved."""
    certified = certified_setup["issuer"].certified
    forged = _tip(certified[-1])
    forged.index_certificates["history"] = (
        certified[-2].index_certificates["history"]
    )
    client, deliver = DELIVERY_PATHS[path](certified_setup, forged)
    earlier = _tip(certified[-3])
    assert client.validate_chain(earlier.header, earlier.certificate)
    for name, cert in earlier.index_certificates.items():
        client.validate_index_certificate(
            name, earlier.header, earlier.index_roots[name], cert
        )
    before = client.to_json()
    fired = []
    client.on_tip(lambda header, cert: fired.append(header.height))

    deliver()

    assert client.to_json() == before
    assert client.latest_header == earlier.header
    assert client.certified_index_root("keyword") == earlier.index_roots["keyword"]
    assert fired == []
    assert forged.header.height > earlier.header.height  # it would have won


@pytest.fixture()
def signature_checks(monkeypatch):
    """Counts certificate signature verifications in the client."""
    calls = []
    real = superlight.verify

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(superlight, "verify", counting)
    return calls


def test_one_signature_check_per_certificate_when_pushed(
    certified_setup, signature_checks
):
    tip = _tip(certified_setup["issuer"].certified[-1], ["history"])
    remote, bus, hub = _remote(certified_setup, tip, subscribe=True)
    hub.publish(tip)
    bus.run_until_idle()
    assert remote.push_adopted == 1
    assert len(signature_checks) == 2  # block + one index certificate


def test_one_signature_check_per_certificate_when_polled(
    certified_setup, signature_checks
):
    tip = _tip(certified_setup["issuer"].certified[-1], ["history"])
    remote, _bus, _hub = _remote(certified_setup, tip)
    remote.bootstrap()
    assert remote.latest_header == tip.header
    assert len(signature_checks) == 2  # block + one index certificate
