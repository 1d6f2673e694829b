"""The wire codec: library dataclasses ⇄ canonical JSON bytes."""

import dataclasses

import pytest

from repro.crypto import generate_keypair
from repro.errors import WireError
from repro.net import wire
from repro.net.messages import LagNotice, StreamAck
from repro.net.pubsub import (
    HeartbeatReply,
    SubscribeReply,
    SyncReply,
    TipAnnouncement,
)
from repro.query.api import (
    AggregateQuery,
    HistoryQuery,
    KeywordQuery,
    ValueRangeQuery,
)


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -17,
        3.5,
        "hello",
        b"",
        b"\x00\xffraw",
        (1, "two", b"\x03"),
        [1, [2, [3]]],
        {"a": 1, "b": (2, 3)},
        {1: "int keys", (2, 3): "tuple keys"},
    ],
)
def test_scalar_and_container_round_trip(value):
    decoded = wire.decode(wire.encode(value))
    assert decoded == value
    assert type(decoded) is type(value)


def test_tuple_list_distinction_survives():
    decoded = wire.decode(wire.encode(((1, 2), [3, 4])))
    assert decoded == ((1, 2), [3, 4])
    assert isinstance(decoded[0], tuple)
    assert isinstance(decoded[1], list)


@pytest.mark.parametrize(
    "request_",
    [
        HistoryQuery(index="history", account="acct1", t_from=1, t_to=9),
        AggregateQuery(index="balances", account="alice", t_from=2, t_to=5),
        ValueRangeQuery(index="range", lo=900, hi=1100),
        KeywordQuery(index="keyword", keywords=("a", "b")),
    ],
)
def test_query_requests_round_trip(request_):
    assert wire.decode(wire.encode(request_)) == request_


def test_nested_library_dataclass_round_trips():
    keypair = generate_keypair(b"wire-test")
    decoded = wire.decode(wire.encode(keypair.public))
    assert decoded == keypair.public


def test_encoding_is_canonical():
    request = HistoryQuery(index="i", account="a", t_from=1, t_to=2)
    assert wire.encode(request) == wire.encode(request)


def test_non_library_dataclass_refused():
    @dataclasses.dataclass
    class Foreign:
        x: int

    with pytest.raises(WireError):
        wire.encode(Foreign(1))


def test_unserializable_value_refused():
    with pytest.raises(WireError):
        wire.encode(object())


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\xff\xfe not json",
        b"[1,2,3]",  # bare arrays are never produced by the codec
        b'{"!b":"xyz"}',  # not hex
        b'{"!b":"00","!t":[]}',  # ambiguous tags
        b'{"no":"tag"}',
        b'{"!dc":"os:path","!f":{}}',  # refuses non-repro modules
        b'{"!dc":"repro.query.api:Nope","!f":{}}',
        b'{"!dc":"repro.query.api:HistoryQuery"}',  # missing field map
    ],
)
def test_undecodable_bytes_raise_wire_error(data):
    with pytest.raises(WireError):
        wire.decode(data)


#: Nesting far past the interpreter's recursion limit: bare JSON arrays
#: and tagged tuples.
DEEPLY_NESTED = [
    b"[" * 100_000 + b"]" * 100_000,
    b'{"!t":[' * 100_000 + b"1" + b"]}" * 100_000,
]


@pytest.mark.parametrize("data", DEEPLY_NESTED, ids=["arrays", "tuples"])
def test_deep_nesting_raises_wire_error_not_recursion_error(data):
    """Regression: the decode-failure contract covers a stack blown by
    nesting, not only malformed bytes."""
    with pytest.raises(WireError, match="nested too deeply"):
        wire.decode(data)


def test_tampered_field_values_fail_validation_on_decode():
    """An off-curve public key is rejected by its own __post_init__."""
    keypair = generate_keypair(b"wire-tamper")
    encoded = wire.encode(keypair.public)
    x = keypair.public.x
    tampered = encoded.replace(str(x).encode(), str(x + 1).encode(), 1)
    assert tampered != encoded
    with pytest.raises(WireError):
        wire.decode(tampered)


def test_unknown_structural_field_rejected():
    request = HistoryQuery(index="i", account="a", t_from=1, t_to=2)
    encoded = wire.encode(request)
    tampered = encoded.replace(b'"account"', b'"acct_no"')
    with pytest.raises(WireError):
        wire.decode(tampered)


# -- push-stream wire messages ------------------------------------------------


@pytest.mark.parametrize(
    "message",
    [
        StreamAck(subscriber="client-3", seq=41),
        SubscribeReply(latest_seq=7, lease_ms=30_000.0),
        HeartbeatReply(latest_seq=9, subscribed=True, lagged=False),
        HeartbeatReply(latest_seq=0, subscribed=False, lagged=True),
        LagNotice(latest_seq=12, dropped=4),
        SyncReply(announcements=(), latest_seq=3, oldest_retained=1),
    ],
)
def test_push_stream_messages_round_trip(message):
    decoded = wire.decode(wire.encode(message))
    assert decoded == message
    assert type(decoded) is type(message)


def test_sync_reply_with_announcement_round_trips(certified_setup):
    certified = certified_setup["issuer"].certified[-1]
    announcement = TipAnnouncement(
        seq=5,
        published_at_ms=125.0,
        header=certified.block.header,
        certificate=certified.certificate,
        index_certificates=certified.index_certificates,
        index_roots=certified.index_roots,
    )
    reply = SyncReply(
        announcements=(announcement,), latest_seq=5, oldest_retained=2
    )
    decoded = wire.decode(wire.encode(reply))
    assert decoded == reply
    assert decoded.announcements[0].certificate == certified.certificate
