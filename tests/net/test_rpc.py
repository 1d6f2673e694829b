"""Request/response RPC: timeouts, retries, backoff, corruption."""

from dataclasses import replace

import pytest

from repro.errors import (
    QueryError,
    RemoteCallError,
    ResponseIntegrityError,
    RpcTimeoutError,
)
from repro.net.bus import MessageBus, NetworkNode
from repro.net.faults import FaultInjector, LinkFaults
from repro.net.rpc import RetryPolicy, RpcClient, RpcRequest, RpcServer, rpc_topic
from tests.net.test_wire import DEEPLY_NESTED


@pytest.fixture()
def bus():
    return MessageBus(default_latency_ms=10.0)


@pytest.fixture()
def echo_server(bus):
    def fail(argument):
        raise QueryError("no such index")

    server = RpcServer(bus, "server")
    server.register("echo", lambda argument: argument)
    server.register("fail", fail)
    return server


@pytest.fixture()
def client(bus):
    return RpcClient(
        bus, "client",
        RetryPolicy(timeout_ms=100.0, max_attempts=3, backoff_base_ms=10.0),
    )


def test_happy_path_round_trip(bus, echo_server, client):
    result = client.call("server", "echo", {"k": (1, b"\x02")})
    assert result == {"k": (1, b"\x02")}
    assert echo_server.requests_served == 1
    assert client.timeouts == 0
    assert bus.clock_ms == pytest.approx(20.0)  # one RTT


def test_remote_library_error_is_reraised_locally(bus, echo_server, client):
    with pytest.raises(QueryError, match="no such index"):
        client.call("server", "fail")


def test_unknown_method_maps_to_remote_call_error(bus, echo_server, client):
    with pytest.raises(RemoteCallError, match="unknown method"):
        client.call("server", "nope")


def test_unregistered_subclass_degrades_to_taxonomic_ancestor(bus, client):
    """A subclass minted after this build inherits its parent's wire
    code, so the client maps it back to the nearest known ancestor."""
    server = RpcServer(bus, "server")

    class Weird(QueryError):
        pass

    def boom(argument):
        raise Weird("strange")

    server.register("boom", boom)
    with pytest.raises(QueryError, match="strange") as excinfo:
        client.call("server", "boom")
    assert type(excinfo.value) is QueryError


def test_unknown_wire_code_degrades_to_remote_call_error(bus, client):
    from repro.net import wire
    from repro.net.rpc import RpcResponse

    node = bus.join(NetworkNode("oddball"))

    def reply(message):
        bus.send(
            "oddball", message.sender, rpc_topic(message.sender),
            RpcResponse(
                request_id=message.request_id, sender="oddball",
                ok=False, payload=wire.encode("from the future"),
                code="galaxy.brain",
            ),
        )

    node.on(rpc_topic("oddball"), reply)
    with pytest.raises(RemoteCallError, match="from the future"):
        client.call("oddball", "anything")


def test_retryable_remote_error_is_retried(bus, client):
    """A transport-class failure reported by the server (e.g. service
    restarting) is retried with backoff instead of raised on first
    sight — unlike terminal errors such as QueryError."""
    from repro.errors import ServiceUnavailableError

    attempts = []

    def flaky(argument):
        attempts.append(1)
        if len(attempts) < 2:
            raise ServiceUnavailableError("warming up")
        return "ready"

    server = RpcServer(bus, "server")
    server.register("flaky", flaky)
    assert client.call("server", "flaky") == "ready"
    assert len(attempts) == 2


def test_retryable_remote_error_raised_when_attempts_exhaust(bus, client):
    from repro.errors import ServiceUnavailableError

    def always_down(argument):
        raise ServiceUnavailableError("still warming up")

    server = RpcServer(bus, "server")
    server.register("down", always_down)
    with pytest.raises(ServiceUnavailableError, match="warming up"):
        client.call("server", "down")


def test_response_carries_typed_code(bus, echo_server, client):
    with pytest.raises(QueryError) as excinfo:
        client.call("server", "fail")
    assert excinfo.value.code == "query"
    assert not excinfo.value.retryable


def test_service_time_models_a_busy_worker(bus):
    """With service_time_ms set, replies queue behind one another: two
    back-to-back requests complete ~service_time apart, not together."""
    server = RpcServer(bus, "server", service_time_ms=40.0)
    server.register("echo", lambda argument: argument)
    client = RpcClient(bus, "client", RetryPolicy(timeout_ms=500.0))
    first = client.begin("server", "echo", 1)
    second = client.begin("server", "echo", 2)
    bus.run_until_idle()
    assert client.has_response(first) and client.has_response(second)
    # request lands at 10ms; first reply leaves at 50, second at 90.
    assert bus.clock_ms == pytest.approx(100.0)
    assert server.busy_until_ms == pytest.approx(90.0)


def test_permanent_failure_times_out_after_bounded_attempts(bus, client):
    bus.join(NetworkNode("server"))  # joined but serves nothing
    before = bus.clock_ms
    with pytest.raises(RpcTimeoutError, match="3 attempts"):
        client.call("server", "echo", 1)
    assert client.timeouts == 3
    # 3 timeouts of 100ms plus two backoff sleeps of 10ms and 20ms.
    assert bus.clock_ms - before == pytest.approx(330.0)


def test_retry_then_succeed_after_outage_heals(bus, echo_server, client):
    injector = FaultInjector(seed=1)
    injector.set_link("client", "server", LinkFaults(drop_rate=1.0))
    bus.install_faults(injector)
    # The link heals while the client is mid-backoff (virtual time 150ms
    # falls inside the first backoff window after the 100ms timeout).
    bus.schedule(105.0, lambda: injector.clear_link("client", "server"))
    result = client.call("server", "echo", "eventually")
    assert result == "eventually"
    assert client.timeouts == 1
    assert echo_server.requests_served == 1


def test_corrupted_response_raises_integrity_error(bus, echo_server, client):
    injector = FaultInjector(seed=2)
    injector.set_link(
        "server", "client",
        LinkFaults(
            corrupt_rate=1.0,
            corrupter=lambda m, rng: replace(m, payload=b"\xff junk"),
        ),
    )
    bus.install_faults(injector)
    with pytest.raises(ResponseIntegrityError, match="corrupted in flight"):
        client.call("server", "echo", "tamper me")


def test_corrupted_request_is_dropped_by_server(bus, echo_server, client):
    injector = FaultInjector(seed=3)
    injector.set_link(
        "client", "server",
        LinkFaults(
            corrupt_rate=1.0,
            corrupter=lambda m, rng: replace(m, payload=b"\xff junk"),
        ),
    )
    bus.install_faults(injector)
    with pytest.raises(RpcTimeoutError):
        client.call("server", "echo", 1)
    assert echo_server.requests_dropped == 3
    assert echo_server.requests_served == 0


@pytest.mark.parametrize("payload", DEEPLY_NESTED, ids=["arrays", "tuples"])
def test_deeply_nested_request_is_dropped_and_bus_keeps_running(
    bus, echo_server, client, payload
):
    """A peer's too-deep payload is a corrupted request: the server
    drops it instead of letting RecursionError escape the bus."""
    request = RpcRequest(
        request_id=999, sender="client", method="echo", payload=payload
    )
    bus.send("client", "server", rpc_topic("server"), request)
    bus.run_until_idle()
    assert echo_server.requests_dropped == 1
    assert echo_server.requests_served == 0
    assert client.call("server", "echo", "still up") == "still up"


def test_duplicated_responses_are_ignored(bus, echo_server, client):
    injector = FaultInjector(seed=4)
    injector.set_link("server", "client", LinkFaults(duplicate_rate=1.0))
    bus.install_faults(injector)
    assert client.call("server", "echo", "dup") == "dup"
    bus.run_until_idle()  # deliver the straggler copy
    assert client.duplicates_ignored == 1


def test_late_response_from_timed_out_attempt_is_ignored(bus, echo_server, client):
    injector = FaultInjector(seed=5)
    # Only the *first* response is delayed beyond the 100ms attempt
    # timeout: the link heals right after it is enqueued.
    injector.set_link("server", "client", LinkFaults(extra_delay_ms=150.0))
    bus.schedule(15.0, lambda: injector.clear_link("server", "client"))
    bus.install_faults(injector)
    result = client.call("server", "echo", "slow")
    assert result == "slow"
    assert client.timeouts == 1
    bus.run_until_idle()  # the stale first reply finally lands
    assert client.duplicates_ignored == 1


def test_concurrent_clients_share_the_bus(bus, echo_server):
    first = RpcClient(bus, "c1", RetryPolicy(timeout_ms=100.0))
    second = RpcClient(bus, "c2", RetryPolicy(timeout_ms=100.0))
    assert first.call("server", "echo", "one") == "one"
    assert second.call("server", "echo", "two") == "two"
    assert echo_server.requests_served == 2


def test_rpc_topic_namespacing():
    assert rpc_topic("sp1") == "rpc:sp1"


def test_per_call_policy_override(bus, echo_server, client):
    bus.set_latency("client", "server", 500.0)
    with pytest.raises(RpcTimeoutError, match="1 attempts"):
        client.call(
            "server", "echo", 1,
            policy=RetryPolicy(timeout_ms=50.0, max_attempts=1),
        )


def test_latency_trackers_are_bounded(bus, echo_server, client):
    client.LATENCY_TRACKERS_LIMIT = 3
    for i in range(8):
        client._track_latency(f"endpoint-{i}", 10.0)
    assert len(client.latency) == 3
    # LRU: most recently observed endpoints survive.
    assert set(client.latency) == {
        "endpoint-5", "endpoint-6", "endpoint-7",
    }
    client._track_latency("endpoint-6", 12.0)
    client._track_latency("endpoint-8", 11.0)
    assert "endpoint-6" in client.latency
    assert "endpoint-5" not in client.latency
