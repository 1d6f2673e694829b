"""Plumbing shared by the workloads: clocks, guards, statistics.

Every wall-clock reading goes through :mod:`repro.obs.wallclock`, the
library's one audited clock.  Modeled cost never reaches measured time:
issuers get a cost model that records its charges in the ledger but
does not busy-wait them (:func:`quiet_cost_model`), and a
:class:`SpendSpy` proves it by counting calls into the enclave's spend
path while a timed region is open.
"""

from __future__ import annotations

import math
import resource

from repro.net.bus import MessageBus
from repro.net.messages import PushEnvelope
from repro.net.rpc import RpcResponse
from repro.obs.wallclock import now_s
from repro.sgx.costs import SGXCostModel


def quiet_cost_model() -> SGXCostModel:
    """A cost model whose charges land in the ledger but never spin."""
    model = SGXCostModel()
    if hasattr(model, "spend_time"):
        model.spend_time = False
    return model


class SpendSpy:
    """Counts calls into the modeled-cost spend path.

    Wraps ``spend`` where the enclave host looks it up
    (``repro.sgx.enclave``) and where it is defined
    (``repro.sgx.costs``).  ``timed_calls`` only counts while
    :attr:`armed`, i.e. inside a timed region; it must stay zero.
    When a later refactor removes ``spend`` there is nothing to spy
    on and both counts stay zero.
    """

    _SITES = ("repro.sgx.enclave", "repro.sgx.costs")

    def __init__(self) -> None:
        self.armed = False
        self.calls = 0
        self.timed_calls = 0
        self._patched: list[tuple[object, object]] = []

    def install(self) -> None:
        import importlib

        for site in self._SITES:
            module = importlib.import_module(site)
            original = getattr(module, "spend", None)
            if original is None:
                continue

            def spy(seconds, _original=original):
                self.calls += 1
                if self.armed:
                    self.timed_calls += 1
                return _original(seconds)

            module.spend = spy
            self._patched.append((module, original))

    def uninstall(self) -> None:
        for module, original in self._patched:
            module.spend = original
        self._patched.clear()


class Stopwatch:
    """Accumulates the wall time of timed regions.

    While a region is open the spy is armed and ``switch(True)`` is in
    effect (the traced run turns its wrappers and :mod:`repro.obs` on
    there).
    """

    def __init__(self, spy: SpendSpy, *, switch=None) -> None:
        self.spy = spy
        self.switch = switch
        self.total_s = 0.0
        self._started = 0.0

    def start(self) -> float:
        self.spy.armed = True
        if self.switch is not None:
            self.switch(True)
        self._started = now_s()
        return self._started

    def stop(self) -> float:
        elapsed = now_s() - self._started
        if self.switch is not None:
            self.switch(False)
        self.spy.armed = False
        self.total_s += elapsed
        return elapsed


class ByteCountingBus(MessageBus):
    """A message bus that tallies the bytes each node receives.

    Counts RPC response payloads and pushed announcement envelopes by
    receiver, so a run can report bytes per operation without turning
    on :mod:`repro.obs`.
    """

    def __init__(self, default_latency_ms: float = 5.0) -> None:
        super().__init__(default_latency_ms=default_latency_ms)
        self.rpc_bytes_in: dict[str, int] = {}
        self.push_bytes_in: dict[str, int] = {}

    def send(self, sender: str, receiver: str, topic: str, message: object) -> None:
        if isinstance(message, RpcResponse):
            tally = self.rpc_bytes_in
        elif isinstance(message, PushEnvelope):
            tally = self.push_bytes_in
        else:
            tally = None
        if tally is not None:
            tally[receiver] = tally.get(receiver, 0) + len(message.payload)
        super().send(sender, receiver, topic, message)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_needed(q: float) -> int:
    """Fewest samples that leave ten beyond the ``q`` percentile."""
    return round(10 / (1.0 - q))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
