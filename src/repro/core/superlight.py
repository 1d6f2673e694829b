"""The superlight client (Alg. 3) — DCert's headline artifact.

Keeps exactly one block header and one certificate, whatever the chain
length: validating a new tip is a constant amount of work (one report
check — cached per enclave —, one signature verification, one digest
comparison, and the chain-selection rule), and storage is the size of
one header plus one certificate (the paper's 2.97 KB).

The same client verifies query results: it tracks the latest certified
root of each authenticated index (via index certificates) and checks
the SP's proofs against those roots.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.chain.block import BlockHeader
from repro.core.certificate import CERT_SIG_DOMAIN, Certificate
from repro.core.digest import block_digest, index_digest
from repro.crypto import PublicKey, verify
from repro.crypto.hashing import Digest
from repro.errors import (
    CertificateError,
    DeadlineExceededError,
    NetworkError,
    OverloadedError,
    ReproError,
    ResponseIntegrityError,
    ServiceUnavailableError,
)


class SuperlightClient:
    """Constant-cost blockchain (and index) integrity validation."""

    #: Cap on cached verified attestation reports.  One entry per
    #: distinct enclave identity suffices in steady state (§4.3: "check
    #: an attestation report only once for the same enclave"), so the
    #: cap only matters under an adversarial stream of fresh-looking
    #: reports — exactly when an unbounded set would be a memory hole.
    VERIFIED_REPORTS_LIMIT = 64

    def __init__(
        self,
        expected_measurement: Digest,
        ias_public_key: PublicKey,
    ) -> None:
        self.expected_measurement = expected_measurement
        self.ias_public_key = ias_public_key
        self.latest_header: BlockHeader | None = None
        self.latest_certificate: Certificate | None = None
        # "A superlight client needs to check an attestation report only
        # once for the same enclave" (§4.3): cache verified reports.  The
        # cache key must bind every field the skipped checks would have
        # validated (measurement, report_data, IAS key, signature) — a
        # signature-only key would let a report with a tampered
        # measurement but a replayed signature ride the cache.
        # LRU-bounded: see VERIFIED_REPORTS_LIMIT.
        self._verified_reports: OrderedDict[tuple[bytes, ...], None] = (
            OrderedDict()
        )
        # Latest certified root per authenticated index, plus the
        # certificate vouching for it — the client must *hold* the
        # index certificates (they are part of its durable state and
        # its storage bill).
        # repro: allow[BND01] one entry per configured index; billed in storage_bytes()
        self._index_roots: dict[str, tuple[int, Digest]] = {}
        # repro: allow[BND01] one entry per configured index; billed in storage_bytes()
        self._index_certs: dict[str, Certificate] = {}
        # Streaming surface: tip-adoption callbacks and the issuer
        # hooks a direct subscription installed (see subscribe()).
        # repro: allow[BND01] one entry per application on_tip registration
        self._tip_callbacks: list = []
        self._subscriptions: list[tuple[object, object]] = []

    # -- Alg. 3 ---------------------------------------------------------------

    def validate_chain(self, header: BlockHeader, cert: Certificate) -> bool:
        """Validate a candidate tip; adopt it if it wins chain selection.

        Returns True when the candidate was adopted, False when it lost
        chain selection; raises :class:`CertificateError` when the
        certificate itself is invalid.
        """
        with obs.trace_span("client.validate_chain"):
            self._check_certificate(cert, block_digest(header))
            if not self._follows_chain_selection(header):
                obs.inc("client.chain_validations_rejected")
                return False
            self.latest_header = header
            self.latest_certificate = cert
        if obs.enabled():
            obs.inc("client.chain_validations")
            obs.set_gauge("client.storage_bytes", self.storage_bytes())
        for callback in list(self._tip_callbacks):
            callback(header, cert)
        return True

    # -- the streaming surface (LightClient protocol) -------------------------

    def on_tip(self, callback):
        """Register ``callback(header, certificate)`` to fire on every
        adopted tip.  Returns the callback (decorator-friendly)."""
        self._tip_callbacks.append(callback)
        return callback

    def subscribe(self, source=None) -> None:
        """Attach directly to a local issuer: every block it certifies
        from now on is validated and (if it wins chain selection)
        adopted, exactly as the remote push path does over the wire.

        ``source`` is a :class:`~repro.core.issuer.CertificateIssuer`
        (or anything else exposing an ``on_certified`` hook list).
        """
        if source is None:
            raise CertificateError(
                "a local client subscribes directly to an issuer; pass it "
                "as source="
            )
        hooks = getattr(source, "on_certified", None)
        if hooks is None:
            raise CertificateError(
                f"{type(source).__name__} has no on_certified hook"
            )
        hook = self._ingest_certified
        hooks.append(hook)
        self._subscriptions.append((source, hook))

    def unsubscribe(self) -> None:
        """Detach from every subscribed issuer (idempotent)."""
        for source, hook in self._subscriptions:
            hooks = getattr(source, "on_certified", [])
            if hook in hooks:
                hooks.remove(hook)
        self._subscriptions.clear()

    def _ingest_certified(self, certified) -> bool:
        """Adopt one issuer-certified block (tip + index certificates)."""
        if certified.certificate is None:
            return False  # augmented-only block: no hierarchical tip cert
        header = getattr(certified, "header", None)
        if header is None:
            header = certified.block.header
        return self.validate_tip(
            header,
            certified.certificate,
            certified.index_roots,
            certified.index_certificates,
        )

    def validate_tip(
        self,
        header: BlockHeader,
        cert: Certificate,
        index_roots: dict[str, Digest],
        index_certificates: dict[str, Certificate],
    ) -> bool:
        """Alg. 3 for a whole certified tip, atomically: the one
        adoption path for polled, pushed and locally ingested tips.

        Checks every certificate exactly once (index certificates here,
        the block certificate in :meth:`validate_chain`); any failure
        raises :class:`CertificateError` before state moves.  Then the
        header goes through chain selection and each newer index root
        is adopted.  Returns whether the header was adopted.
        """
        for name, index_cert in index_certificates.items():
            if name not in index_roots:
                raise CertificateError(f"tip omits the root for index {name!r}")
            self._check_certificate(
                index_cert, index_digest(header, index_roots[name])
            )
        adopted = self.validate_chain(header, cert)
        for name, index_cert in index_certificates.items():
            current = self._index_roots.get(name)
            if current is None or current[0] < header.height:
                self._index_roots[name] = (header.height, index_roots[name])
                self._index_certs[name] = index_cert
                if obs.enabled():
                    obs.inc("client.index_certs_adopted")
                    obs.set_gauge("client.storage_bytes", self.storage_bytes())
        return adopted

    def validate_index_certificate(
        self, name: str, header: BlockHeader, index_root: Digest, cert: Certificate
    ) -> bool:
        """Adopt a certified index root if its block is the newest seen."""
        self._check_certificate(cert, index_digest(header, index_root))
        current = self._index_roots.get(name)
        if current is not None and current[0] >= header.height:
            return False
        self._index_roots[name] = (header.height, index_root)
        self._index_certs[name] = cert
        if obs.enabled():
            obs.inc("client.index_certs_adopted")
            obs.set_gauge("client.storage_bytes", self.storage_bytes())
        return True

    # -- query verification ------------------------------------------------------

    def certified_index_root(self, name: str) -> Digest:
        if name not in self._index_roots:
            raise CertificateError(f"no certified root for index {name!r}")
        return self._index_roots[name][1]

    def verify_answer(self, request, answer) -> bool:
        """Unified check of a typed :class:`repro.query.api.QueryAnswer`
        against the certified roots — the one verification entry point
        mirroring ``QueryServiceProvider.execute``."""
        from repro.query.verifier import verify as verify_query

        with obs.trace_span("client.verify_answer"):
            ok = verify_query(request, answer, self.certified_index_root)
        obs.inc("client.verify_ok" if ok else "client.verify_failed")
        return ok

    # -- persistence ---------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the client's durable state (a "wallet file").

        Exactly what Fig. 7a counts: the latest header + certificate,
        plus the certified index roots and the index certificates
        vouching for them — all constant-size per index.
        """
        import json

        return json.dumps(
            {
                "measurement": self.expected_measurement.hex(),
                "ias_key": self.ias_public_key.to_bytes().hex(),
                "header": (
                    self.latest_header.encode().decode("utf-8")
                    if self.latest_header is not None
                    else None
                ),
                "certificate": (
                    self.latest_certificate.encode().decode("utf-8")
                    if self.latest_certificate is not None
                    else None
                ),
                "index_roots": {
                    name: [height, root.hex()]
                    for name, (height, root) in self._index_roots.items()
                },
                "index_certificates": {
                    name: cert.encode().decode("utf-8")
                    for name, cert in self._index_certs.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, data: str) -> "SuperlightClient":
        """Restore a client; stored certificates are *re-verified*, so a
        tampered wallet file cannot smuggle in a bad tip or index cert."""
        import json

        from repro.crypto import PublicKey

        raw = json.loads(data)
        client = cls(
            bytes.fromhex(raw["measurement"]),
            PublicKey.from_bytes(bytes.fromhex(raw["ias_key"])),
        )
        if raw["header"] is not None and raw["certificate"] is not None:
            header = BlockHeader.decode(raw["header"].encode("utf-8"))
            certificate = Certificate.decode(raw["certificate"].encode("utf-8"))
            client.validate_chain(header, certificate)
        index_certs = raw.get("index_certificates", {})
        for name, (height, root_hex) in raw.get("index_roots", {}).items():
            height, root = int(height), bytes.fromhex(root_hex)
            encoded_cert = index_certs.get(name)
            if encoded_cert is not None:
                cert = Certificate.decode(encoded_cert.encode("utf-8"))
                if (
                    client.latest_header is not None
                    and client.latest_header.height == height
                ):
                    # The common case — index cert bound to the stored
                    # tip: re-verify the full (header, root) binding.
                    client._check_certificate(
                        cert, index_digest(client.latest_header, root)
                    )
                else:
                    # Adopted at an earlier height whose header is no
                    # longer stored: re-verify report + signature (the
                    # cert is genuinely enclave-issued for *its* digest).
                    client._check_certificate(cert, cert.dig)
                client._index_certs[name] = cert
            client._index_roots[name] = (height, root)
        return client

    # -- bookkeeping ---------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes the client persists: one header + one certificate, plus
        each held index certificate and its (height, root) bookkeeping."""
        total = 0
        if self.latest_header is not None:
            total += self.latest_header.size_bytes()
        if self.latest_certificate is not None:
            total += self.latest_certificate.size_bytes()
        for cert in self._index_certs.values():
            total += cert.size_bytes()
        for _height, root in self._index_roots.values():
            total += len(root) + 8  # the certified root + its height
        return total

    # -- internals -------------------------------------------------------------------

    def _check_certificate(self, cert: Certificate, expected_dig: Digest) -> None:
        report_id = (
            cert.report.measurement,
            cert.report.report_data,
            cert.report.ias_key.to_bytes(),
            cert.report.signature.to_bytes(),
        )
        if report_id in self._verified_reports:
            self._verified_reports.move_to_end(report_id)
        else:
            if not cert.report.verify(self.ias_public_key):
                raise CertificateError("attestation report not signed by the IAS")
            if cert.report.measurement != self.expected_measurement:
                raise CertificateError("certificate from an unexpected enclave program")
            self._verified_reports[report_id] = None
            while len(self._verified_reports) > self.VERIFIED_REPORTS_LIMIT:
                self._verified_reports.popitem(last=False)
        if cert.pk_enc.to_bytes() != cert.report.report_data:
            raise CertificateError("pk_enc does not match the attestation report")
        if not verify(cert.pk_enc, cert.dig, cert.sig, CERT_SIG_DOMAIN):
            raise CertificateError("certificate signature invalid")
        if cert.dig != expected_dig:
            raise CertificateError("certificate digest does not match")

    def _follows_chain_selection(self, header: BlockHeader) -> bool:
        """Longest-chain rule with a deterministic hash tie-break."""
        if self.latest_header is None:
            return True
        if header.height != self.latest_header.height:
            return header.height > self.latest_header.height
        return header.header_hash() < self.latest_header.header_hash()


class RemoteSuperlightClient:
    """A superlight client that lives entirely on the network (Fig. 2).

    Wraps a :class:`SuperlightClient` behind an RPC client: it
    bootstraps and syncs certified tips from one or more
    :class:`repro.core.issuer.IssuerService` endpoints and runs typed
    queries against one or more :class:`repro.query.provider.QueryService`
    endpoints, degrading gracefully:

    * per-call timeouts with bounded exponential-backoff retries come
      from the RPC layer (:class:`repro.net.rpc.RetryPolicy`);
    * every response is re-verified against the certified roots — a
      corrupted or forged response is *detected and retried*, never
      silently accepted;
    * on repeated timeouts or integrity failures the client fails over
      to the next endpoint, and raises
      :class:`~repro.errors.ServiceUnavailableError` only once every
      endpoint is exhausted (bounded work, no hanging).

    Queries can be served two ways: a plain ``providers`` list (tried
    in order) or a :class:`repro.net.gateway.QueryGateway` fronting a
    replica fleet — at most one of them.  With a gateway the client
    wires its root re-verification in as the gateway's
    ``verify_switch`` hook, gets the pipelined :meth:`query_many`
    path, and keeps a :class:`repro.query.answercache
    .VerifiedAnswerCache` of answers that already verified at the
    current certified roots (a warm hit costs zero round trips).
    """

    def __init__(self, config) -> None:
        """Build from a :class:`~repro.core.client_api.ClientConfig`;
        :func:`~repro.core.client_api.connect` is the way to call it."""
        from repro.net.rpc import RetryPolicy, RpcClient
        from repro.query.answercache import VerifiedAnswerCache

        config.validate()
        self.config = config
        self.client = SuperlightClient(config.measurement, config.ias_public_key)
        self.rpc = RpcClient(config.bus, config.name, config.policy or RetryPolicy())
        self.issuers = list(config.issuers)
        self.providers = list(config.providers)
        self.gateway = config.gateway
        # -- overload resilience: stale degradation --
        self.degrade_to_stale = config.degrade_to_stale
        self.stale_served = 0
        if self.gateway is not None and self.gateway.verify_switch is None:
            self.gateway.verify_switch = self._verify_replica_roots
        self.cache = (
            VerifiedAnswerCache(config.cache_capacity)
            if config.cache_capacity
            else None
        )
        self.integrity_retries = config.integrity_retries
        self.failovers = 0
        self.integrity_failures = 0
        # -- push stream state (see subscribe()) --
        self.hub = config.hub
        self.subscribed = False
        self._sub_seq = 0  # highest announcement seq verified-or-skipped
        self._needs_resync = False
        self.push_adopted = 0
        self.push_rejected = 0
        self.push_duplicates = 0
        self.push_gaps = 0
        self.push_resyncs = 0

    # -- certificate sync ---------------------------------------------------

    def bootstrap(self) -> None:
        """Fetch and adopt a first certified tip (Alg. 3 over RPC)."""
        self.sync()

    def sync(self):
        """Pull the latest certified tip, trying issuers in order.

        Returns the adopted :class:`repro.core.issuer.CertifiedTip`.
        A tip that fails certificate verification counts as an
        integrity failure (tampered in flight, or a lying CI) and
        triggers failover, exactly like a timeout.
        """
        return self._failover(
            self.issuers,
            lambda issuer: self.rpc.call(issuer, "latest_tip"),
            self._adopt_tip,
            "no issuer returned a verifiable certified tip",
        )

    def _adopt_tip(self, issuer: str, tip):
        """The polled tip's acceptance check: :meth:`SuperlightClient
        .validate_tip`, with a refusal counted as an integrity failure."""
        from repro.core.issuer import CertifiedTip

        try:
            if not isinstance(tip, CertifiedTip):
                raise CertificateError(
                    f"issuer returned {type(tip).__name__}, not a certified tip"
                )
            self.client.validate_tip(
                tip.header, tip.certificate, tip.index_roots, tip.index_certificates
            )
        except CertificateError as exc:
            self.integrity_failures += 1
            raise ResponseIntegrityError(
                f"certified tip from {issuer!r} failed verification: {exc}"
            ) from exc
        self._roots_advanced()
        return tip

    def _failover(self, endpoints, call, accept, unavailable: str):
        """The ordered-failover loop behind :meth:`sync` and provider
        queries: ``call(endpoint)`` fetches, ``accept(endpoint,
        response)`` returns the result or raises (having counted it)
        :class:`~repro.errors.ResponseIntegrityError`.

        Each endpoint, in list order, gets ``integrity_retries``
        attempts; an overload or network error fails over at once and
        an expired deadline is re-raised.  Exhausting every endpoint
        raises :class:`~repro.errors.ServiceUnavailableError`.
        """
        last_error: Exception | None = None
        for endpoint in endpoints:
            for _attempt in range(self.integrity_retries):
                try:
                    response = call(endpoint)
                except DeadlineExceededError:
                    raise  # the budget is gone everywhere at once
                except ResponseIntegrityError as exc:
                    self.integrity_failures += 1
                    last_error = exc
                    continue
                except NetworkError as exc:
                    last_error = exc
                    break  # overloaded, down or unreachable: fail over
                try:
                    return accept(endpoint, response)
                except ResponseIntegrityError as exc:
                    last_error = exc
            self.failovers += 1
        raise ServiceUnavailableError(unavailable) from last_error

    def _roots_advanced(self) -> None:
        """Housekeeping after adopting a certified tip: sweep cache
        entries verified under superseded roots, and make the gateway
        re-verify replicas against the new roots on the next switch."""
        if self.cache is not None:
            self.cache.retain_roots(
                root for _height, root in self.client._index_roots.values()
            )
        if self.gateway is not None:
            self.gateway.reset_verified()

    # -- push sync (the hub stream) -----------------------------------------

    def on_tip(self, callback):
        """Register ``callback(header, certificate)`` for every adopted
        tip — pushed or polled.  Returns the callback."""
        return self.client.on_tip(callback)

    def subscribe(self, source=None) -> None:
        """Subscribe to the configured :class:`~repro.net.pubsub
        .SubscriptionHub` (or to the endpoint named by ``source``).

        From here on, every block the issuer certifies is *pushed* to
        this client; each announcement is verified with the standard
        certificate check before the tip advances (a forged or replayed
        announcement is discarded and counted, exactly like a bad
        polled tip), and adopting one invalidates the verified-answer
        cache the same way a polled sync does.  Announcements are
        sequence-numbered: a gap (lost pushes, hub restart, our own
        downtime) or a hub :class:`~repro.net.messages.LagNotice` marks
        the stream for :meth:`resync`, which runs on the next
        :meth:`heartbeat` (push handlers never issue blocking RPC).
        """
        from repro.net.pubsub import SubscriptionHub, push_topic

        hub = source if isinstance(source, str) else self.hub
        if hub is None:
            raise ServiceUnavailableError(
                "no hub configured: set ClientConfig.hub or pass the "
                "endpoint name as source="
            )
        self.hub = hub
        self.rpc.node.on(push_topic(self.rpc.name), self._on_push)
        reply = self.rpc.call(hub, SubscriptionHub.SUBSCRIBE, self.rpc.name)
        self._sub_seq = reply.latest_seq
        self.subscribed = True
        self._needs_resync = False
        obs.inc("client.push_subscribes")

    def unsubscribe(self) -> None:
        """Leave the hub stream (idempotent)."""
        from repro.net.pubsub import SubscriptionHub

        if not self.subscribed:
            return
        self.subscribed = False
        self.rpc.call(self.hub, SubscriptionHub.UNSUBSCRIBE, self.rpc.name)

    def heartbeat(self):
        """The periodic stream pump: resync if flagged, renew the lease.

        Returns the hub's :class:`~repro.net.pubsub.HeartbeatReply`.
        Also the recovery path: if the hub no longer knows us (it
        restarted, or our lease expired), re-subscribe and catch up; if
        it reports announcements beyond what we have seen and nothing
        arrives (every in-window push lost), the hub retransmits the
        unacked window in response to our acked sequence number.
        """
        from repro.net.pubsub import SubscriptionHub

        if not self.subscribed:
            raise ServiceUnavailableError("not subscribed; call subscribe()")
        if self._needs_resync:
            self.resync()
        reply = self.rpc.call(
            self.hub, SubscriptionHub.HEARTBEAT, (self.rpc.name, self._sub_seq)
        )
        if not reply.subscribed:
            # Reaped (or the hub restarted): re-subscribe, then catch up
            # from where we *actually* are — subscribe() positions the
            # stream at the hub's tip, which would skip everything
            # missed while we were away.
            seen = self._sub_seq
            self.subscribe()
            self._sub_seq = min(seen, self._sub_seq)
            self.resync()
        elif reply.lagged or reply.latest_seq > self._sub_seq:
            # Lagged, or announcements exist that never reached us.
            # Retransmits may already be in flight after this
            # heartbeat; resync() resolves either way with one pull.
            self.resync()
        return reply

    def resync(self):
        """Catch up over the pull path: fetch every retained
        announcement past our sequence number, verify and adopt each,
        and clear the lag/gap flag.  Returns the number adopted."""
        from repro.net.pubsub import SubscriptionHub

        reply = self.rpc.call(
            self.hub, SubscriptionHub.SYNC_RANGE, (self.rpc.name, self._sub_seq + 1)
        )
        adopted = 0
        for announcement in reply.announcements:
            if self._adopt_announcement(announcement):
                adopted += 1
        self._sub_seq = max(self._sub_seq, reply.latest_seq)
        self._needs_resync = False
        self.push_resyncs += 1
        obs.inc("client.push_resyncs")
        return adopted

    def _on_push(self, message) -> None:
        """Bus handler for hub pushes — local verification only."""
        from repro.net import wire
        from repro.net.messages import LagNotice, PushEnvelope
        from repro.net.pubsub import TipAnnouncement

        if isinstance(message, LagNotice):
            self.push_gaps += 1
            self._needs_resync = True
            obs.inc("client.push_lag_notices")
            return
        if not isinstance(message, PushEnvelope):
            return
        try:
            announcement = wire.decode(message.payload)
            if not isinstance(announcement, TipAnnouncement):
                raise CertificateError("push payload is not a tip announcement")
        except (ReproError, CertificateError):
            # Corrupted or forged in flight.  Don't ack — the hub
            # retransmits the genuine announcement on our next
            # heartbeat.
            self.push_rejected += 1
            self.integrity_failures += 1
            obs.inc("client.push_rejected")
            return
        if announcement.seq <= self._sub_seq:
            self.push_duplicates += 1
            obs.inc("client.push_duplicates")
            self._ack()
            return
        if announcement.seq > self._sub_seq + 1:
            # Gap: something between was lost or dropped-oldest.
            self.push_gaps += 1
            self._needs_resync = True
            obs.inc("client.push_gaps")
            return
        try:
            self._adopt_announcement(announcement)
        except CertificateError:
            self.push_rejected += 1
            self.integrity_failures += 1
            obs.inc("client.push_rejected")
            return
        self._sub_seq = announcement.seq
        self._ack()

    def _ack(self) -> None:
        from repro.net.messages import StreamAck
        from repro.net.pubsub import ack_topic

        self.rpc.bus.send(
            self.rpc.name,
            self.hub,
            ack_topic(self.hub),
            StreamAck(subscriber=self.rpc.name, seq=self._sub_seq),
        )

    def _adopt_announcement(self, announcement) -> bool:
        """Adopt one announcement through :meth:`SuperlightClient
        .validate_tip` — atomic, so a forgery raises CertificateError
        with no client state moved — and count it if it wins."""
        if not self.client.validate_tip(
            announcement.header,
            announcement.certificate,
            announcement.index_roots,
            announcement.index_certificates,
        ):
            return False  # replayed/older tip: verified but not adopted
        self._roots_advanced()
        self.push_adopted += 1
        if obs.enabled():
            obs.inc("client.push_adopted")
            obs.observe(
                "client.push_fanout_ms",
                self.rpc.bus.clock_ms - announcement.published_at_ms,
            )
        return True

    # -- queries ------------------------------------------------------------

    def query(self, request, *, deadline_ms: float = 0.0):
        """Run one typed query, verifying the answer before returning.

        A warm answer-cache hit (same canonical request, same certified
        root) returns immediately with zero RPC round trips.  Otherwise
        the request goes to the gateway (health-aware failover across
        the fleet) or down the provider list; per endpoint, an
        unverifiable answer is retried ``integrity_retries`` times (the
        fault may be transient line corruption) before failing over.
        Raises :class:`~repro.errors.ServiceUnavailableError` when no
        endpoint yields a verifiable answer.

        ``deadline_ms`` (absolute virtual-clock) is propagated down the
        transport, shrinking hop by hop, so replicas refuse work this
        call can no longer use.  When the whole tier sheds — every
        endpoint overloaded, unavailable, or out of budget — a client
        constructed with ``degrade_to_stale=True`` serves the last
        *verified* answer for this request as an explicitly-flagged
        :class:`~repro.query.answercache.StaleAnswer` instead of
        raising; correctness is never sacrificed, only freshness.
        """
        cached = self._cache_get(request)
        if cached is not None:
            return cached
        try:
            if self.gateway is not None:
                answer = self._query_gateway(request, deadline_ms)
            else:
                answer = self._query_providers(request, deadline_ms)
        except (
            OverloadedError,
            ServiceUnavailableError,
            DeadlineExceededError,
        ):
            stale = self._stale_answer(request)
            if stale is None:
                raise
            return stale
        self._cache_put(request, answer)
        return answer

    def _stale_answer(self, request):
        """The graceful-degradation fallback (None when not enabled or
        nothing verified is on hand)."""
        if not self.degrade_to_stale or self.cache is None:
            return None
        stale = self.cache.get_stale(request)
        if stale is None:
            return None
        self.stale_served += 1
        obs.inc("resilience.stale_served")
        return stale

    def query_many(self, requests, *, deadline_ms: float = 0.0):
        """Run a batch of typed queries, pipelined across the fleet.

        Requires a gateway (the provider-list transport has no
        pipelined path).  Cache hits are answered locally; the misses
        are dispatched concurrently, so a fleet of N busy replicas
        drains them ~N× faster than one.  Every answer is verified
        before it is returned or cached; an unverifiable answer raises
        :class:`~repro.errors.ResponseIntegrityError`.
        """
        if self.gateway is None:
            return [self.query(request) for request in requests]
        requests = list(requests)
        results: list[object] = [None] * len(requests)
        misses: list[int] = []
        for position, request in enumerate(requests):
            cached = self._cache_get(request)
            if cached is not None:
                results[position] = cached
            else:
                misses.append(position)
        if misses:
            answers = self.gateway.call_many(
                "execute",
                [requests[position] for position in misses],
                deadline_ms=deadline_ms,
            )
            for position, answer in zip(misses, answers):
                request = requests[position]
                self._verified_answer(request, answer, "fleet answer")
                self._cache_put(request, answer)
                results[position] = answer
        return results

    def _verified_answer(self, request, answer, source: str):
        """Return ``answer`` if it verifies against the certified roots;
        otherwise count an integrity failure and raise
        :class:`~repro.errors.ResponseIntegrityError`."""
        from repro.query.api import QueryAnswer

        if isinstance(answer, QueryAnswer) and self.client.verify_answer(
            request, answer
        ):
            return answer
        self.integrity_failures += 1
        raise ResponseIntegrityError(
            f"{source} to {type(request).__name__} failed verification "
            "against the certified index roots"
        )

    def _query_gateway(self, request, deadline_ms: float = 0.0):
        """One query via the gateway, re-verifying until it checks out."""
        last_error: Exception | None = None
        for _attempt in range(max(1, self.integrity_retries)):
            answer = self.gateway.call(
                "execute", request, deadline_ms=deadline_ms
            )
            try:
                return self._verified_answer(request, answer, "fleet answer")
            except ResponseIntegrityError as exc:
                last_error = exc
        raise ServiceUnavailableError(
            f"no replica returned a verifiable answer to "
            f"{type(request).__name__}"
        ) from last_error

    def _query_providers(self, request, deadline_ms: float = 0.0):
        return self._failover(
            self.providers,
            lambda provider: self.rpc.call(
                provider, "execute", request, deadline_ms=deadline_ms
            ),
            lambda provider, answer: self._verified_answer(
                request, answer, f"answer from {provider!r}"
            ),
            f"no provider returned a verifiable answer to "
            f"{type(request).__name__}",
        )

    # -- the verified-answer cache ------------------------------------------

    def _certified_entry(self, request) -> tuple[int, Digest] | None:
        """The (height, root) the request's index is certified at, or
        None when there is no cache or no certified root to key on."""
        if self.cache is None:
            return None
        return self.client._index_roots.get(getattr(request, "index", None))

    def _cache_get(self, request):
        entry = self._certified_entry(request)
        return None if entry is None else self.cache.get(request, entry[1])

    def _cache_put(self, request, answer) -> None:
        entry = self._certified_entry(request)
        if entry is not None:
            height, root = entry
            # repro: allow[VER01] both callers admit only answers that just passed verify_answer()
            self.cache.put(request, root, answer, height=height)

    # -- replica switch verification ----------------------------------------

    def _verify_replica_roots(self, replica: str) -> None:
        """The gateway's ``verify_switch`` hook: before trusting a new
        replica, check that the index roots it serves match the
        client's certified ones.  (Answers are verified individually
        anyway; this catches a stale or lying replica *before* queries
        are routed at it.)"""
        for name, (_height, certified) in self.client._index_roots.items():
            served = self.gateway.call_on(replica, "index_root", name)
            if served != certified:
                raise ResponseIntegrityError(
                    f"replica {replica!r} serves index {name!r} at a root "
                    "that does not match the certified one"
                )

    # -- delegation (the LightClient surface) -------------------------------

    @property
    def latest_header(self) -> BlockHeader | None:
        return self.client.latest_header

    def validate_chain(self, header: BlockHeader, cert: Certificate) -> bool:
        return self.client.validate_chain(header, cert)

    def verify_answer(self, request, answer) -> bool:
        return self.client.verify_answer(request, answer)

    def certified_index_root(self, name: str) -> Digest:
        return self.client.certified_index_root(name)

    def storage_bytes(self) -> int:
        return self.client.storage_bytes()


def compute_expected_measurement(
    genesis_digest: Digest,
    ias_public_key: PublicKey,
    vm,
    difficulty_bits: int,
    index_specs: dict | None = None,
) -> Digest:
    """What an honest DCert enclave measures as, given public inputs.

    Clients derive this from the *published* enclave source and build
    configuration — the same way real SGX users reproduce MRENCLAVE
    from a reproducible build.
    """
    from repro.core.enclave_program import DCertEnclaveProgram
    from repro.sgx.enclave import measure_program

    reference = DCertEnclaveProgram(
        genesis_digest=genesis_digest,
        ias_public_key=ias_public_key,
        vm=vm,
        difficulty_bits=difficulty_bits,
        index_specs=index_specs,
    )
    return measure_program(DCertEnclaveProgram, reference.config_bytes())
