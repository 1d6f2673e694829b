"""Per-layer attribution for the traced run.

:class:`Tracer` installs timing wrappers around the public entry points
of each layer, patching the module or class attribute where callers
look it up, and removes them afterwards.  A call stack turns inclusive
times into self times, so nested layers are not double-counted: a
layer's self time is its calls' duration minus the part spent in other
wrapped calls beneath them.  Wrappers record only while a timed region
is open (see :meth:`Tracer.switch`), together with :mod:`repro.obs`,
which supplies the counters the wrappers cannot see.

:func:`layer_metrics` turns one traced pass into the per-layer metrics,
every value per workload operation, and :func:`attribution_report`
prints the self-time table with the paper's reference points beside it.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

from repro import obs
from repro.obs.wallclock import now_s

#: (layer, stat key, module, attribute) — the wrapped entry points.
#: A key may appear twice (two implementations of one operation).  Keys
#: without a self-time metric of their own (``issuer.preprocess`` and
#: ``superlight.validate_index``) still move their self time out of the
#: caller and into their layer's total.
ENTRY_POINTS = (
    ("crypto", "crypto.sign", "repro.crypto.ecdsa", "sign_digest"),
    ("crypto", "crypto.verify", "repro.crypto.ecdsa", "verify_digest"),
    ("chain", "chain.validate_block", "repro.chain.node", "FullNode.validate_block"),
    ("chain", "chain.vm", "repro.chain.vm", "VM.execute_call"),
    ("merkle", "merkle.smt.update", "repro.merkle.smt", "SparseMerkleTree.update_batch"),
    ("merkle", "merkle.smt.update", "repro.merkle.partial", "PartialSMT.update_batch"),
    ("merkle", "merkle.smt.prove", "repro.merkle.smt", "SparseMerkleTree.prove"),
    ("merkle", "merkle.update_proof", "repro.core.updateproof", "UpdateProof.build"),
    ("sgx", "sgx.ecall", "repro.sgx.enclave", "EnclaveHost.ecall"),
    ("issuer", "issuer.process_block", "repro.core.issuer", "CertificateIssuer.process_block"),
    ("issuer", "issuer.preprocess", "repro.core.issuer", "CertificateIssuer.preprocess"),
    ("superlight", "superlight.validate_chain", "repro.core.superlight",
     "SuperlightClient.validate_chain"),
    ("superlight", "superlight.validate_index", "repro.core.superlight",
     "SuperlightClient.validate_index_certificate"),
    ("superlight", "superlight.bootstrap", "repro.core.superlight",
     "RemoteSuperlightClient.bootstrap"),
    ("superlight", "superlight.query", "repro.core.superlight", "RemoteSuperlightClient.query"),
    ("superlight", "superlight.verify_answer", "repro.core.superlight",
     "SuperlightClient.verify_answer"),
    ("wire", "wire.encode", "repro.net.wire", "encode"),
    ("wire", "wire.decode", "repro.net.wire", "decode"),
    ("rpc", "rpc.call", "repro.net.rpc", "RpcClient.call"),
    ("bus", "bus.step", "repro.net.bus", "MessageBus.step"),
    ("gateway", "gateway.call", "repro.net.gateway", "QueryGateway.call"),
    ("pubsub", "pubsub.publish", "repro.net.pubsub", "SubscriptionHub.publish"),
    ("query", "query.execute", "repro.query.provider", "QueryServiceProvider.execute"),
    ("query", "query.ingest", "repro.query.provider", "QueryServiceProvider.ingest_block"),
    ("query", "query.index_update", "repro.query.indexes", "TwoLevelHistoryIndex.ingest_block"),
    ("query", "query.index_update", "repro.query.indexes", "MaintainedKeywordIndex.ingest_block"),
    ("query", "query.index_update", "repro.query.indexes", "AggregateHistoryIndex.ingest_block"),
    ("query", "query.index_update", "repro.query.indexes", "ValueRangeIndex.ingest_block"),
    ("query", "query.verify", "repro.query.verifier", "verify"),
    ("cache", "cache.lookup", "repro.query.answercache", "VerifiedAnswerCache.get"),
    ("cache", "cache.lookup", "repro.query.answercache", "VerifiedAnswerCache.put"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))

#: Stat keys whose wrapped call returns bytes worth counting.
_COUNT_BYTES = {"wire.encode"}


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0


class Tracer:
    """Self-time accounting over the wrapped entry points.

    The wrappers are built once; :meth:`install` and :meth:`uninstall`
    swap them in and out, and they record only while :attr:`active`.
    An entry point that no longer exists lands in :attr:`missing`, and
    the traced run fails on it rather than report its layer as idle.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {key: Stat() for _, key, _, _ in ENTRY_POINTS}
        self.layer_of = {key: layer for layer, key, _, _ in ENTRY_POINTS}
        self.active = False
        self.missing: list[str] = []
        self._stack: list[float] = []
        #: (owner, attribute, original, wrapper) per found entry point.
        self._targets: list[tuple[object, str, object, object]] = []
        for _, key, module_name, path in ENTRY_POINTS:
            *parents, name = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(key, raw.__func__))
            else:
                wrapped = self._wrap(key, raw)
            self._targets.append((owner, name, raw, wrapped))

    def switch(self, on: bool) -> None:
        """Open or close a recorded region (the stopwatch calls this)."""
        self.active = on
        obs.set_enabled(on)

    def install(self) -> None:
        for owner, name, _, wrapped in self._targets:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, raw, _ in self._targets:
            setattr(owner, name, raw)
        self.switch(False)

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = now_s
        count_bytes = key in _COUNT_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                stat.calls += 1
                stat.incl_s += elapsed
                stat.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if count_bytes:
                stat.bytes += len(result)
            return result

        return traced

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, stat in self.stats.items():
            totals[self.layer_of[key]] += stat.self_s
        return totals


#: Per-layer metric catalog: name -> unit, in report order.  Every
#: value is per workload operation unless its unit says otherwise.
CATALOG = {
    "crypto.verify.calls": "count/op",
    "crypto.verify.ms": "ms/op",
    "crypto.sign.calls": "count/op",
    "crypto.sign.ms": "ms/op",
    "chain.validate_block.ms": "ms/op",
    "chain.vm.calls": "count/op",
    "chain.vm.ms": "ms/op",
    "merkle.smt.update.ms": "ms/op",
    "merkle.smt.prove.calls": "count/op",
    "merkle.smt.prove.ms": "ms/op",
    "merkle.update_proof.ms": "ms/op",
    "merkle.update_proof.bytes": "B/op",
    "sgx.ecalls": "count/op",
    "sgx.ecall.ms": "ms/op",
    "sgx.modeled_overhead_ms": "ms/op",
    "sgx.inside_plus_modeled_ms": "ms/op",
    "sgx.spend_calls": "count",
    "issuer.outside_ms": "ms/op",
    "issuer.inside_ms": "ms/op",
    "issuer.process_block.ms": "ms/op",
    "superlight.validate_chain.calls": "count/op",
    "superlight.validate_chain.ms": "ms/op",
    "superlight.validate_chain.call_ms": "ms/call",
    "superlight.bootstrap.ms": "ms/op",
    "superlight.bootstrap.call_ms": "ms/call",
    "superlight.verify_answer.ms": "ms/op",
    "superlight.query.ms": "ms/op",
    "wire.encode.calls": "count/op",
    "wire.encode.ms": "ms/op",
    "wire.encode.bytes": "B/op",
    "wire.decode.calls": "count/op",
    "wire.decode.ms": "ms/op",
    "rpc.calls": "count/op",
    "rpc.retries": "count/op",
    "rpc.bytes": "B/op",
    "rpc.ms": "ms/op",
    "bus.deliveries": "count/op",
    "bus.virtual_ms": "ms/op",
    "bus.ms": "ms/op",
    "gateway.call.ms": "ms/op",
    "gateway.failovers": "count/op",
    "gateway.probes": "count/op",
    "pubsub.publish.ms": "ms/op",
    "pubsub.deliveries": "count/op",
    "pubsub.retransmits": "count/op",
    "query.execute.ms": "ms/op",
    "query.verify.ms": "ms/op",
    "query.ingest.ms": "ms/op",
    "query.index_update.ms": "ms/op",
    "query.proof_bytes": "B/op",
    "cache.hit_ratio": "ratio",
    "cache.ms": "ms/op",
    **{f"layer.{layer}.self_ms": "ms/op" for layer in LAYERS},
    "trace.ops": "count",
    "trace.wall_ms": "ms/op",
    "trace.untraced_wall_ms": "ms/op",
    "trace.unattributed_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
}

#: Stat keys whose self time is reported as "<name>.ms" (and calls as
#: "<name>.calls" where the catalog lists it), under their own name
#: unless renamed here to their layer's.
_SELF_MS = {
    key: key
    for key in (
        "crypto.verify", "crypto.sign", "chain.validate_block", "chain.vm",
        "merkle.smt.update", "merkle.smt.prove", "merkle.update_proof", "sgx.ecall",
        "issuer.process_block", "superlight.validate_chain", "superlight.bootstrap",
        "superlight.verify_answer", "superlight.query", "wire.encode", "wire.decode",
        "gateway.call", "pubsub.publish", "query.execute", "query.verify",
        "query.ingest", "query.index_update",
    )
} | {"rpc.call": "rpc", "bus.step": "bus", "cache.lookup": "cache"}


def _histogram_sum(snapshot: dict, name: str) -> float:
    histogram = snapshot["histograms"].get(name)
    return histogram["sum"] if histogram else 0.0


def layer_metrics(
    tracer: Tracer,
    snapshot: dict,
    *,
    ops: int,
    traced_s: float,
    untraced_s: float,
    ledger_delta,
    virtual_ms: float,
    spend_calls: int,
) -> dict[str, float]:
    """Per-operation layer metrics from one traced pass."""
    ops = max(ops, 1)
    stats = tracer.stats
    counters = snapshot["counters"]
    values: dict[str, float] = {}
    for key, prefix in _SELF_MS.items():
        values[f"{prefix}.ms"] = stats[key].self_s * 1000.0 / ops
        if f"{prefix}.calls" in CATALOG:
            values[f"{prefix}.calls"] = stats[key].calls / ops

    def per_call_ms(key: str) -> float:
        stat = stats[key]
        return stat.incl_s * 1000.0 / stat.calls if stat.calls else 0.0

    inside_ms = ledger_delta.in_enclave_s * 1000.0 / ops
    modeled_ms = ledger_delta.total_overhead_s() * 1000.0 / ops
    hits = counters.get("cache.answer.hits", 0)
    lookups = hits + counters.get("cache.answer.misses", 0)
    self_total = sum(stat.self_s for stat in stats.values())
    values.update(
        {
            "merkle.update_proof.bytes": _histogram_sum(snapshot, "issuer.update_proof_bytes") / ops,
            "sgx.ecalls": stats["sgx.ecall"].calls / ops,
            "sgx.modeled_overhead_ms": modeled_ms,
            "sgx.inside_plus_modeled_ms": inside_ms + modeled_ms,
            "sgx.spend_calls": spend_calls,
            "issuer.outside_ms": stats["issuer.preprocess"].incl_s * 1000.0 / ops,
            "issuer.inside_ms": inside_ms,
            "superlight.validate_chain.call_ms": per_call_ms("superlight.validate_chain"),
            "superlight.bootstrap.call_ms": per_call_ms("superlight.bootstrap"),
            "wire.encode.bytes": stats["wire.encode"].bytes / ops,
            "rpc.calls": counters.get("rpc.client.calls", 0) / ops,
            "rpc.retries": counters.get("rpc.client.retries", 0) / ops,
            "rpc.bytes": (
                counters.get("rpc.client.bytes_sent", 0)
                + counters.get("rpc.client.bytes_received", 0)
            ) / ops,
            "bus.deliveries": counters.get("net.bus.deliveries", 0) / ops,
            "bus.virtual_ms": virtual_ms / ops,
            "gateway.failovers": counters.get("gateway.failovers", 0) / ops,
            "gateway.probes": counters.get("gateway.probes", 0) / ops,
            "pubsub.deliveries": counters.get("pubsub.deliveries", 0) / ops,
            "pubsub.retransmits": counters.get("pubsub.retransmits", 0) / ops,
            "query.proof_bytes": _histogram_sum(snapshot, "query.proof_bytes") / ops,
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "trace.ops": ops,
            "trace.wall_ms": traced_s * 1000.0 / ops,
            "trace.untraced_wall_ms": untraced_s * 1000.0 / ops,
            "trace.unattributed_ms": (traced_s - self_total) * 1000.0 / ops,
            "trace.overhead_ratio": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
        }
    )
    for layer, self_s in tracer.layer_self_s().items():
        values[f"layer.{layer}.self_ms"] = self_s * 1000.0 / ops
    return {name: values[name] for name in CATALOG}


#: The paper's reference points (DCert, Middleware 2022).
PAPER_VALIDATE_CHAIN_MS = 0.14
PAPER_ENCLAVE_SLOWDOWN = 1.8  # Fig. 8: in-enclave time <= 1.8x plain CPU


def attribution_report(workload: str, values: dict[str, float]) -> list[str]:
    """The human-readable attribution table for one traced run."""
    wall = values["trace.wall_ms"]
    lines = [f"attribution ({workload}, per operation; {int(values['trace.ops'])} ops):"]
    rows = [(layer, values[f"layer.{layer}.self_ms"]) for layer in LAYERS]
    rows.sort(key=lambda row: row[1], reverse=True)
    rows.append(("unattributed", values["trace.unattributed_ms"]))
    for layer, self_ms in rows:
        share = self_ms / wall if wall else 0.0
        lines.append(f"  {layer:<13} {self_ms:10.4f} ms self  {share:6.1%}")
    lines.append(
        f"  traced wall   {wall:10.4f} ms  untraced {values['trace.untraced_wall_ms']:.4f} ms"
        f"  overhead {values['trace.overhead_ratio']:+.1%}"
    )
    inside = values["issuer.inside_ms"]
    modeled = values["sgx.modeled_overhead_ms"]
    lines.append("reference points (paper beside measured):")
    lines.append(
        f"  validate_chain per call: {values['superlight.validate_chain.call_ms']:.4f} ms"
        f" measured, {PAPER_VALIDATE_CHAIN_MS} ms paper"
    )
    if inside:
        lines.append(
            f"  Fig. 8 split per op: outside {values['issuer.outside_ms']:.3f} ms,"
            f" inside {inside:.3f} ms (measured) + modeled overhead {modeled:.3f} ms"
            f" = {values['sgx.inside_plus_modeled_ms']:.3f} ms total"
        )
        lines.append(
            f"  enclave slowdown (inside + modeled) / inside: {(inside + modeled) / inside:.2f}x"
            f" modeled, <= {PAPER_ENCLAVE_SLOWDOWN}x paper"
        )
    lines.append(f"  modeled cost spent in timed regions: {int(values['sgx.spend_calls'])} calls")
    return lines
