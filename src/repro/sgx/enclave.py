"""The enclave runtime: measured programs behind an Ecall boundary.

:class:`EnclaveHost` loads an :class:`EnclaveProgram` the way SGX loads
an enclave image: the program's *measurement* is a hash of its source
code, fixed at load time, and every interaction goes through
:meth:`EnclaveHost.ecall`, which

* charges the transition cost,
* tracks the call's EPC footprint (callers pass the payload size of
  what they marshal in — DCert's update proofs know their own sizes)
  and charges paging beyond the usable EPC,
* measures the in-enclave execution time and charges the calibrated
  slowdown on top.

State that the program keeps on ``self`` lives "inside" the enclave;
by simulation convention the host only touches it through ecalls.  A
program can expose data (e.g. its public key) by returning it.
"""

from __future__ import annotations

import inspect
from typing import Any

from repro import obs
from repro.crypto.hashing import Digest, tagged_hash
from repro.errors import EnclaveError
from repro.fault.crashpoints import crashpoint
from repro.obs.wallclock import elapsed_s, now_s
from repro.sgx.attestation import AttestationReport, AttestationService, sign_quote
from repro.sgx.costs import CostLedger, SGXCostModel, model_enabled
from repro.sgx.platform import SGXPlatform


def measure_program(program_class: type, config: bytes = b"") -> Digest:
    """MRENCLAVE analogue: hash of the program's source code and config.

    Any edit to the program class (or its subclass chain) changes the
    measurement, so a tampered program cannot attest as the original.
    Build-time configuration (DCert hard-codes the genesis digest, the
    IAS key, and the contract/index code identities into its enclave)
    is folded in via ``config`` so a reconfigured program is a
    *different* enclave.
    """
    chunks = []
    for klass in program_class.__mro__:
        if klass in (object, EnclaveProgram):
            continue
        try:
            chunks.append(inspect.getsource(klass))
        except (OSError, TypeError) as exc:  # dynamically built classes
            raise EnclaveError(
                f"cannot measure {klass.__qualname__}: source unavailable"
            ) from exc
    return tagged_hash(
        "enclave-measurement", "".join(chunks).encode("utf-8") + b"\x00" + config
    )


class EnclaveProgram:
    """Base class for code intended to run inside an enclave.

    Subclasses define ``ECALLS``, a tuple of method names the host may
    invoke, and may implement ``on_init`` to generate keys/state at
    load time (before any untrusted input arrives).
    """

    ECALLS: tuple[str, ...] = ()

    def config_bytes(self) -> bytes:
        """Build-time configuration folded into the measurement."""
        return b""

    def on_init(self) -> bytes:
        """Runs at enclave load; returns report data to embed in quotes
        (DCert programs return their freshly generated public key)."""
        return b""

    # Set by the host after loading (EREPORT self-inspection analogue).
    self_measurement: Digest = b""
    # Set by the host before on_init (EGETKEY analogue for sealing).
    _platform: "SGXPlatform | None" = None
    # Installed by EnclaveHost.register_ocall.
    _ocall_dispatch: Any = None

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Exit the enclave to call an untrusted host function.

        Anything returned is *untrusted input* — the program must verify
        it (e.g. check Merkle proofs) exactly like ecall arguments.
        """
        if self._ocall_dispatch is None:
            raise EnclaveError("no ocalls registered for this enclave")
        return self._ocall_dispatch(name, *args, **kwargs)


class EnclaveHost:
    """Loads one enclave program on one platform and brokers ecalls."""

    def __init__(
        self,
        program: EnclaveProgram,
        platform: SGXPlatform,
        *,
        cost_model: SGXCostModel | None = None,
    ) -> None:
        self.program = program
        self.platform = platform
        self.cost_model = cost_model if cost_model is not None else SGXCostModel()
        self.ledger = CostLedger()
        self.measurement = measure_program(type(program), program.config_bytes())
        program.self_measurement = self.measurement
        # Sealing-capable programs need the platform identity (EGETKEY
        # analogue); set before on_init so sealed state can be restored.
        program._platform = platform
        self._report_data = program.on_init()

    @property
    def report_data(self) -> bytes:
        """Public data the enclave pinned at init (e.g. ``pk_enc``)."""
        return self._report_data

    def attest(self, service: AttestationService) -> AttestationReport:
        """Run remote attestation against an IAS; one-time per enclave."""
        quote = sign_quote(self.platform, self.measurement, self._report_data)
        return service.attest(quote)

    def register_ocall(self, name: str, handler: Any) -> None:
        """Expose an untrusted host function to the enclave program.

        The program invokes it via :meth:`EnclaveProgram.ocall`; every
        invocation pays the Ocall transition cost.  DCert's main design
        avoids Ocalls entirely (§2.2), but the interface exists so the
        lazy-proof-fetching alternative can be measured against it.
        """
        self._ocalls = getattr(self, "_ocalls", {})
        self._ocalls[name] = handler
        program = self.program

        def dispatch(ocall_name: str, *args: Any, **kwargs: Any) -> Any:
            target = self._ocalls.get(ocall_name)
            if target is None:
                raise EnclaveError(f"undefined ocall {ocall_name!r}")
            self.ledger.ocalls += 1
            obs.inc("sgx.ocalls")
            if model_enabled():
                self.ledger.transition_s += self.cost_model.ocall_transition_s
                obs.inc("sgx.transition_s", self.cost_model.ocall_transition_s)
            return target(*args, **kwargs)

        program._ocall_dispatch = dispatch

    def ecall(self, name: str, *args: Any, payload_bytes: int = 0, **kwargs: Any) -> Any:
        """Enter the enclave: dispatch ``name(*args, **kwargs)``.

        ``payload_bytes`` is the marshalled size of the inputs, used for
        EPC accounting; DCert passes its update-proof sizes here.
        """
        if name not in type(self.program).ECALLS:
            raise EnclaveError(f"undefined ecall {name!r}")
        crashpoint("enclave.ecall.pre")
        handler = getattr(self.program, name)
        # Bookkeeping always happens; the *charges* only apply while
        # the cost model is enabled.
        charging = model_enabled()
        self.ledger.ecalls += 1
        self.ledger.peak_epc_bytes = max(self.ledger.peak_epc_bytes, payload_bytes)
        paging = self.cost_model.paging_charge(payload_bytes)
        if charging:
            self.ledger.transition_s += self.cost_model.ecall_transition_s
            self.ledger.paging_s += paging
        if obs.enabled():
            obs.inc("sgx.ecalls")
            obs.observe(
                "sgx.ecall_payload_bytes",
                payload_bytes,
                boundaries=obs.SIZE_BYTES_BUCKETS,
            )
            obs.set_gauge("sgx.peak_epc_bytes", self.ledger.peak_epc_bytes)
            if charging:
                obs.inc("sgx.transition_s", self.cost_model.ecall_transition_s)
            if paging > 0:
                obs.inc("sgx.epc_paging_events")
                obs.inc("sgx.epc_paging_s", paging)
        started = now_s()
        try:
            result = handler(*args, **kwargs)
        finally:
            elapsed = elapsed_s(started)
            self.ledger.in_enclave_s += elapsed
            obs.observe(f"sgx.ecall_ms.{name}", elapsed * 1000.0)
            if charging:
                slowdown = elapsed * self.cost_model.enclave_slowdown_extra
                self.ledger.slowdown_s += slowdown
        # The host 'dies' after the enclave returned but before it acted
        # on the result — the result is lost with the host's memory.
        crashpoint("enclave.ecall.post")
        return result
