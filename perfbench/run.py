"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing and
:mod:`repro.obs` off; ``--trace 1`` runs one part twice, untraced and
traced, and prints the per-layer metrics.  Human-readable report lines
come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any output failed its correctness check.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The traced run alternates its untraced and traced copies in chunks
#: of about this much measured time.
CHUNK_S = 0.2

_END = object()

#: End-to-end metric units, in report order.  Medians and rates are
#: printed in the report lines but carry no bound: on the shared
#: reference box they move between runs by more than any bound allowed
#: (see "Noise on the reference box" in README.md).
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "latency_ms.tail": "ms",
    "bootstrap_ms.p90": "ms",
    "payload_bytes": "B",
    "client_state_bytes": "B",
}

#: The workload-specific names the report prints for each generic one.
ALIASES = {
    "certify": {
        "latency_ms": "certify_ms",
        "rate": "certify_tx_per_s",
        "payload_bytes": "enclave_payload_bytes",
    },
    "follow": {
        "latency_ms": "fanout_ms",
        "rate": "tip_adoptions_per_s",
        "payload_bytes": "bytes_per_adoption",
    },
    "query": {
        "latency_ms": "query_ms",
        "rate": "query_per_s",
        "payload_bytes": "query_bytes",
    },
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "follow", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _quantile_label(q: float) -> str:
    return f"p{round(q * 100)}"


def measure(workload, spy, report: list[str]) -> tuple:
    """The untraced run: every part set up, measured, checked."""
    from perfbench.harness import Stopwatch, peak_rss_mb, percentile, samples_needed
    from perfbench.workloads import PARTS, Tally
    from repro.obs.wallclock import now_s

    tally = Tally()
    setups = []
    checks_s = 0.0
    watch = Stopwatch(spy)
    joins = Stopwatch(spy)
    for part in range(PARTS):
        gc.collect()
        started = now_s()
        dep = workload.build(part)
        setups.append(now_s() - started)
        workload.prepare(dep, tally)
        gc.collect()
        for _ in workload.main(dep, watch, tally, joins):
            pass
        checking = now_s()
        workload.check(dep, tally)
        checks_s += now_s() - checking
        del dep
    if not tally.latency_ms or not tally.bootstrap_ms:
        tally.fail("no operation completed")
        return tally, {}
    names = ALIASES[workload.name]
    tail = _quantile_label(workload.tail_q)
    latency, boot = tally.latency_ms, tally.bootstrap_ms
    values = {
        "setup_s": statistics.median(setups),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms.tail": percentile(latency, workload.tail_q),
        "bootstrap_ms.p90": percentile(boot, 0.9),
        "payload_bytes": tally.payload_bytes / max(tally.payload_ops, 1),
        "client_state_bytes": float(tally.client_state_bytes),
    }
    report.append(
        f"{workload.name}: {PARTS} parts, set-up {', '.join(f'{s:.3f}' for s in setups)} s,"
        f" measured {watch.total_s:.3f} s (+{joins.total_s:.3f} s joins), checks {checks_s:.3f} s"
    )
    for floor_name, samples, q in (
        (names["latency_ms"], latency, workload.tail_q),
        ("bootstrap_ms", boot, 0.9),
    ):
        needed = samples_needed(q)
        if len(samples) < needed:
            report.append(
                f"  warning: {floor_name}.{_quantile_label(q)} has {len(samples)} samples,"
                f" fewer than the {needed} that leave ten beyond it"
            )
    report.append(
        f"  {names['latency_ms']}.p50 = {percentile(latency, 0.5):.4f} ms (unbounded),"
        f" {names['latency_ms']}.{tail} = {values['latency_ms.tail']:.4f} ms (n={len(latency)})"
    )
    report.append(
        f"  bootstrap_ms.p50 = {percentile(boot, 0.5):.4f} ms (unbounded),"
        f" bootstrap_ms.p90 = {values['bootstrap_ms.p90']:.4f} ms (n={len(boot)})"
    )
    report.append(
        f"  {names['rate']} = {tally.work / tally.work_s:.3f}"
        f" {workload.work_unit}/s (unbounded; {tally.work} {workload.work_unit}"
        f" in {tally.work_s:.3f} s)"
    )
    report.append(
        f"  {names['payload_bytes']} = {values['payload_bytes']:.1f} B,"
        f" client_state_bytes = {tally.client_state_bytes} B"
    )
    return tally, values


def trace(workload, spy, report: list[str]) -> tuple:
    """The traced run: part 0 set up twice from one sub-seed, one copy
    run untraced and one traced, interleaved in chunks of about
    :data:`CHUNK_S` so both see the same drift in the box's speed.
    The traced copy is attributed to layers."""
    from perfbench.harness import Stopwatch
    from perfbench.layers import Tracer, attribution_report, layer_metrics
    from perfbench.workloads import Tally
    from repro import obs

    tracer = Tracer()
    passes = []
    for traced in (False, True):
        tally = Tally()
        dep = workload.build(0)
        workload.prepare(dep, tally)
        watch = Stopwatch(spy, switch=tracer.switch if traced else None)
        passes.append(
            {
                "dep": dep,
                "tally": tally,
                "watch": watch,
                "ledger": dep.issuer.enclave.ledger.snapshot(),
                "clock_ms": dep.bus.clock_ms if dep.bus is not None else 0.0,
                "steps": workload.main(dep, watch, tally, None),
                "done": False,
                "stepped": 0,
            }
        )
    plain, traced_pass = passes

    def step(entry) -> None:
        if next(entry["steps"], _END) is _END:
            entry["done"] = True
        else:
            entry["stepped"] += 1

    gc.collect()
    obs.reset()
    while not (plain["done"] and traced_pass["done"]):
        chunk_end = plain["watch"].total_s + CHUNK_S
        while not plain["done"] and plain["watch"].total_s < chunk_end:
            step(plain)
        tracer.install()
        try:
            while not traced_pass["done"] and (
                plain["done"] or traced_pass["stepped"] < plain["stepped"]
            ):
                step(traced_pass)
        finally:
            tracer.uninstall()
    merged = Tally()
    for entry in passes:
        workload.check(entry["dep"], entry["tally"])
        entry["ops"] = workload.ops(entry["dep"])
        merged.attempted += entry["tally"].attempted
        merged.failed += entry["tally"].failed
        merged.failures.extend(entry["tally"].failures)
        merged.inputs = entry["tally"].inputs
    if plain["ops"] != traced_pass["ops"]:
        merged.fail(f"traced copy ran {traced_pass['ops']} ops, untraced {plain['ops']}")
    dep = traced_pass["dep"]
    values = layer_metrics(
        tracer,
        obs.snapshot(),
        ops=traced_pass["ops"],
        traced_s=traced_pass["watch"].total_s,
        untraced_s=plain["watch"].total_s,
        ledger_delta=dep.issuer.enclave.ledger.delta(traced_pass["ledger"]),
        virtual_ms=(dep.bus.clock_ms if dep.bus is not None else 0.0) - traced_pass["clock_ms"],
        spend_calls=spy.timed_calls,
    )
    for entry in tracer.missing:
        merged.fail(f"entry point {entry} not found; update perfbench/layers.py")
    report.extend(attribution_report(workload.name, values))
    return merged, values


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.harness import SpendSpy
    from perfbench.layers import CATALOG
    from perfbench.workloads import WORKLOADS
    from repro import obs
    from repro.obs.wallclock import now_s

    started = now_s()
    obs.set_enabled(False)
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    spy = SpendSpy()
    spy.install()
    report: list[str] = []
    try:
        if args.trace:
            tally, values = trace(workload, spy, report)
            units = CATALOG
        else:
            tally, values = measure(workload, spy, report)
            units = END_TO_END
    finally:
        spy.uninstall()
    if spy.timed_calls:
        tally.fail(f"modeled cost was spent {spy.timed_calls} times in timed regions")
    report.append(f"inputs: {tally.inputs.hexdigest()}")
    report.append(f"run wall time: {now_s() - started:.3f} s")
    report.append(
        f"spend-path calls: {spy.timed_calls} in timed regions, {spy.calls} in total"
    )
    for failure in tally.failures:
        report.append(f"FAILED: {failure}")
    correct = tally.failed == 0 and tally.attempted > 0 and bool(values)
    for line in report:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                    if name in values
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
