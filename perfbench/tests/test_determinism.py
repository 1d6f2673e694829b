"""Self-checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each case runs ``perfbench/run.py`` as a subprocess at ``--seconds 1``
(a few seconds per run), so the wrappers a traced run installs never
leak into the test process.

* Two traced runs with the same seed print identical exact counters.
* A different seed changes the generated inputs but not the set of
  metric names.
* The printed metric names are exactly those ``BENCHMARK.json`` lists.
* Without the program's sources the command fails without a result.
* A traced run fails when a wrapped entry point no longer exists.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("certify", "follow", "query")

#: Counters that depend only on the inputs, never on timing.
EXACT = (
    "crypto.verify.calls",
    "crypto.sign.calls",
    "sgx.ecalls",
    "rpc.calls",
    "wire.encode.bytes",
    "bus.deliveries",
    "query.proof_bytes",
    "cache.hit_ratio",
)


def _invoke(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@functools.lru_cache(maxsize=None)
def _run(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    """(inputs fingerprint, final JSON object) of one successful run."""
    done = _invoke(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    inputs = next(line.split(": ", 1)[1] for line in lines if line.startswith("inputs: "))
    return inputs, json.loads(lines[-1])


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counters(workload):
    first_inputs, first = _run(workload, 7, 1)
    again = _invoke(ROOT, workload, 7, 1)
    assert again.returncode == 0, again.stdout + again.stderr
    second = json.loads(again.stdout.strip().splitlines()[-1])
    assert f"inputs: {first_inputs}" in again.stdout
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_but_not_metric_names(workload):
    inputs, result = _run(workload, 7, 1)
    other_inputs, other = _run(workload, 8, 1)
    assert inputs != other_inputs
    assert result["metrics"].keys() == other["metrics"].keys()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_the_declaration(workload):
    _, untraced = _run(workload, 7, 0)
    _, traced = _run(workload, 7, 1)
    assert set(untraced["metrics"]) == _declared("end_to_end")
    assert set(traced["metrics"]) == _declared("per_layer")
    assert untraced["correct"] and traced["correct"]
    assert traced["metrics"]["sgx.spend_calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _invoke(tmp_path, "certify", 1, 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_run_fails_on_a_missing_entry_point():
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "import perfbench.layers as layers\n"
        "layers.ENTRY_POINTS += (('wire', 'wire.encode', 'repro.net.wire', 'renamed'),)\n"
        "import perfbench.run as run\n"
        "sys.exit(run.main(['--workload', 'follow', '--seed', '1', '--seconds', '1',"
        " '--trace', '1']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert done.returncode != 0
    assert "FAILED: entry point repro.net.wire.renamed not found" in done.stdout
    assert not json.loads(done.stdout.strip().splitlines()[-1])["correct"]
