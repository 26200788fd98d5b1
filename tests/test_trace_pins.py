"""Byte pins on a run's artifacts: the decompressed ``trace.jsonl`` and
``metrics.json`` of two sanitized runs, hashed with sha256.

The digests were recorded at commit 4522eec, before slot results carried
``(packet, output_mask)`` rows, so they hold the trace's per-output
``grants`` order and every metric to the bytes the per-copy deliveries
produced. FIFOMS runs under chaos faults; iSLIP (the unicast VOQ bank's
producer) refuses fault injection, so it runs fault-free.

A third pin holds the ``metrics.json`` of the Fig. 4 recipe at N = 16
and load ≈ 0.8 (``bernoulli_arrival_probability(16, 0.8, 0.2)`` =
0.24296), where VOQs run longer than at N = 8: the ``kernel.voq_peak``
gauge and the other kernel-seam series read through
``SwitchState.slot_stats()``'s per-row caches. Recorded at commit
ad54254, before those caches existed.

Re-recording (only for a deliberate behaviour change)::

    PYTHONPATH=src python -m repro run <args> --out-dir D
    zcat D/trace.jsonl.gz | sha256sum; sha256sum D/metrics.json
"""

from __future__ import annotations

import gzip
import hashlib

import pytest

from repro.cli import main

COMMON = ["-n", "8", "--p", "0.3", "--b", "0.125", "--slots", "1500", "--seed", "3"]

PINS = {
    "fifoms": (
        ["--faults", "chaos"],
        "68d666017e8e6ca73e70ef8c2a38d5441e9f6a23cb65029c10692129039f5d80",
        "e490912863fe3ed97291d997847bb967648521125a846e4ae52a09a465e47079",
    ),
    "islip": (
        [],
        "7284c99793ab2bdbce70df2f292c6a4001e329fc3084fcf27c0f12de2136d3ab",
        "a61211bd33e0b0eebbc177c8ccae3647c0c20ea8c7d720284da11a9af6367765",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(PINS))
def test_trace_and_metrics_bytes_are_pinned(algorithm, tmp_path, capsys):
    extra, trace_sha, metrics_sha = PINS[algorithm]
    out = tmp_path / "run"
    argv = ["run", "-a", algorithm, *COMMON, *extra, "--sanitize", "--out-dir", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    trace = gzip.decompress((out / "trace.jsonl.gz").read_bytes())
    assert hashlib.sha256(trace).hexdigest() == trace_sha
    metrics = (out / "metrics.json").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == metrics_sha


def test_n16_metrics_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "run"
    argv = [
        "run", "-a", "fifoms", "-n", "16", "--p", "0.243", "--b", "0.2",
        "--slots", "2000", "--seed", "2004", "--sanitize", "--out-dir", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    metrics = (out / "metrics.json").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == (
        "d6204ef0d8773c85911b7496d1f974e630b4bd46b0f01e3bcbb388839263cd46"
    )
