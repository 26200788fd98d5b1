"""The one slot loop: no mode combination changes a result.

``slot_chunk`` only sets how many arrival vectors the engine draws ahead
of the slots that consume them; faults, the sanitizer and telemetry hang
off the same loop as per-slot hooks. These tests pin that every
combination produces the bit-identical slot stream (summary, metrics
registry, trace records, early-stop slot) on both kernel backends.
"""

from __future__ import annotations

import io
import itertools
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import SlotTracer, Telemetry
from repro.sanitize import SanitizerSuite
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_simulation

TRAFFIC = {"model": "bernoulli", "p": 0.4, "b": 0.3}
CHUNKS = (1, 7, 64, 5000)


def _summary(algorithm, backend, slot_chunk, *, slots=1500, check_every=0):
    cfg = SimulationConfig(
        num_slots=slots,
        warmup_fraction=0.5,
        stability_window=700,  # deliberately coprime-ish with the chunks
        check_invariants_every=check_every,
        slot_chunk=slot_chunk,
    )
    return run_simulation(
        algorithm, 8, TRAFFIC, seed=11, config=cfg, backend=backend
    )


def _mode_run(
    algorithm, backend, faults, *, slot_chunk, sanitize, telemetry,
    traffic=TRAFFIC, **cfg_args,
):
    """One run of the mode matrix: (summary-minus-telemetry JSON,
    metrics registry dict, raw trace text); the last two are None with
    telemetry off."""
    cfg_args = {
        "num_slots": 900, "warmup_fraction": 0.5, "stability_window": 400,
        **cfg_args,
    }
    stream = io.StringIO()
    tel = Telemetry(tracer=SlotTracer(stream)) if telemetry else None
    summary = run_simulation(
        algorithm, 8, traffic, seed=11, backend=backend, faults=faults,
        config=SimulationConfig(slot_chunk=slot_chunk, **cfg_args),
        telemetry=tel,
        sanitize=SanitizerSuite(hard_fail=True) if sanitize else False,
    )
    body = json.loads(summary.to_json())
    body.pop("telemetry")
    if tel is None:
        return body, None, None
    return body, tel.registry.to_dict(), stream.getvalue()


class TestChunkedEquivalence:
    @pytest.mark.parametrize("algorithm", ["fifoms", "islip", "oqfifo"])
    @pytest.mark.parametrize("chunk", [2, 7, 64, 5000])
    def test_bit_identical_to_per_slot_loop(self, algorithm, chunk):
        base = _summary(algorithm, "object", 1)
        chunked = _summary(algorithm, "object", chunk)
        assert chunked.to_json() == base.to_json()

    def test_vectorized_backend_chunked(self):
        base = _summary("fifoms", "vectorized", 1)
        chunked = _summary("fifoms", "vectorized", 32)
        assert chunked.to_json() == base.to_json()

    def test_chunks_respect_invariant_cadence(self):
        # check_invariants_every=13 never divides chunk=8 evenly: the
        # check must still run on its own per-slot cadence.
        base = _summary("fifoms", "object", 1, check_every=13)
        chunked = _summary("fifoms", "object", 8, check_every=13)
        assert chunked.to_json() == base.to_json()

    def test_unstable_run_stops_at_same_slot(self):
        overload = {"model": "bernoulli", "p": 0.95, "b": 0.9}
        cfg_args = dict(
            num_slots=4000,
            warmup_fraction=0.0,
            stability_window=200,
            max_backlog=300,
        )
        base, base_registry, base_trace = _mode_run(
            "siq-fifo", "object", None, traffic=overload,
            slot_chunk=1, sanitize=False, telemetry=True, **cfg_args,
        )
        assert base["unstable"] and base["slots_run"] < 4000
        for chunk, sanitize, telemetry in itertools.product(
            (1, 7, 150, 5000), (False, True), (False, True)
        ):
            body, registry, trace = _mode_run(
                "siq-fifo", "object", None, traffic=overload,
                slot_chunk=chunk, sanitize=sanitize, telemetry=telemetry,
                **cfg_args,
            )
            mode = (chunk, sanitize, telemetry)
            assert body == base, mode
            if telemetry:
                # One trace record per stepped slot: nothing was drawn or
                # stepped past the stop.
                assert registry == base_registry, mode
                assert trace == base_trace, mode


class TestModeMatrix:
    """slot_chunk × faults × sanitize × telemetry × backend, one loop."""

    @pytest.mark.parametrize("faults", [None, "chaos"], ids=["healthy", "chaos"])
    @pytest.mark.parametrize("backend", ["object", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["fifoms", "islip"])
    def test_every_mode_matches_the_plain_per_slot_run(
        self, algorithm, backend, faults
    ):
        if faults is not None and algorithm == "islip":
            # Only the multicast VOQ switch takes an injector; the other
            # architectures refuse one loudly, whatever the chunk.
            with pytest.raises(ConfigurationError, match="fault injection"):
                _mode_run(
                    algorithm, backend, faults,
                    slot_chunk=64, sanitize=False, telemetry=False,
                )
            return
        plain, _, _ = _mode_run(
            algorithm, backend, faults,
            slot_chunk=1, sanitize=False, telemetry=False,
        )
        _, registry, trace = _mode_run(
            algorithm, backend, faults,
            slot_chunk=1, sanitize=False, telemetry=True,
        )
        assert plain["slots_run"] == 900
        assert trace.count("\n") == 900
        for chunk, sanitize, telemetry in itertools.product(
            CHUNKS, (False, True), (False, True)
        ):
            body, got_registry, got_trace = _mode_run(
                algorithm, backend, faults,
                slot_chunk=chunk, sanitize=sanitize, telemetry=telemetry,
            )
            mode = (chunk, sanitize, telemetry)
            assert body == plain, mode
            if telemetry:
                assert got_registry == registry, mode
                assert got_trace == trace, mode

    def test_faulty_run_actually_injects(self):
        body, _, _ = _mode_run(
            "fifoms", "object", "chaos",
            slot_chunk=64, sanitize=True, telemetry=False,
        )
        assert body["faults"]["slots_advanced"] == 900
        assert body["cells_dropped"] > 0 and body["grants_lost"] > 0


class TestChunkPlumbing:
    def test_invalid_slot_chunk_rejected(self):
        with pytest.raises(ConfigurationError, match="slot_chunk"):
            SimulationConfig(slot_chunk=0)
