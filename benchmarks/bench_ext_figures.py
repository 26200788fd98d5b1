"""EXT — beyond-paper experiment figures.

Two extension sweeps that round out the architecture picture:

* ``ext-mixed`` — the introduction's motivating regime (interleaved
  unicast + multicast). FIFOMS must dominate TATRA and iSLIP on delay and
  keep the smallest buffers.
* ``ext-cicq`` — the buffered crossbar against the matched crossbars.
  CICQ needs no central matching at all, and on unicast-ish loads that is
  nearly free; under multicast it pays the same copy-splitting tax as
  iSLIP, which FIFOMS avoids.
"""

from __future__ import annotations

from conftest import sweep_and_report


def test_ext_mixed_traffic(capsys):
    result = sweep_and_report("ext-mixed", capsys)
    loads = [l for l in result.loads if l <= 0.85]
    f = result.series("output_delay")["fifoms"]
    t = result.series("output_delay")["tatra"]
    i = result.series("output_delay")["islip"]
    finite = [
        (fv, tv, iv)
        for fv, tv, iv in zip(f, t, i)
        if fv == fv and fv != float("inf")
    ]
    assert finite
    # FIFOMS never loses to either input-queued rival on this regime.
    for fv, tv, iv in finite:
        if tv == tv and tv != float("inf"):
            assert fv <= tv * 1.1 + 1e-9
        if iv == iv and iv != float("inf"):
            assert fv <= iv * 1.1 + 1e-9


def test_ext_buffered_crossbar(capsys):
    result = sweep_and_report("ext-cicq", capsys)
    # CICQ is a copy-splitting architecture: under this multicast load it
    # must sit between FIFOMS (native multicast) and worse-or-equal to
    # OQFIFO, and FIFOMS must keep the smallest buffers.
    q = result.series("avg_queue")
    for load_idx, load in enumerate(result.loads):
        fif = q["fifoms"][load_idx]
        cicq = q["cicq"][load_idx]
        if fif == fif and cicq == cicq and load >= 0.5:
            assert fif <= cicq
