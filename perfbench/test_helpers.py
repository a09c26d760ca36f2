"""Tests of the benchmark's measurement helpers and its compare verdicts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.compare import verdict
from perfbench.helpers import (
    covered_length,
    span_self_times,
    supported_percentile,
    vmhwm_kib,
)

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_needs_ten_samples_beyond_it():
    assert supported_percentile(list(range(199)), 95) is None
    assert supported_percentile(list(range(200)), 95) == 189
    assert supported_percentile(list(range(19)), 50) is None
    assert supported_percentile(list(range(20)), 50) == 9
    assert supported_percentile([], 50) is None


def test_percentile_is_a_measured_sample():
    samples = [0.5 * i for i in range(1000)]
    assert supported_percentile(samples, 99) in samples
    assert supported_percentile(list(reversed(samples)), 50) == samples[499]


@pytest.mark.parametrize("pct", [-1.0, 100.0, 150.0])
def test_percentile_rejects_out_of_range(pct):
    with pytest.raises(ValueError):
        supported_percentile([1.0] * 100, pct)


def test_covered_length_counts_overlaps_once():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered_length([(2.0, 2.0), (1.0, 0.0)]) == 0.0


def _span(span_id, parent_id, name, start, duration):
    return SimpleNamespace(span_id=span_id, parent_id=parent_id, name=name,
                           start=start, duration=duration)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(1, None, "run", 0.0, 10.0),
        _span(2, 1, "compute", 1.0, 3.0),   # 1..4
        _span(3, 1, "compute", 2.0, 4.0),   # 2..6, overlaps the first child
        _span(4, 1, "barrier", 9.0, 5.0),   # 9..14, clipped to the parent at 10
        _span(5, 2, "fold", 1.5, 1.0),      # grandchild: not the parent's child
    ]
    self_times = dict((span.span_id, value) for span, (_, value)
                      in zip(spans, span_self_times(spans)))
    assert self_times[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_times[2] == pytest.approx(2.0)
    assert self_times[3] == pytest.approx(4.0)
    assert self_times[5] == pytest.approx(1.0)


def test_vmhwm_rises_with_a_large_allocation():
    # A fresh interpreter: in this one, freed heap pages may already be
    # resident, so touching a new block need not raise the peak.
    script = (
        "from perfbench.helpers import vmhwm_kib\n"
        "before = vmhwm_kib()\n"
        "block = bytearray(64 * 1024 * 1024)\n"
        "block[::4096] = b'x' * len(block[::4096])\n"
        "print(vmhwm_kib() - before)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    assert int(done.stdout) >= 32 * 1024


def test_vmhwm_of_a_missing_process_raises():
    with pytest.raises(OSError):
        vmhwm_kib("0")


def test_verdicts_follow_the_bounds():
    parent = {seed: 10.0 + 0.1 * (seed % 3) for seed in range(10)}
    faster = {seed: value * 0.5 for seed, value in parent.items()}
    slower = {seed: value * 1.5 for seed, value in parent.items()}
    slightly = {seed: value * 1.02 for seed, value in parent.items()}
    assert verdict(parent, faster, "lower", 0.1) == "better"
    assert verdict(parent, slower, "lower", 0.1) == "worse"
    assert verdict(parent, slightly, "lower", 0.1) == "same"
    assert verdict(parent, slower, "higher", 0.1) == "better"
    noisy = {seed: 10.0 * (1 + (seed % 2)) for seed in range(10)}
    assert verdict(noisy, slightly, "lower", 0.1) == "unresolved"
    assert verdict(parent, slower, "lower", None) == "worse"
    barely = {seed: value * 1.001 for seed, value in parent.items()}
    assert verdict(parent, barely, "lower", None) == "unresolved"
