"""Small measurement helpers of the benchmark (stdlib only).

Each helper reports only what its input supports: a percentile needs at
least ten samples beyond it, a span's self time never counts a moment twice,
and the peak-RSS probe fails loudly where ``/proc`` has no ``VmHWM``.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Samples a percentile needs beyond it before it is reported.
MIN_TAIL_SAMPLES = 10


def supported_percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct``-th percentile of ``samples``, or None when unsupported.

    A percentile is supported when at least :data:`MIN_TAIL_SAMPLES` samples
    lie beyond it, i.e. ``len(samples) * (1 - pct / 100) >= 10``: the p95
    needs 200 samples, the median 20.  The value is the nearest-rank
    percentile, so it is always one of the measured samples.
    """
    if not 0.0 <= pct < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {pct}")
    n = len(samples)
    if n == 0 or n * (1.0 - pct / 100.0) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_times(spans) -> List[Tuple[str, float]]:
    """``(name, self time)`` of every span in ``spans``.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children are clipped to the parent's interval and
    overlapping children (spans adopted from pool processes run in parallel)
    count once.  ``spans`` are objects with ``span_id``, ``parent_id``,
    ``name``, ``start`` and ``duration`` (``repro.obs.Span``).
    """
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = []
    for span in spans:
        end = span.start + span.duration
        clipped = [
            (max(child.start, span.start), min(child.start + child.duration, end))
            for child in children.get(span.span_id, ())
        ]
        result.append((span.name, span.duration - covered_length(clipped)))
    return result


def vmhwm_kib(pid: str = "self") -> int:
    """Peak resident set size (``VmHWM``) of a process, in KiB.

    ``VmHWM`` and not ``getrusage``'s ``ru_maxrss``: the latter survives
    ``exec``, so a child started from a larger parent reports the parent's
    peak.  ``VmHWM`` belongs to one address space and starts afresh in every
    new interpreter.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"VmHWM not found in /proc/{pid}/status")


def reset_vmhwm() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS; False if refused."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False
