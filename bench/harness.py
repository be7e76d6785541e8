"""Measurement loop shared by every workload.

One run = one process: set-up (timed once), then repetitions of the
workload until ``--seconds`` of measuring have passed.  Every repetition
is bracketed by the host reference kernel (:mod:`hostref`); its wall and
CPU seconds are scaled by the bracket's host factor, and a repetition
whose two brackets disagree is discarded and replaced by running longer.
A run's value for a time metric is the median over its valid repetitions.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Protocol

from bench import hostref
from bench.trace import Tracer

MIN_SAMPLES_BEYOND = 10
MAX_OVERRUN = 3.0
MIN_PATIENCE_S = 30.0
"""The loop gives up waiting for valid repetitions after ``MAX_OVERRUN``
times ``--seconds`` (at least ``MIN_PATIENCE_S``) and reports what it has."""


class Workload(Protocol):
    """What the repetition loop needs of a workload."""

    min_reps: int

    def repetition(self, index: int) -> Any: ...
    def verify(self, payload: Any) -> dict: ...


def percentile(samples: list[float], q: float) -> float:
    """The *q*-th percentile (nearest rank), refused unless at least
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = -(-n * q // 100)  # ceil
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {int(n - rank)} samples beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return sorted(samples)[int(rank) - 1]


def iqr_over_median(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def _cpu_times() -> tuple[float, float]:
    """(user+sys, sys) of this process and its reaped children."""
    t = os.times()
    sys_s = t.system + t.children_system
    return t.user + t.children_user + sys_s, sys_s


@dataclass
class Repetition:
    index: int
    raw_s: float
    cpu_raw_s: float
    sys_raw_s: float
    ref_before: float
    ref_after: float
    traced: bool
    rss_mb: float = 0.0
    outcome: dict = field(default_factory=dict)

    @property
    def factor(self) -> float:
        return hostref.host_factor(self.ref_before, self.ref_after)

    @property
    def valid(self) -> bool:
        return hostref.bracket_valid(self.ref_before, self.ref_after)

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor

    @property
    def cpu_norm_s(self) -> float:
        return self.cpu_raw_s * self.factor


def keep_valid(reps: list[Repetition], needed: int) -> tuple[list[Repetition], int]:
    """The repetitions a run's medians are taken over, and how many were
    discarded.  When the host never held still long enough to give
    *needed* valid ones, every repetition is kept (and none counted as
    discarded) rather than reporting a median of one or two."""
    valid = [r for r in reps if r.valid]
    if len(valid) >= needed:
        return valid, len(reps) - len(valid)
    return list(reps), 0


def run_repetitions(
    workload: Workload,
    ref: hostref.ReferenceKernel,
    ref_first: float,
    seconds: float,
    tracer: Tracer | None = None,
) -> list[Repetition]:
    """Repeat the workload for *seconds*; with a tracer, odd repetitions
    run traced and even ones untraced, so both see the same host."""
    reps: list[Repetition] = []
    ref_prev = ref_first
    give_up = max(MAX_OVERRUN * seconds, MIN_PATIENCE_S)
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if tracer is None:
            enough = sum(r.valid for r in reps) >= workload.min_reps
        else:
            enough = all(
                sum(r.valid for r in reps if r.traced == flag) >= 2
                for flag in (False, True)
            )
        if (elapsed >= seconds and enough) or elapsed >= give_up:
            break
        index = len(reps)
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.rep = index
            tracer.enabled = traced
        reset_peak_rss()
        cpu0, sys0 = _cpu_times()
        t0 = time.perf_counter()
        payload = workload.repetition(index)
        raw = time.perf_counter() - t0
        cpu1, sys1 = _cpu_times()
        if tracer is not None:
            tracer.enabled = False
        ref_next = ref.run()
        rep = Repetition(
            index=index, raw_s=raw, cpu_raw_s=cpu1 - cpu0, sys_raw_s=sys1 - sys0,
            ref_before=ref_prev, ref_after=ref_next, traced=traced,
            rss_mb=peak_rss_mb(),
        )
        rep.outcome = workload.verify(payload)
        del payload
        gc.collect()
        reps.append(rep)
        ref_prev = ref_next
    return reps


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark to the current
    resident set (Linux >= 4.0), so that each repetition gets a peak of
    its own; where that is not possible the mark just keeps rising."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-set high-water mark of this process since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
