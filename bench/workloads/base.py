"""What every workload has in common."""

from __future__ import annotations

import statistics
from typing import Any

import numpy as np

from bench.harness import Repetition
from bench.trace import Tracer
from bench.workloads.common import HostState


class SpanView:
    """Per-layer numbers of a traced run: for each span name, the median
    over the traced repetitions of that repetition's summed self time
    (or inclusive time, or call count), in nominal-host seconds."""

    def __init__(self, reps: list[Repetition], tracer: Tracer) -> None:
        self.reps = reps
        self.traced = [r for r in reps if r.traced]
        self.by_rep = tracer.self_times()

    def _median(self, name: str, key: str, scale_by_host: bool) -> float:
        values = []
        for rep in self.traced:
            cell = self.by_rep.get(rep.index, {}).get(name)
            value = cell[key] if cell else 0.0
            values.append(value * rep.factor if scale_by_host else value)
        return statistics.median(values) if values else 0.0

    def self_s(self, name: str) -> float:
        return self._median(name, "self", True)

    def total_s(self, name: str) -> float:
        return self._median(name, "total", True)

    def count(self, name: str) -> float:
        return self._median(name, "count", False)

    def coverage(self) -> float:
        """Share of a traced repetition's wall time that lies inside spans."""
        return statistics.median(
            sum(cell["self"] for cell in self.by_rep.get(rep.index, {}).values()) / rep.raw_s
            for rep in self.traced
        )


class BaseWorkload:
    name = ""
    warmups = 1
    min_reps = 4

    def __init__(self, seed: int, quick: bool, tracer: Tracer) -> None:
        self.seed = seed
        self.quick = quick
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 0])

    def setup(self) -> None:
        raise NotImplementedError

    def repetition(self, index: int) -> Any:
        raise NotImplementedError

    def verify(self, payload: Any) -> dict:
        raise NotImplementedError

    def instrument(self) -> None:
        """Install spans around calls the program makes internally
        (traced runs only)."""

    def layer_metrics(self, spans: SpanView, host: HostState) -> dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` opened."""
