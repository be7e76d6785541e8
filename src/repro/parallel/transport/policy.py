"""Wait budget for real-process communication.

Rank workers run autonomously, so nothing can re-issue a collective on
their behalf: the one thing a transport can decide is how long a wait
may last.  :class:`TransportPolicy` carries that bound, and the process
transport applies it to every command its rank workers run (see
:mod:`~repro.parallel.transport.process_backend`):

- a peer process is genuinely dead → :class:`RankFailure` (the recovery
  layer's job, waiting longer cannot revive it);
- a wait outlives the budget with every process alive →
  :class:`CommTimeout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TransportPolicy"]


@dataclass(frozen=True)
class TransportPolicy:
    """``budget`` bounds, in wall-clock seconds, each wait of a rank on
    its peers and how long the driver lets a command go without any
    rank advancing."""

    budget: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.budget < math.inf:
            raise ValueError(
                f"budget must be a positive finite number of seconds, got {self.budget}"
            )
