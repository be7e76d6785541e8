"""Deadline / retry / backoff policy for real-process communication.

Every operation on worker processes runs under the same three-knob
policy: a per-attempt *deadline*, a bounded number of *retries*, and an
exponential *backoff* between attempts.  The engine
(:func:`run_with_retry`, which the solver service's worker pool drives)
is deliberately pure: the clock and the sleep function are injectable,
so the classification contract

- attempt completes (possibly only after retries) → result returned, the
  slow-but-alive peer is **absorbed** with no failure surfaced;
- a peer process is genuinely dead → :class:`RankFailure` immediately
  (no point burning the retry budget on a corpse);
- every attempt misses its deadline but all peers stay alive →
  :class:`CommTimeout` after ``max_retries + 1`` attempts

is unit-testable against a fake clock without spawning a single process
(``tests/test_transport_policy.py``).  The process transport applies
the same contract per epoch of rank workers, with :meth:`TransportPolicy.budget`
as the bound (see :mod:`~repro.parallel.transport.process_backend`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.resilience.taxonomy import CommTimeout, RankFailure

__all__ = ["Incomplete", "TransportPolicy", "run_with_retry"]


@dataclass(frozen=True)
class TransportPolicy:
    """Per-operation deadline/retry/backoff knobs of a transport.

    ``deadline`` is the wall-clock budget of one attempt in seconds;
    ``max_retries`` the number of *re*-attempts after the first (so every
    operation gets ``max_retries + 1`` tries); ``backoff`` the sleep
    before the first retry, multiplied by ``backoff_factor`` for each
    subsequent one.

    The process transport's rank workers cannot re-issue a collective
    (they run autonomously), so there the knobs act through their sum:
    :meth:`budget` bounds each wait of a rank on its peers, and how long
    the driver lets an epoch go without any rank advancing.
    """

    deadline: float = 10.0
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.deadline <= 0.0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0.0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def budget(self) -> float:
        """Worst-case wall-clock of one operation: all attempts + backoffs."""
        total = self.deadline * (self.max_retries + 1)
        delay = self.backoff
        for _ in range(self.max_retries):
            total += delay
            delay *= self.backoff_factor
        return total


class Incomplete(Exception):
    """One attempt missed its deadline; carries the silent ranks.

    Raised by a transport's attempt function to hand control back to
    :func:`run_with_retry`, which decides between retrying, declaring a
    :class:`RankFailure` (a pending rank is dead) and declaring a
    :class:`CommTimeout` (budget exhausted, everyone alive)."""

    def __init__(self, pending: Iterable[int]) -> None:
        self.pending = tuple(int(r) for r in pending)
        super().__init__(f"pending ranks: {self.pending}")


def run_with_retry(
    op: str,
    attempt: Callable[[float, int], object],
    *,
    dead_ranks: Callable[[], Iterable[int]],
    policy: TransportPolicy,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_timeout: Callable[[str, int, tuple[int, ...]], None] | None = None,
):
    """Run one communication operation under *policy*.

    ``attempt(deadline, attempt_index)`` performs (or re-issues) the
    operation and either returns its result or raises :class:`Incomplete`
    with the ranks that stayed silent.  ``dead_ranks()`` is consulted
    only after a miss: any genuinely dead peer escalates straight to
    :class:`RankFailure` — retrying cannot revive a killed process, that
    is the recovery layer's job.  ``on_timeout(op, attempt_index,
    pending)`` observes each absorbed miss (metrics / logging).
    """
    t0 = clock()
    delay = policy.backoff
    pending: tuple[int, ...] = ()
    for a in range(policy.max_retries + 1):
        try:
            return attempt(policy.deadline, a)
        except Incomplete as inc:
            pending = inc.pending
            dead = sorted(int(r) for r in dead_ranks())
            if dead:
                raise RankFailure(dead[0], a + 1) from None
            if on_timeout is not None:
                on_timeout(op, a, pending)
            if a < policy.max_retries and delay > 0.0:
                sleep(delay)
                delay *= policy.backoff_factor
    raise CommTimeout(op, pending, policy.max_retries + 1, clock() - t0)
