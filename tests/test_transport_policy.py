"""Deadline/retry/backoff policy engine against a fake clock.

The classification contract of DESIGN.md section 13, tested without
spawning a single process: deadline exceeded on every attempt with all
peers alive -> CommTimeout; a genuinely dead peer -> RankFailure
immediately; success on a retry -> the slow-but-alive peer is absorbed
with no failure surfaced.
"""

import pytest

from repro.parallel.transport.policy import (
    Incomplete,
    TransportPolicy,
    run_with_retry,
)
from repro.resilience.taxonomy import CommTimeout, FailureReason, RankFailure


class FakeClock:
    """Deterministic monotonic clock; sleep() just advances it."""

    def __init__(self) -> None:
        self.t = 0.0
        self.sleeps: list[float] = []

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.t += seconds


def _run(attempt, policy, *, dead=(), clock=None, on_timeout=None):
    clock = clock or FakeClock()
    return run_with_retry(
        "test-op",
        attempt,
        dead_ranks=lambda: dead,
        policy=policy,
        sleep=clock.sleep,
        clock=clock.now,
        on_timeout=on_timeout,
    )


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        p = TransportPolicy()
        assert p.deadline > 0 and p.max_retries >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"max_retries": -1},
            {"backoff": -0.1},
            {"backoff_factor": 0.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransportPolicy(**kwargs)

    def test_budget_is_attempts_plus_backoffs(self):
        p = TransportPolicy(
            deadline=1.0, max_retries=2, backoff=0.1, backoff_factor=2.0
        )
        # 3 attempts x 1.0s + backoffs 0.1 + 0.2
        assert p.budget() == pytest.approx(3.3)


class TestClassification:
    def test_first_try_success_touches_nothing(self):
        clock = FakeClock()
        result = _run(
            lambda deadline, a: "ok",
            TransportPolicy(deadline=1.0, max_retries=3),
            clock=clock,
        )
        assert result == "ok"
        assert clock.sleeps == []

    def test_slow_but_alive_absorbed_on_retry(self):
        """One missed deadline, then success: no failure surfaced."""
        attempts = []

        def attempt(deadline, a):
            attempts.append(a)
            if a == 0:
                raise Incomplete([2])
            return "recovered"

        observed = []
        result = _run(
            attempt,
            TransportPolicy(deadline=1.0, max_retries=2, backoff=0.05),
            on_timeout=lambda op, a, pending: observed.append((op, a, pending)),
        )
        assert result == "recovered"
        assert attempts == [0, 1]
        assert observed == [("test-op", 0, (2,))]

    def test_exhausted_retries_all_alive_is_comm_timeout(self):
        def attempt(deadline, a):
            raise Incomplete([1, 3])

        with pytest.raises(CommTimeout) as exc:
            _run(attempt, TransportPolicy(deadline=1.0, max_retries=2))
        err = exc.value
        assert err.op == "test-op"
        assert err.pending == (1, 3)
        assert err.attempts == 3  # max_retries + 1

    def test_dead_peer_escalates_to_rank_failure_immediately(self):
        """No retry budget is burned on a corpse."""
        attempts = []

        def attempt(deadline, a):
            attempts.append(a)
            raise Incomplete([1])

        with pytest.raises(RankFailure) as exc:
            _run(
                attempt,
                TransportPolicy(deadline=1.0, max_retries=5),
                dead=[1],
            )
        assert exc.value.rank == 1
        assert attempts == [0]  # one attempt, then straight to RankFailure

    def test_lowest_dead_rank_reported(self):
        def attempt(deadline, a):
            raise Incomplete([0, 1, 2])

        with pytest.raises(RankFailure) as exc:
            _run(attempt, TransportPolicy(deadline=1.0), dead=[2, 0])
        assert exc.value.rank == 0


class TestBackoffSchedule:
    def test_exponential_backoff_between_attempts(self):
        clock = FakeClock()

        def attempt(deadline, a):
            raise Incomplete([1])

        with pytest.raises(CommTimeout):
            _run(
                attempt,
                TransportPolicy(
                    deadline=1.0,
                    max_retries=3,
                    backoff=0.1,
                    backoff_factor=2.0,
                ),
                clock=clock,
            )
        # sleeps before retries 1..3; no sleep after the final attempt
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_zero_backoff_never_sleeps(self):
        clock = FakeClock()

        def attempt(deadline, a):
            raise Incomplete([1])

        with pytest.raises(CommTimeout):
            _run(
                attempt,
                TransportPolicy(deadline=1.0, max_retries=2, backoff=0.0),
                clock=clock,
            )
        assert clock.sleeps == []

    def test_elapsed_uses_injected_clock(self):
        clock = FakeClock()

        def attempt(deadline, a):
            clock.t += deadline  # each attempt burns its full deadline
            raise Incomplete([1])

        with pytest.raises(CommTimeout) as exc:
            _run(
                attempt,
                TransportPolicy(deadline=2.0, max_retries=1, backoff=0.5),
                clock=clock,
            )
        # 2 attempts x 2.0s + one 0.5s backoff
        assert exc.value.elapsed == pytest.approx(4.5)

    def test_attempt_sees_deadline_and_index(self):
        seen = []

        def attempt(deadline, a):
            seen.append((deadline, a))
            if a < 2:
                raise Incomplete([0])
            return "done"

        _run(attempt, TransportPolicy(deadline=7.0, max_retries=2))
        assert seen == [(7.0, 0), (7.0, 1), (7.0, 2)]


class TestTaxonomy:
    def test_comm_timeout_enum_member(self):
        assert FailureReason.COMM_TIMEOUT.value == "comm_timeout"
        assert FailureReason.COMM_TIMEOUT.is_failure
        assert str(FailureReason.COMM_TIMEOUT) == "COMM_TIMEOUT"

    def test_comm_timeout_exception_payload(self):
        err = CommTimeout("exchange", (1, 2), 3, 1.5)
        assert err.op == "exchange"
        assert err.pending == (1, 2)
        assert err.attempts == 3
        assert "alive but silent" in str(err)
