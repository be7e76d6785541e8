import pytest

from bench import harness
from bench.harness import Repetition


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="samples beyond"):
        harness.percentile(list(range(99)), 90)
    assert harness.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        harness.percentile(list(range(100)), 95)
    assert harness.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        harness.percentile([1.0], 100)


def _rep(i, before, after, traced=False):
    return Repetition(index=i, raw_s=1.0, cpu_raw_s=1.0, sys_raw_s=0.0,
                      ref_before=before, ref_after=after, traced=traced)


def test_invalid_repetitions_are_dropped_when_enough_remain():
    reps = [_rep(0, 0.20, 0.20), _rep(1, 0.20, 0.30), _rep(2, 0.30, 0.29), _rep(3, 0.29, 0.20)]
    kept, discarded = harness.keep_valid(reps, needed=2)
    assert [r.index for r in kept] == [0, 2] and discarded == 2
    kept, discarded = harness.keep_valid(reps, needed=3)
    assert len(kept) == 4 and discarded == 0  # too few valid: keep all, say so


def test_nominal_seconds_scale_with_the_bracket():
    assert _rep(0, 0.4, 0.4).norm_s == pytest.approx(0.5)
    assert _rep(0, 0.1, 0.1).norm_s == pytest.approx(2.0)


def test_spread_is_iqr_over_median():
    assert harness.iqr_over_median([1.0]) == 0.0
    assert harness.iqr_over_median([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert harness.iqr_over_median([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class _FakeRef:
    def run(self):
        return 0.2


class _FakeWorkload:
    min_reps = 3

    def __init__(self):
        self.calls = []

    def repetition(self, index):
        self.calls.append(index)
        return index

    def verify(self, payload):
        return {"attempted": 1, "failed": 0, "iterations": 7}


class _FakeTracer:
    enabled = False
    rep = -1


def test_loop_runs_min_reps_even_with_zero_seconds():
    w = _FakeWorkload()
    reps = harness.run_repetitions(w, _FakeRef(), 0.2, seconds=0.0)
    assert w.calls == [0, 1, 2] and all(r.valid and not r.traced for r in reps)


def test_traced_loop_alternates_and_needs_two_of_each():
    w = _FakeWorkload()
    reps = harness.run_repetitions(w, _FakeRef(), 0.2, seconds=0.0, tracer=_FakeTracer())
    assert [r.traced for r in reps] == [False, True, False, True]
