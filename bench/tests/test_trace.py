from bench.trace import Tracer


def test_self_time_is_duration_minus_children():
    t = Tracer()
    # (name, start, end, parent, rep): a root with two children, one grandchild
    t.spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.inner", 6.0, 7.5, 2, 0],
        ["root", 0.0, 2.0, -1, 1],
    ]
    rep0 = t.self_times()[0]
    assert rep0["root"] == {"self": 3.0, "total": 10.0, "count": 1}
    assert rep0["a"]["self"] == 3.0
    assert rep0["b"]["self"] == 2.5 and rep0["b"]["total"] == 4.0
    assert rep0["b.inner"]["self"] == 1.5
    assert sum(c["self"] for c in rep0.values()) == 10.0
    assert t.self_times()[1]["root"]["self"] == 2.0


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return (cls.__name__, x)


def test_instrument_records_nested_spans_and_restores():
    t = Tracer()
    t.instrument(_Target, "method", "layer.method")
    t.instrument(_Target, "make", "layer.make")
    assert _Target().method(1) == 2 and not t.spans  # disabled: passthrough
    t.enabled, t.rep = True, 3
    assert t.call("outer", lambda: _Target().method(1)) == 2
    assert _Target.make(5) == ("_Target", 5)
    t.enabled = False
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("outer", -1, 3), ("layer.method", 0, 3), ("layer.make", -1, 3)]
    assert all(s[2] >= s[1] for s in t.spans)
    t.restore()
    assert not hasattr(_Target.__dict__["method"], "__wrapped__")
    assert isinstance(_Target.__dict__["make"], classmethod)
    assert _Target.make(5) == ("_Target", 5)
