"""The benchmark's span hooks land where the program defines them.

A traced benchmark run (``bench/run.py --trace 1``) swaps module and
class attributes of the program for span-recording wrappers and puts the
originals back afterwards.  That only measures the program's own code
if each attribute is defined on the owner it is patched on: a method
that moved to a base class, a helper or an instance attribute would be
read from somewhere else, and ``restore`` would leave a copy of it
behind on the owner.
"""

from __future__ import annotations

import pytest

from bench.trace import Tracer
from bench.workloads import WORKLOADS


class _RecordingTracer(Tracer):
    """A tracer that also notes what each patched attribute was."""

    def __init__(self) -> None:
        super().__init__()
        self.hooks: list[tuple[object, str, object]] = []

    def instrument(self, owner, attr, name) -> None:
        self.hooks.append((owner, attr, vars(owner).get(attr)))
        super().instrument(owner, attr, name)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_instrumented_attributes_live_in_their_owners_dict(name):
    tracer = _RecordingTracer()
    workload = WORKLOADS[name](7, True, tracer)
    try:
        workload.instrument()
    finally:
        tracer.restore()
    for owner, attr, before in tracer.hooks:
        label = f"{getattr(owner, '__qualname__', getattr(owner, '__name__', owner))}.{attr}"
        assert before is not None, f"{label} is not defined on its owner"
        assert vars(owner).get(attr) is before, f"{label} was not restored"
