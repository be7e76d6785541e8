"""The transport wait budget and the failure taxonomy it feeds.

The classification contract of DESIGN.md section 13 (dead peer ->
RankFailure, alive-but-silent past the budget -> CommTimeout) is
exercised on real processes in ``tests/test_transport.py`` and, for the
serve pool, in ``tests/test_serve_concurrency.py``; here only the
``budget`` argument of :class:`ProcessTransport` and the exception
payloads.
"""

import pytest

from repro.parallel import build_domains, partition_nodes_rcb
from repro.parallel.transport import ProcessTransport
from repro.resilience.taxonomy import CommTimeout, FailureReason


@pytest.fixture(scope="module")
def domains(block_problem_small):
    p = block_problem_small
    return build_domains(p.a, partition_nodes_rcb(p.mesh.coords, 2))


class TestPolicyValidation:
    def test_defaults_are_valid(self, domains):
        transport = ProcessTransport(domains)
        try:
            assert transport.budget > 0
        finally:
            transport.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0.0},
            {"budget": -1.0},
            {"budget": float("nan")},
            {"budget": float("inf")},
            {"budget": float("-inf")},
        ],
    )
    def test_bad_knobs_rejected(self, domains, kwargs):
        with pytest.raises(ValueError, match="budget"):
            ProcessTransport(domains, **kwargs)


class TestTaxonomy:
    def test_comm_timeout_enum_member(self):
        assert FailureReason.COMM_TIMEOUT.value == "comm_timeout"
        assert str(FailureReason.COMM_TIMEOUT) == "COMM_TIMEOUT"

    def test_comm_timeout_exception_payload(self):
        err = CommTimeout("exchange", (1, 2), 1.5)
        assert err.op == "exchange"
        assert err.pending == (1, 2)
        assert err.elapsed == 1.5
        assert "alive but silent" in str(err)
