"""Checkpointed fault tolerance: journal container, CG rollback, rank
recovery (LFLR), and durable ALM restart."""

import numpy as np
import pytest

from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import all_dofs, apply_dirichlet, component_dofs, surface_load
from repro.fem.nonlinear import solve_nonlinear_contact
from repro.io import (
    JOURNAL_VERSION,
    JournalError,
    decode_record,
    encode_record,
    read_journal,
    write_journal,
)
from repro.parallel import DistributedSystem, parallel_cg, partition_nodes_rcb
from repro.precond import DiagonalScaling, bic
from repro.resilience import (
    CGCheckpointStore,
    FailureReason,
    SolveEvent,
    SolveReport,
)
from repro.resilience.checkpoint import AlmJournal, fingerprint_arrays


# ----------------------------------------------------------------------
# journal container: versioned, checksummed, atomic
# ----------------------------------------------------------------------


class TestJournalContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.bin"
        arrays = {"u": np.arange(12.0), "ids": np.array([3, 1, 4])}
        meta = {"cycle": 3, "penalty": 1e4, "nested": {"a": [1, 2]}}
        write_journal(path, arrays, meta)
        got_arrays, got_meta = read_journal(path)
        assert np.array_equal(got_arrays["u"], arrays["u"])
        assert np.array_equal(got_arrays["ids"], arrays["ids"])
        assert got_meta == {"cycle": 3, "penalty": 1e4, "nested": {"a": [1, 2]}}
        # no stray temp files left behind
        assert list(tmp_path.iterdir()) == [path]

    def test_corrupted_payload_rejected(self, tmp_path):
        path = tmp_path / "j.bin"
        write_journal(path, {"u": np.ones(4)}, {"k": 1})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalError, match="checksum"):
            read_journal(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "j.bin"
        write_journal(path, {"u": np.ones(4)}, {"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(JournalError, match="truncated"):
            read_journal(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "j.bin"
        path.write_bytes(b"NOTMINE!" + b"\x00" * 64)
        with pytest.raises(JournalError, match="magic"):
            read_journal(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "j.bin"
        write_journal(path, {"u": np.ones(2)}, {})
        raw = bytearray(path.read_bytes())
        raw[8:10] = (JOURNAL_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(JournalError, match="version"):
            read_journal(path)


class TestRecordCodec:
    """The container format itself: what a journal file and a job-log
    entry are both made of."""

    def test_round_trip_arrays_and_meta(self):
        arrays = {"u": np.arange(12.0).reshape(3, 4), "ids": np.array([3, 1, 4])}
        meta = {"cycle": 3, "penalty": 1e4, "nested": {"a": [1, None]}}
        got_arrays, got_meta = decode_record(encode_record(arrays, meta))
        assert set(got_arrays) == {"u", "ids"}
        assert np.array_equal(got_arrays["u"], arrays["u"])
        assert got_arrays["ids"].dtype == arrays["ids"].dtype
        assert got_meta == meta
        assert decode_record(encode_record({}))[1] == {}

    def test_a_journal_file_is_one_record(self, tmp_path):
        arrays, meta = {"u": np.ones(5)}, {"k": 1}
        write_journal(tmp_path / "j.bin", arrays, meta)
        assert (tmp_path / "j.bin").read_bytes() == encode_record(arrays, meta)
        # records laid end to end stay separable by their own headers
        two = encode_record(arrays, meta) + encode_record({}, {"k": 2})
        first = len(encode_record(arrays, meta))
        assert decode_record(two[:first])[1] == {"k": 1}
        assert decode_record(two[first:])[1] == {"k": 2}
        with pytest.raises(JournalError, match="appended to"):
            decode_record(two)

    def test_reserved_key_and_pickle_refused(self):
        with pytest.raises(ValueError, match="reserved"):
            encode_record({"__meta_json__": np.zeros(1)}, {})
        # an object array would need pickle to load: never executed
        record = encode_record({"o": np.array([{"a": 1}], dtype=object)}, {})
        with pytest.raises(ValueError, match="[Pp]ickle"):
            decode_record(record)

    def test_where_names_the_source(self):
        with pytest.raises(JournalError, match="jobs.log @ byte 96: .*too short"):
            decode_record(b"REPRO", "jobs.log @ byte 96")


class TestAlmJournal:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "alm.ckpt"
        j1 = AlmJournal(path, fingerprint_arrays(np.ones(3), 1e4))
        j1.save(
            cycle=1, u=np.ones(6), lam=np.zeros(3), penalty=1e4, backoffs=0,
            cg_iterations=[5], penalty_trail=[1e4], gap_norm=0.1,
            converged=False, report=SolveReport(),
        )
        j2 = AlmJournal(path, fingerprint_arrays(np.ones(3), 1e6))
        with pytest.raises(JournalError, match="different run"):
            j2.load()

    def test_missing_file_loads_none(self, tmp_path):
        j = AlmJournal(tmp_path / "absent.ckpt", "abc")
        assert j.load() is None

    def test_fingerprint_sensitivity(self):
        a = np.arange(4.0)
        assert fingerprint_arrays(a, 1.0) == fingerprint_arrays(a.copy(), 1.0)
        assert fingerprint_arrays(a, 1.0) != fingerprint_arrays(a + 1, 1.0)
        assert fingerprint_arrays(a, 1.0) != fingerprint_arrays(a, 2.0)
        # dtype and shape are part of the identity, not just the bytes
        assert fingerprint_arrays(a) != fingerprint_arrays(a.astype(np.float32))
        assert fingerprint_arrays(a) != fingerprint_arrays(a.reshape(2, 2))


# ----------------------------------------------------------------------
# CG in-memory checkpoint + rollback
# ----------------------------------------------------------------------


def _system(problem, ndomains=3, factory=None):
    part = partition_nodes_rcb(problem.mesh.coords, ndomains)
    if factory is None:
        factory = lambda sub, nodes: bic(sub, fill_level=0)  # noqa: E731
    return DistributedSystem.from_global(problem.a, problem.b, part, factory)


class TestCGCheckpointRollback:
    def test_store_save_restore(self):
        store = CGCheckpointStore([3, 2], interval=5)
        x = [np.arange(3.0), np.arange(2.0)]
        r = [np.ones(3), np.ones(2)]
        p = [np.zeros(3), np.zeros(2)]
        assert store.due(0) and store.latest is None
        store.save(0, 5, (x[0], r[0], p[0]), 2.5, 7.0)
        assert store.latest is None  # rank 1 has not saved: not committed
        store.save(1, 5, (x[1], r[1], p[1]), 2.5, 7.0)
        x[0][:] = -1.0  # diverge after the snapshot
        # a later snapshot only one rank completed must not win
        store.save(0, 10, (x[0], r[0], p[0]), 9.0, 7.0)
        ck = store.restore(x, r, p)
        assert (ck.iteration, ck.rz, ck.bnorm) == (5, 2.5, 7.0)
        assert np.array_equal(x[0], np.arange(3.0))
        assert not store.due(4)
        assert store.due(5)

    def test_transient_fault_rolls_back_to_fault_free_answer(
        self, block_problem_small
    ):
        ref = parallel_cg(_system(block_problem_small))
        system = _system(block_problem_small)
        system.comm.inject_worker_fault(1, exchange=7, corrupt="bitflip")
        report = SolveReport()
        res = parallel_cg(system, checkpoint_interval=5, report=report)
        assert res.converged
        assert res.rollbacks == 1
        assert np.array_equal(res.x, ref.x)  # bit-exact rejoin
        kinds = [e.kind for e in report.events]
        assert "detect" in kinds and "recover" in kinds

    def test_without_checkpointing_fault_still_aborts(self, block_problem_small):
        system = _system(block_problem_small)
        system.comm.inject_worker_fault(1, exchange=7, corrupt="bitflip")
        res = parallel_cg(system)
        assert not res.converged
        assert res.reason is FailureReason.COMM_FAULT


# ----------------------------------------------------------------------
# rank failure: injected kill + local-failure-local-recovery
# ----------------------------------------------------------------------


class TestRankFailureRecovery:
    def test_dead_rank_recovers_bit_exact(self, block_problem_small):
        ref = parallel_cg(_system(block_problem_small))
        system = _system(block_problem_small)
        system.enable_recovery()
        system.comm.inject_kill(1, at_exchange=5)
        report = SolveReport()
        res = parallel_cg(system, checkpoint_interval=4, report=report)
        assert res.converged
        assert system.comm.kills == [{"rank": 1, "exchange": 5}]
        assert system.comm.revivals == [{"rank": 1, "exchange": 6}]
        assert np.array_equal(res.x, ref.x)
        reasons = [e.reason for e in report.detections()]
        assert FailureReason.RANK_FAILURE in reasons

    def test_kill_without_recovery_store_aborts(self, block_problem_small):
        """No enable_recovery(): the failure is detected, not masked."""
        system = _system(block_problem_small)
        system.comm.inject_kill(1, at_exchange=5)
        res = parallel_cg(system, checkpoint_interval=4)
        assert not res.converged
        assert res.reason is FailureReason.RANK_FAILURE

    def test_recover_rank_requires_enable_recovery(self, block_problem_small):
        system = _system(block_problem_small)
        assert not system.can_recover
        with pytest.raises(RuntimeError, match="enable_recovery"):
            system.recover_rank(0)

    def test_diagonal_precond_recovery(self, block_problem_small):
        """Recovery of a factor with no symbolic phase (diagonal scaling):
        the revived rank's set-up calls the factory again."""
        fac = lambda sub, nodes: DiagonalScaling(sub)  # noqa: E731
        ref = parallel_cg(_system(block_problem_small, factory=fac))
        system = _system(block_problem_small, factory=fac)
        system.enable_recovery()
        system.comm.inject_kill(1, at_exchange=5)
        res = parallel_cg(system, checkpoint_interval=4)
        assert res.converged
        assert np.array_equal(res.x, ref.x)


# ----------------------------------------------------------------------
# durable ALM restart
# ----------------------------------------------------------------------


class _Kill(Exception):
    pass


@pytest.fixture(scope="module")
def free_system(block_mesh_small):
    """Penalty-free stiffness for the nonlinear loop (it adds its own)."""
    mesh = block_mesh_small
    k = assemble_stiffness(mesh)
    f = surface_load(mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -1.0]))
    fixed = np.unique(
        np.concatenate(
            [
                all_dofs(mesh.node_sets["zmin"]),
                component_dofs(mesh.node_sets["xmin"], 0),
                component_dofs(mesh.node_sets["ymin"], 1),
            ]
        )
    )
    a_free, b = apply_dirichlet(k.to_csr(), f, fixed)
    return mesh, a_free, b


class TestDurableAlmRestart:
    def _solve(self, free_system, **kw):
        mesh, a_free, b = free_system
        return solve_nonlinear_contact(
            a_free,
            b,
            mesh.contact_groups,
            mesh.n_nodes,
            1e4,
            lambda a: bic(a, fill_level=0),
            max_cycles=30,
            **kw,
        )

    def test_kill_and_resume_bit_exact(self, free_system, tmp_path):
        ref = self._solve(free_system)
        ck = tmp_path / "alm.ckpt"

        def killer(cycle, info):
            assert {"penalty", "gap_norm", "cg_iterations"} <= info.keys()
            if cycle == 1:
                raise _Kill

        with pytest.raises(_Kill):
            self._solve(free_system, checkpoint_path=ck, cycle_callback=killer)
        assert ck.exists()
        res = self._solve(free_system, checkpoint_path=ck)
        assert res.converged == ref.converged
        assert res.cycles == ref.cycles
        assert res.resumed_from_cycle == 1
        assert np.array_equal(res.u, ref.u)
        assert res.penalty_trail == ref.penalty_trail
        # resumed report keeps the journaled pre-kill trail
        assert any(e.kind == "info" and "resum" in e.detail for e in res.report.events)

    def test_resume_of_finished_run_is_idempotent(self, free_system, tmp_path):
        ck = tmp_path / "alm.ckpt"
        ref = self._solve(free_system, checkpoint_path=ck)
        again = self._solve(free_system, checkpoint_path=ck)
        assert again.converged and again.cycles == ref.cycles
        assert np.array_equal(again.u, ref.u)

    def test_corrupt_journal_refused(self, free_system, tmp_path):
        ck = tmp_path / "alm.ckpt"
        self._solve(free_system, checkpoint_path=ck)
        raw = bytearray(ck.read_bytes())
        raw[-3] ^= 0xFF
        ck.write_bytes(bytes(raw))
        with pytest.raises(JournalError, match="checksum"):
            self._solve(free_system, checkpoint_path=ck)

    def test_changed_inputs_refused(self, free_system, tmp_path):
        mesh, a_free, b = free_system
        ck = tmp_path / "alm.ckpt"
        self._solve(free_system, checkpoint_path=ck)
        with pytest.raises(JournalError, match="different run"):
            solve_nonlinear_contact(
                a_free,
                b * 2.0,  # different load -> different fingerprint
                mesh.contact_groups,
                mesh.n_nodes,
                1e4,
                lambda a: bic(a, fill_level=0),
                max_cycles=30,
                checkpoint_path=ck,
            )


# ----------------------------------------------------------------------
# satellites: SolveReport JSON round trip, repr normalization
# ----------------------------------------------------------------------


class TestReportJsonRoundTrip:
    def test_round_trip(self):
        rep = SolveReport()
        rep.record("detect", "parallel_cg", FailureReason.RANK_FAILURE,
                   iteration=5, detail="rank 1 unresponsive", rank=np.int64(1))
        rep.record("recover", "parallel_cg", iteration=4, detail="rolled back")
        got = SolveReport.from_json(rep.to_json())
        assert len(got.events) == 2
        assert got.events[0].reason is FailureReason.RANK_FAILURE
        assert got.events[0].iteration == 5
        assert got.events[0].data["rank"] == 1
        assert got.events[1].reason is None
        assert got.to_json() == rep.to_json()

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            SolveReport.from_json("{}")

    def test_event_dict_round_trip(self):
        e = SolveEvent(kind="detect", stage="s", reason=FailureReason.CONVERGED)
        assert SolveEvent.from_dict(e.to_dict()).reason is FailureReason.CONVERGED


class TestConvergedReason:
    def test_parallel_cg_converged_reason(self, block_problem_small):
        res = parallel_cg(_system(block_problem_small))
        assert res.converged
        assert res.reason is FailureReason.CONVERGED
        assert "None" not in repr(res)
