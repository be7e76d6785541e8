import numpy as np
import pytest

from repro.parallel import (
    DistributedSystem,
    LockstepComm,
    contact_aware_partition,
    parallel_cg,
    partition_nodes_rcb,
)
from repro.parallel.contact_partition import partition_quality
from repro.parallel.partition import build_domains
from repro.precond import LocalizedPreconditioner, bic, sb_bic0
from repro.precond.localized import restrict_groups
from repro.resilience import RankFailure
from repro.solvers.cg import cg_solve


class TestContactAwarePartition:
    def test_groups_never_cut(self, block_mesh_small):
        part = contact_aware_partition(
            block_mesh_small.coords, block_mesh_small.contact_groups, 4
        )
        q = partition_quality(part, block_mesh_small.contact_groups)
        assert q["cut_groups"] == 0

    def test_load_balanced(self, block_mesh_small):
        part = contact_aware_partition(
            block_mesh_small.coords, block_mesh_small.contact_groups, 4
        )
        q = partition_quality(part, block_mesh_small.contact_groups)
        assert q["imbalance_percent"] < 10.0

    def test_rcb_cuts_groups(self, block_mesh_small):
        """The naive partitioner must cut groups (that's Table 3's point)."""
        part = partition_nodes_rcb(block_mesh_small.coords, 4)
        q = partition_quality(part, block_mesh_small.contact_groups)
        assert q["cut_groups"] > 0

    def test_all_domains_populated(self, swj_mesh_small):
        part = contact_aware_partition(
            swj_mesh_small.coords, swj_mesh_small.contact_groups, 6
        )
        assert np.bincount(part).min() > 0


class TestLockstepComm:
    def test_exchange_moves_boundary_values(self, block_problem_small):
        mesh = block_problem_small.mesh
        part = partition_nodes_rcb(mesh.coords, 3)
        domains = build_domains(block_problem_small.a, part)
        comm = LockstepComm(domains)
        rng = np.random.default_rng(0)
        x = rng.normal(size=block_problem_small.ndof)
        vectors = []
        for dom in domains:
            v = np.zeros(dom.n_local * 3)
            rows = (dom.internal_nodes[:, None] * 3 + np.arange(3)).reshape(-1)
            v[: dom.n_internal * 3] = x[rows]
            vectors.append(v)
        comm.exchange_external(vectors)
        for dom, v in zip(domains, vectors):
            ext_rows = (dom.external_nodes[:, None] * 3 + np.arange(3)).reshape(-1)
            assert np.allclose(v[dom.n_internal * 3 :], x[ext_rows])

    def test_comm_log_counts(self, block_problem_small):
        part = partition_nodes_rcb(block_problem_small.mesh.coords, 2)
        domains = build_domains(block_problem_small.a, part)
        comm = LockstepComm(domains)
        vectors = [np.zeros(d.n_local * 3) for d in domains]
        comm.exchange_external(vectors)
        assert comm.log.n_messages == 2  # one each way
        assert comm.log.bytes_sent > 0
        comm.allreduce_sum_vec([np.array([1.0]), np.array([2.0])])
        assert comm.log.n_allreduce == 1

    def test_killed_rank_fails_every_collective_until_revived(
        self, block_problem_small
    ):
        part = partition_nodes_rcb(block_problem_small.mesh.coords, 2)
        comm = LockstepComm(build_domains(block_problem_small.a, part))
        assert comm.start(lambda rank, state, dom, factory: rank, None) == [0, 1]
        comm.inject_kill(1, at_exchange=1)
        vectors = [np.ones(d.n_local * 3) for d in comm.domains]
        comm.exchange_external(vectors)  # exchange 0: before the kill
        with pytest.raises(RankFailure, match="rank 1"):
            comm.exchange_external(vectors)
        assert np.isnan(vectors[1]).all()  # its memory died with it
        assert comm.kills == [{"rank": 1, "exchange": 1}]
        with pytest.raises(RankFailure):
            comm.allreduce_sum_vec([np.array([1.0]), np.array([2.0])])
        with pytest.raises(RankFailure):
            comm.run(lambda rank, state: rank)
        assert comm.revive(1) == 1  # its set-up ran again
        assert comm.revivals == [{"rank": 1, "exchange": 2}]
        assert comm.allreduce_sum_vec([np.array([1.0]), np.array([2.0])]).tolist() == [3.0]
        # the killed exchange is not in the census
        assert (comm.log.n_messages, comm.log.n_allreduce) == (2, 1)

    def test_allreduce_sum(self, block_problem_small):
        part = partition_nodes_rcb(block_problem_small.mesh.coords, 2)
        comm = LockstepComm(build_domains(block_problem_small.a, part))
        assert comm.allreduce_sum_vec([np.array([1.5]), np.array([2.5])]).tolist() == [4.0]

    def test_wrong_vector_count_rejected(self, block_problem_small):
        part = partition_nodes_rcb(block_problem_small.mesh.coords, 2)
        comm = LockstepComm(build_domains(block_problem_small.a, part))
        with pytest.raises(ValueError):
            comm.exchange_external([np.zeros(3)])

    @staticmethod
    def _make_domain(rank, internal, external, send, recv):
        import scipy.sparse as sp

        from repro.parallel.partition import LocalDomain

        internal = np.asarray(internal, dtype=np.int64)
        external = np.asarray(external, dtype=np.int64)
        nloc = internal.size + external.size
        return LocalDomain(
            rank=rank,
            internal_nodes=internal,
            external_nodes=external,
            a_local=sp.csr_matrix((internal.size * 3, nloc * 3)),
            send_tables={k: np.asarray(v, dtype=np.int64) for k, v in send.items()},
            recv_tables={k: np.asarray(v, dtype=np.int64) for k, v in recv.items()},
        )

    def _domains_with_isolated_rank(self):
        # dom0 <-> dom1 share one node each way; dom2 has no neighbors
        d0 = self._make_domain(0, [0, 1], [2], {1: [0]}, {1: [2]})
        d1 = self._make_domain(1, [2, 3], [0], {0: [0]}, {0: [2]})
        d2 = self._make_domain(2, [4], [], {}, {})
        return [d0, d1, d2]

    def test_isolated_rank_exchange_and_mismatch(self):
        comm = LockstepComm(self._domains_with_isolated_rank())
        v0 = np.arange(9, dtype=np.float64)
        v1 = 10.0 + np.arange(9)
        v2 = np.array([100.0, 101.0, 102.0])
        vectors = [v0, v1, v2]
        comm.exchange_external(vectors)
        # ghosts now equal the owners' boundary values
        assert np.array_equal(v0[6:9], v1[0:3])
        assert np.array_equal(v1[6:9], v0[0:3])
        # the isolated rank is untouched and contributes no mismatch
        assert np.array_equal(v2, [100.0, 101.0, 102.0])
        assert comm.halo_mismatch(vectors) == 0.0
        assert comm.log.n_messages == 2
        assert comm.log.bytes_sent == 48  # 2 messages x 3 DOF x 8 bytes

    def test_isolated_rank_mismatch_detects_staleness(self):
        comm = LockstepComm(self._domains_with_isolated_rank())
        vectors = [np.zeros(9), np.zeros(9), np.zeros(3)]
        comm.exchange_external(vectors)
        vectors[0][6] += 0.5  # stale ghost on dom0
        assert comm.halo_mismatch(vectors) == pytest.approx(0.5)

    def test_zero_length_send_tables(self):
        # tables exist but carry no nodes: the exchange must be a clean
        # no-op (zero-byte messages, no indexing error), and the
        # mismatch probe must cope with empty halos
        d0 = self._make_domain(0, [0], [], {1: []}, {1: []})
        d1 = self._make_domain(1, [1], [], {0: []}, {0: []})
        comm = LockstepComm([d0, d1])
        vectors = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])]
        before = [v.copy() for v in vectors]
        comm.exchange_external(vectors)
        assert np.array_equal(vectors[0], before[0])
        assert np.array_equal(vectors[1], before[1])
        assert comm.log.n_messages == 2
        assert comm.log.bytes_sent == 0
        assert comm.halo_mismatch(vectors) == 0.0


class TestParallelCG:
    def test_matches_sequential_localized(self, block_problem_small):
        """The lockstep distributed CG must agree with the sequential CG
        preconditioned by the equivalent LocalizedPreconditioner."""
        p = block_problem_small
        part = contact_aware_partition(p.mesh.coords, p.groups, 4)

        def factory(sub, nodes):
            return sb_bic0(sub, restrict_groups(p.groups, nodes, p.mesh.n_nodes))

        system = DistributedSystem.from_global(p.a, p.b, part, factory)
        res_par = parallel_cg(system)

        lp = LocalizedPreconditioner(p.a, part, factory)
        res_seq = cg_solve(p.a, p.b, lp)

        assert res_par.converged and res_seq.converged
        assert abs(res_par.iterations - res_seq.iterations) <= 1
        assert np.allclose(res_par.x, res_seq.x, atol=1e-6)

    def test_solution_correct(self, block_problem_small, block_reference):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 3)
        system = DistributedSystem.from_global(
            p.a, p.b, part, lambda sub, nodes: bic(sub, fill_level=0)
        )
        res = parallel_cg(system)
        assert res.converged
        err = np.linalg.norm(res.x - block_reference) / np.linalg.norm(block_reference)
        assert err < 1e-6

    def test_comm_volume_recorded(self, block_problem_small):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 4)
        system = DistributedSystem.from_global(
            p.a, p.b, part, lambda sub, nodes: bic(sub, fill_level=0)
        )
        res = parallel_cg(system)
        log = system.comm_log
        # one exchange per matvec (= iterations), one message per edge
        edges = [len(dom.recv_tables) for dom in system.domains]
        assert log.n_messages == res.iterations * sum(edges) > 0
        assert log.max_neighbor_count == max(edges)
        assert log.n_allreduce >= 2 * res.iterations

    def test_fused_allreduce_count(self, block_problem_small):
        """r.r and r.z ride one vector allreduce: 2 per iteration (p.q +
        the fused pair) plus the single initial fused reduction."""
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 4)
        system = DistributedSystem.from_global(
            p.a, p.b, part, lambda sub, nodes: bic(sub, fill_level=0)
        )
        res = parallel_cg(system)
        assert res.converged
        assert system.comm_log.n_allreduce == 2 * res.iterations + 1

    def test_fused_allreduce_matches_sequential_iterates(self, block_problem_small):
        """The fused-reduction CG must track the sequential localized CG
        residual history iterate for iterate, not just at convergence."""
        p = block_problem_small
        part = contact_aware_partition(p.mesh.coords, p.groups, 4)

        def factory(sub, nodes):
            return sb_bic0(sub, restrict_groups(p.groups, nodes, p.mesh.n_nodes))

        system = DistributedSystem.from_global(p.a, p.b, part, factory)
        res_par = parallel_cg(system)
        lp = LocalizedPreconditioner(p.a, part, factory)
        res_seq = cg_solve(p.a, p.b, lp)
        k = min(res_par.history.size, res_seq.history.size)
        assert k >= res_par.iterations  # same iteration count up to the tail
        assert np.allclose(res_par.history[:k], res_seq.history[:k], rtol=1e-6)

    def test_iterations_grow_with_domains(self, block_problem_stiff):
        """Localization weakens the preconditioner (Table 1 behaviour)."""
        p = block_problem_stiff
        iters = []
        for nd in (1, 8):
            if nd == 1:
                m = bic(p.a, fill_level=0)
                iters.append(cg_solve(p.a, p.b, m, max_iter=20000).iterations)
            else:
                part = partition_nodes_rcb(p.mesh.coords, nd)
                system = DistributedSystem.from_global(
                    p.a, p.b, part, lambda sub, nodes: bic(sub, fill_level=0)
                )
                iters.append(parallel_cg(system, max_iter=20000).iterations)
        assert iters[1] >= iters[0]

    def test_zero_rhs(self, block_problem_small):
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 2)
        system = DistributedSystem.from_global(
            p.a, np.zeros_like(p.b), part, lambda sub, nodes: bic(sub, fill_level=0)
        )
        res = parallel_cg(system)
        assert res.converged and res.iterations == 0
