import numpy as np
import pytest

from repro.fem.generators import simple_block_model
from repro.fem.model import build_contact_problem
from repro.io import read_local_data, write_local_data
from repro.parallel import LockstepComm, partition_nodes_rcb
from repro.parallel.partition import build_domains


class TestDistIO:
    def test_roundtrip_domains(self, tmp_path):
        mesh = simple_block_model(3, 3, 2, 3, 3)
        prob = build_contact_problem(mesh, penalty=1e4)
        part = partition_nodes_rcb(mesh.coords, 4)
        domains = build_domains(prob.a, part)
        write_local_data(domains, tmp_path)
        back = read_local_data(tmp_path)
        assert len(back) == 4
        for d0, d1 in zip(domains, back):
            assert d0.rank == d1.rank
            assert np.array_equal(d0.internal_nodes, d1.internal_nodes)
            assert np.array_equal(d0.external_nodes, d1.external_nodes)
            assert np.allclose((d0.a_local - d1.a_local).data if (d0.a_local - d1.a_local).nnz else 0.0, 0.0)
            assert set(d0.recv_tables) == set(d1.recv_tables)
            for k in d0.recv_tables:
                assert np.array_equal(d0.recv_tables[k], d1.recv_tables[k])

    def test_reloaded_domains_exchange_correctly(self, tmp_path):
        mesh = simple_block_model(3, 3, 2, 3, 3)
        prob = build_contact_problem(mesh, penalty=1e4)
        part = partition_nodes_rcb(mesh.coords, 3)
        domains = build_domains(prob.a, part)
        write_local_data(domains, tmp_path)
        back = read_local_data(tmp_path)
        comm = LockstepComm(back)
        rng = np.random.default_rng(0)
        x = rng.normal(size=prob.ndof)
        vectors = []
        for dom in back:
            v = np.zeros(dom.n_local * 3)
            rows = (dom.internal_nodes[:, None] * 3 + np.arange(3)).reshape(-1)
            v[: dom.n_internal * 3] = x[rows]
            vectors.append(v)
        comm.exchange_external(vectors)
        for dom, v in zip(back, vectors):
            ext_rows = (dom.external_nodes[:, None] * 3 + np.arange(3)).reshape(-1)
            assert np.allclose(v[dom.n_internal * 3 :], x[ext_rows])

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_local_data(tmp_path / "nope")
