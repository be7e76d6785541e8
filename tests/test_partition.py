import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.workloads import block_problem
from repro.fem.generators import box_mesh
from repro.fem.model import build_contact_problem
from repro.parallel import contact_aware_partition
from repro.parallel.partition import LocalDomain, build_domains, partition_nodes_rcb
from repro.utils.validate import check_square_csr


@pytest.fixture(scope="module")
def box_problem():
    return build_contact_problem(box_mesh(4, 4, 4))


def reference_build_domains(a, node_domain, b=3):
    """The COO formulation of :func:`build_domains`: node adjacency from
    the whole matrix's triplets, each ``a_local`` rebuilt COO -> CSR with
    duplicates summed.  The row-gather implementation must reproduce it
    array for array."""
    a = check_square_csr(a)
    n_nodes = a.shape[0] // b
    node_domain = np.asarray(node_domain, dtype=np.int64)
    coo = a.tocoo()
    ni, nj = coo.row // b, coo.col // b
    domains = []
    for d in range(int(node_domain.max()) + 1):
        internal = np.flatnonzero(node_domain == d).astype(np.int64)
        mine = node_domain[ni] == d
        ext = np.unique(nj[mine & (node_domain[nj] != d)])
        glob2loc = np.full(n_nodes, -1, dtype=np.int64)
        glob2loc[internal] = np.arange(internal.size)
        glob2loc[ext] = internal.size + np.arange(ext.size)
        rows_dof = (internal[:, None] * b + np.arange(b)).reshape(-1)
        subc = a[rows_dof].tocoo()
        local_cols = glob2loc[subc.col // b] * b + subc.col % b
        nloc = internal.size + ext.size
        a_local = sp.csr_matrix(
            (subc.data, (subc.row, local_cols)), shape=(rows_dof.size, nloc * b)
        )
        a_local.sum_duplicates()
        a_local.sort_indices()
        recv = {
            int(owner): glob2loc[ext[node_domain[ext] == owner]]
            for owner in np.unique(node_domain[ext])
        }
        domains.append(LocalDomain(d, internal, ext, a_local, recv_tables=recv, b=b))
    for d, dom in enumerate(domains):
        for owner, ext_local in dom.recv_tables.items():
            glob = dom.external_nodes[ext_local - dom.n_internal]
            loc = np.searchsorted(domains[owner].internal_nodes, glob)
            domains[owner].send_tables[d] = loc.astype(np.int64)
    return domains


def _same_array(x, y):
    return x.dtype == y.dtype and np.array_equal(x, y)


def _assert_domains_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.a_local.shape == w.a_local.shape
        for attr in ("indptr", "indices", "data"):
            assert _same_array(getattr(g.a_local, attr), getattr(w.a_local, attr)), attr
        # node ids: the same values (the reference's external ids keep
        # the matrix's int32 index type, the row gather's are int64)
        assert np.array_equal(g.internal_nodes, w.internal_nodes)
        assert np.array_equal(g.external_nodes, w.external_nodes)
        for tables in ("send_tables", "recv_tables"):
            gt, wt = getattr(g, tables), getattr(w, tables)
            assert list(gt) == list(wt)
            assert all(_same_array(gt[k], wt[k]) for k in wt)


class TestRowGatherParity:
    """``build_domains`` (row gather + column renumbering) against the
    COO reference, on the partitions the solver is run with."""

    @pytest.mark.parametrize("ndomains", [1, 2, 4])
    @pytest.mark.parametrize("partitioner", ["rcb", "contact_aware"])
    def test_matches_reference(self, block_problem_small, partitioner, ndomains):
        p = block_problem_small
        if partitioner == "rcb":
            part = partition_nodes_rcb(p.mesh.coords, ndomains)
        else:
            part = contact_aware_partition(p.mesh.coords, p.groups, ndomains)
        _assert_domains_identical(
            build_domains(p.a, part), reference_build_domains(p.a, part)
        )

    def test_duplicate_entries_are_summed(self, block_problem_small):
        """A matrix given with duplicate triplets cuts into the same
        domains as its summed form."""
        p = block_problem_small
        part = partition_nodes_rcb(p.mesh.coords, 2)
        # every stored entry twice, each copy carrying half its value
        doubled = sp.csr_matrix(
            (np.repeat(p.a.data / 2, 2), np.repeat(p.a.indices, 2), 2 * p.a.indptr),
            shape=p.a.shape,
        )
        assert not doubled.has_canonical_format
        got = build_domains(doubled, part)
        _assert_domains_identical(got, reference_build_domains(p.a, part))


class TestBoundaryRowSort:
    """Only the rows that reference an external node are sorted after the
    renumbering; every ``a_local`` is byte for byte what scipy's
    ``sort_indices`` of the whole matrix gives."""

    @pytest.mark.parametrize("case", ["rcb4-small", "block1.5-contact2"])
    def test_matches_a_full_sort(self, case, monkeypatch):
        from scipy.sparse import _sparsetools

        from repro.fem.generators import simple_block_model
        from repro.parallel import partition

        if case == "rcb4-small":
            mesh = simple_block_model(3, 3, 2, 3, 3)
            a, part = build_contact_problem(mesh, penalty=1e4).a, partition_nodes_rcb(mesh.coords, 4)
        else:
            p = block_problem(1.5)
            a, part = p.a, contact_aware_partition(p.mesh.coords, p.groups, 2)
        got = build_domains(a, part)
        unsorted = []

        def full_sort(indptr, indices, data, rows):
            n_rows = indptr.size - 1
            unsorted.append(not _sparsetools.csr_has_sorted_indices(n_rows, indptr, indices))
            _sparsetools.csr_sort_indices(n_rows, indptr, indices, data)

        monkeypatch.setattr(partition, "_sort_rows", full_sort)
        want = build_domains(a, part)
        assert all(unsorted)  # every domain had rows to sort
        for g, w in zip(got, want):
            assert g.a_local.has_sorted_indices
            for attr in ("indptr", "indices", "data"):
                x, y = getattr(g.a_local, attr), getattr(w.a_local, attr)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr


class TestRCB:
    def test_partition_complete_and_balanced(self):
        rng = np.random.default_rng(0)
        coords = rng.normal(size=(100, 3))
        part = partition_nodes_rcb(coords, 4)
        counts = np.bincount(part)
        assert counts.sum() == 100
        assert counts.min() >= 20

    def test_non_power_of_two(self):
        coords = np.random.default_rng(1).normal(size=(90, 3))
        part = partition_nodes_rcb(coords, 3)
        counts = np.bincount(part)
        assert counts.size == 3 and counts.min() >= 25

    def test_single_domain(self):
        coords = np.zeros((5, 3))
        assert np.all(partition_nodes_rcb(coords, 1) == 0)

    def test_weights_respected(self):
        coords = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
        w = np.ones(10)
        w[0] = 9.0  # heavy point
        part = partition_nodes_rcb(coords, 2, weights=w)
        counts = np.bincount(part)
        # the heavy point's side should carry fewer points
        heavy_side = part[0]
        assert counts[heavy_side] < counts[1 - heavy_side]

    def test_too_many_domains_rejected(self):
        with pytest.raises(ValueError):
            partition_nodes_rcb(np.zeros((3, 3)), 4)

    def test_geometric_locality(self):
        """RCB on a line splits it into contiguous intervals."""
        coords = np.stack([np.arange(16.0), np.zeros(16), np.zeros(16)], axis=1)
        part = partition_nodes_rcb(coords, 4)
        for d in range(4):
            idx = np.flatnonzero(part == d)
            assert idx.max() - idx.min() == idx.size - 1


class TestBuildDomains:
    def test_internal_nodes_partition(self, box_problem):
        part = partition_nodes_rcb(box_problem.mesh.coords, 4)
        domains = build_domains(box_problem.a, part)
        allnodes = np.sort(np.concatenate([d.internal_nodes for d in domains]))
        assert np.array_equal(allnodes, np.arange(box_problem.mesh.n_nodes))

    def test_external_nodes_are_matrix_neighbors(self, box_problem):
        part = partition_nodes_rcb(box_problem.mesh.coords, 4)
        domains = build_domains(box_problem.a, part)
        adj = box_problem.a_bcsr.node_adjacency()
        for dom in domains:
            mask = np.zeros(box_problem.mesh.n_nodes, dtype=bool)
            mask[dom.internal_nodes] = True
            for e in dom.external_nodes:
                nbrs = adj.indices[adj.indptr[e] : adj.indptr[e + 1]]
                assert mask[nbrs].any()
                assert not mask[e]

    def test_comm_tables_are_mirrored(self, box_problem):
        part = partition_nodes_rcb(box_problem.mesh.coords, 4)
        domains = build_domains(box_problem.a, part)
        for d, dom in enumerate(domains):
            for owner, recv in dom.recv_tables.items():
                send = domains[owner].send_tables[d]
                assert send.size == recv.size
                # the sent nodes (global ids) match the received ones
                sent_glob = domains[owner].internal_nodes[send]
                recv_glob = dom.external_nodes[recv - dom.n_internal]
                assert np.array_equal(sent_glob, recv_glob)

    def test_local_matvec_equals_global(self, box_problem):
        """Distributed matvec with exchanged externals == global matvec."""
        part = partition_nodes_rcb(box_problem.mesh.coords, 3)
        domains = build_domains(box_problem.a, part)
        ndof = box_problem.ndof
        rng = np.random.default_rng(2)
        x = rng.normal(size=ndof)
        y_ref = box_problem.a @ x
        for dom in domains:
            loc = np.concatenate([dom.internal_nodes, dom.external_nodes])
            xloc = x[(loc[:, None] * 3 + np.arange(3)).reshape(-1)]
            yloc = dom.a_local @ xloc
            rows = (dom.internal_nodes[:, None] * 3 + np.arange(3)).reshape(-1)
            assert np.allclose(yloc, y_ref[rows])

    def test_empty_domain_rejected(self, box_problem):
        part = np.zeros(box_problem.mesh.n_nodes, dtype=int)
        part[0] = 2  # domain 1 empty
        with pytest.raises(ValueError, match="empty"):
            build_domains(box_problem.a, part)

    def test_list_partition_cuts_like_the_array(self, box_problem):
        part = partition_nodes_rcb(box_problem.mesh.coords, 4)
        _assert_domains_identical(
            build_domains(box_problem.a, part.tolist()), build_domains(box_problem.a, part)
        )

    @pytest.mark.parametrize("empty", [[], np.array([], dtype=np.int64)])
    def test_empty_partition_names_the_mismatch(self, box_problem, empty):
        n = box_problem.mesh.n_nodes
        with pytest.raises(ValueError, match=f"0 domain ids for {n} nodes"):
            build_domains(box_problem.a, empty)

    def test_cut_through_a_given_allocator(self, box_problem):
        """The node ids and the local matrices live in what *alloc*
        handed out (the process transport's shared arena), and the cut
        is the one ``np.empty`` gives."""
        part = partition_nodes_rcb(box_problem.mesh.coords, 3)
        handed = []

        def alloc(n, dtype):
            handed.append(np.empty(n, dtype))
            return handed[-1]

        got = build_domains(box_problem.a, part, alloc=alloc)
        _assert_domains_identical(got, build_domains(box_problem.a, part))
        for dom in got:
            for arr in (dom.internal_nodes, dom.a_local.data, dom.a_local.indices, dom.a_local.indptr):
                assert any(np.shares_memory(arr, h) for h in handed)

    def test_boundary_nodes_subset_of_internal(self, box_problem):
        part = partition_nodes_rcb(box_problem.mesh.coords, 4)
        domains = build_domains(box_problem.a, part)
        for dom in domains:
            # the boundary nodes (Fig. 3) are what the send tables list
            for bn in dom.send_tables.values():
                assert bn.size == 0 or bn.max() < dom.n_internal


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), ndom=st.integers(1, 6))
def test_property_rcb_covers_everything(seed, ndom):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(ndom, 60))
    coords = rng.normal(size=(n, 3))
    part = partition_nodes_rcb(coords, ndom)
    assert part.size == n
    assert set(np.unique(part)) == set(range(ndom))


@pytest.mark.parametrize("ndomains, bound", [(2, 1.52), (4, 1.52)])
def test_build_domains_peaks_near_what_it_returns(ndomains, bound):
    """Each domain's columns are renumbered in place, a run of entries
    at a time, so the cut peaks at most *bound* (measured + 10 %) times
    the local matrices it returns (block 1.0; at block 1.5 on 2 domains
    1.1 times the 9.9 MB, 1.7 times with int64 renumbering temporaries
    of the domain's size)."""
    p = block_problem(1.0)
    part = partition_nodes_rcb(p.mesh.coords, ndomains)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        domains = build_domains(p.a, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(
        d.a_local.data.nbytes + d.a_local.indices.nbytes + d.a_local.indptr.nbytes
        for d in domains
    )
    assert peak - start <= bound * returned
