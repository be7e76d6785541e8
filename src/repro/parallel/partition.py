"""Node-based domain partitioning with GeoFEM's local data structure.

Paper section 2.1 / Fig. 3: each domain owns its *internal* nodes, keeps
copies of the *external* nodes that its rows reference, and marks the
internal nodes referenced by other domains as *boundary* nodes.  The
communication tables (which boundary values to send to which neighbor,
which external slots to fill on receive) are precomputed here, exactly
like GeoFEM's partitioner output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.utils.indexing import SETUP_CHUNK, chunks
from repro.utils.validate import check_index_array, check_square_csr


def partition_nodes_rcb(
    coords: np.ndarray,
    ndomains: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Recursive coordinate bisection into ``ndomains`` parts.

    Splits along the widest axis at the weighted median; supports any
    domain count (not just powers of two) by splitting proportionally.
    Returns the domain id per point.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if ndomains < 1:
        raise ValueError(f"ndomains must be >= 1, got {ndomains}")
    if ndomains > n:
        raise ValueError(f"cannot cut {n} points into {ndomains} non-empty domains")
    if weights is None:
        weights = np.ones(n)
    out = np.empty(n, dtype=np.int64)

    def recurse(idx: np.ndarray, base: int, k: int) -> None:
        if k == 1:
            out[idx] = base
            return
        pts = coords[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        k_left = k // 2
        order = np.argsort(pts[:, axis], kind="stable")
        w = weights[idx][order]
        target = w.sum() * (k_left / k)
        cum = np.cumsum(w)
        cut = int(np.searchsorted(cum, target)) + 1
        cut = min(max(cut, 1), idx.size - 1)
        left = idx[order[:cut]]
        right = idx[order[cut:]]
        recurse(left, base, k_left)
        recurse(right, base + k_left, k - k_left)

    recurse(np.arange(n, dtype=np.int64), 0, ndomains)
    return out


@dataclass
class LocalDomain:
    """One domain's local data, GeoFEM style.

    The local numbering places the ``n_internal`` internal nodes first,
    followed by the external nodes.  ``a_local`` holds the rows of the
    internal nodes with columns in local numbering.  Communication tables
    map neighbor rank -> local node indices.
    """

    rank: int
    internal_nodes: np.ndarray  # global ids, ascending
    external_nodes: np.ndarray  # global ids, ascending
    a_local: sp.csr_matrix  # (internal DOFs) x (internal+external DOFs)
    send_tables: dict[int, np.ndarray] = field(default_factory=dict)  # local *internal* node idx
    recv_tables: dict[int, np.ndarray] = field(default_factory=dict)  # local *external* node idx
    b: int = 3

    @property
    def n_internal(self) -> int:
        return int(self.internal_nodes.size)

    @property
    def n_local(self) -> int:
        return int(self.internal_nodes.size + self.external_nodes.size)

    def local_dofs(self, local_nodes: np.ndarray) -> np.ndarray:
        return (np.asarray(local_nodes)[:, None] * self.b + np.arange(self.b)).reshape(-1)


def as_partition(node_domain, n_nodes: int) -> np.ndarray:
    """*node_domain* (any integer sequence) as an int64 array of one
    domain id per node; raises ``ValueError`` on a wrong length — an
    empty partition included — or a negative id."""
    node_domain = np.asarray(node_domain, dtype=np.int64).reshape(-1)
    if node_domain.size != n_nodes or not n_nodes:
        raise ValueError(f"{node_domain.size} domain ids for {n_nodes} nodes")
    return check_index_array(node_domain, int(node_domain.max()) + 1, "node_domain")


def _sort_rows(indptr, indices, data, rows: np.ndarray) -> None:
    """Sort, in place, the column indices (and values) of the CSR rows
    *rows* (ascending): gathered into a CSR of their own, sorted by
    scipy's kernel and written back."""
    if not rows.size:
        return
    first = indptr[rows]
    lengths = indptr[rows + 1] - first
    sub_ptr = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=sub_ptr[1:])
    src = np.repeat(first - sub_ptr[:-1], lengths)  # the rows' entries, row after row
    src += np.arange(src.size, dtype=src.dtype)
    sub_indices, sub_data = indices[src], data[src]
    _sparsetools.csr_sort_indices(rows.size, sub_ptr, sub_indices, sub_data)
    indices[src] = sub_indices
    data[src] = sub_data


def build_domains(
    a, node_domain, b: int = 3, *, alloc=np.empty
) -> list[LocalDomain]:
    """Cut the global matrix into GeoFEM local data structures.

    ``a`` is the global scalar CSR (``n_nodes * b`` square); the block
    graph of ``a`` defines node adjacency, so external nodes are exactly
    the off-domain columns referenced by a domain's rows.  Each
    ``a_local`` is a row gather of ``a`` whose column indices are
    renumbered into the local numbering (``a`` is canonicalized first, so
    duplicate entries are summed before the cut).

    ``alloc(n, dtype)`` (``np.empty``'s contract) makes each domain's
    internal node ids and the three arrays of its ``a_local``: the
    process transport passes its shared arena's, so that a rank worker
    reads its matrix as the very pages the cut wrote.
    """
    a = check_square_csr(a)
    n_nodes = a.shape[0] // b
    node_domain = as_partition(node_domain, n_nodes)
    ndomains = int(node_domain.max()) + 1
    index = a.indptr.dtype  # scipy keeps indptr and indices alike

    domains: list[LocalDomain] = []
    for d in range(ndomains):
        members = np.flatnonzero(node_domain == d)
        if members.size == 0:
            raise ValueError(f"domain {d} is empty")
        internal = alloc(members.size, np.int64)
        internal[:] = members
        rows_dof = (internal[:, None] * b + np.arange(b)).reshape(-1).astype(index)
        # my rows, global column numbering: scipy's row gather, into alloc's arrays
        indptr = alloc(rows_dof.size + 1, index)
        indptr[0] = 0
        np.cumsum(np.diff(a.indptr)[rows_dof], out=indptr[1:])
        nnz = int(indptr[-1])
        indices, data = alloc(nnz, index), alloc(nnz, a.data.dtype)
        _sparsetools.csr_row_index(
            rows_dof.size, rows_dof, a.indptr, a.indices, a.data, indices, data
        )
        # external nodes: columns of my rows owned elsewhere
        referenced = np.zeros(n_nodes * b, dtype=bool)
        referenced[indices] = True
        referenced = referenced.reshape(n_nodes, b).any(axis=1)
        referenced[internal] = False
        ext = np.flatnonzero(referenced)
        glob2loc = np.full(n_nodes, -1, dtype=np.int64)
        glob2loc[internal] = np.arange(internal.size)
        glob2loc[ext] = internal.size + np.arange(ext.size)
        # global DOF column -> local DOF column (negative: neither kind),
        # renumbered in place a run of entries at a time
        dof2loc = (glob2loc[:, None] * b + np.arange(b)).reshape(-1).astype(index)
        # A row of ``a`` is sorted and the renumbering keeps the internal
        # nodes in ascending global order, so only the rows that reference
        # an external node can come out unsorted (818 of ≈ 9 945 per rank
        # at block 1.5 on 2 domains), and only they are sorted.
        n_int_dofs = internal.size * b
        boundary = [np.empty(0, dtype=np.int64)]  # rows with an external column
        for c in chunks(nnz, max(nnz // 16, SETUP_CHUNK)):
            local_cols = dof2loc.take(indices[c])
            if local_cols.size and local_cols.min() < 0:
                raise AssertionError("row references a node that is neither internal nor external")
            indices[c] = local_cols
            at = c.start + np.flatnonzero(local_cols >= n_int_dofs)
            boundary.append(np.searchsorted(indptr, at, side="right") - 1)
        rows = np.concatenate(boundary)
        _sort_rows(indptr, indices, data, rows[np.flatnonzero(np.diff(rows, prepend=-1))])
        nloc = internal.size + ext.size
        a_local = sp.csr_matrix((data, indices, indptr), shape=(rows_dof.size, nloc * b))
        a_local.has_sorted_indices = True

        # receive tables: external nodes grouped by owner
        recv: dict[int, np.ndarray] = {}
        for owner in np.unique(node_domain[ext]):
            nodes = ext[node_domain[ext] == owner]
            recv[int(owner)] = glob2loc[nodes]  # local ext indices, ascending global order
        domains.append(
            LocalDomain(
                rank=d,
                internal_nodes=internal,
                external_nodes=ext,
                a_local=a_local,
                recv_tables=recv,
                b=b,
            )
        )

    # send tables mirror the receive tables: what d receives from e is
    # exactly what e sends to d, ordered by ascending global node id.
    for d, dom in enumerate(domains):
        for owner, ext_local in dom.recv_tables.items():
            peer = domains[owner]
            glob = dom.external_nodes[ext_local - dom.n_internal]
            loc = np.searchsorted(peer.internal_nodes, glob)
            if not np.array_equal(peer.internal_nodes[loc], glob):
                raise AssertionError("receive table references non-internal nodes of the owner")
            peer.send_tables[d] = loc.astype(np.int64)
    return domains
