"""Localized (domain-wise block Jacobi) preconditioning — paper section 2.2.

The ILU/IC operation is performed *locally* on each processor's domain
matrix, with couplings to other domains zeroed out — equivalent to zero
Dirichlet conditions on the domain boundary during preconditioning.  No
communication is needed, but the preconditioner weakens as the domain
count grows (Table 1); with one domain per DOF it equals diagonal
scaling.  This class reproduces exactly the algebra a distributed run
performs, so a sequential CG over it yields the iteration counts of the
paper's parallel experiments.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.precond.base import Preconditioner
from repro.sparse.patterns import csr_extract_map
from repro.utils.validate import check_index_array, check_square_csr

PrecondFactory = Callable[[sp.csr_matrix, np.ndarray], Preconditioner]


def restrict_groups(
    groups: list[np.ndarray], domain_nodes: np.ndarray, n_nodes: int
) -> list[np.ndarray]:
    """Contact groups restricted to one domain, in local node numbering.

    Group fragments that end up with a single node in the domain dissolve
    into ordinary nodes — this is precisely the information loss that
    makes the ORIGINAL (non-contact-aware) partitioning of Table 3 slow.
    """
    glob2loc = np.full(n_nodes, -1, dtype=np.int64)
    glob2loc[domain_nodes] = np.arange(domain_nodes.size)
    out = []
    for g in groups:
        local = glob2loc[g]
        local = local[local >= 0]
        if local.size >= 2:
            out.append(np.sort(local))
    return out


class LocalizedPreconditioner(Preconditioner):
    """Block-Jacobi composition of per-domain preconditioners.

    Parameters
    ----------
    a:
        Global SPD matrix (scalar CSR).
    node_domain:
        ``(n_nodes,)`` domain id per finite-element node.
    factory:
        Builds the local preconditioner from ``(local_matrix,
        domain_nodes)``; ``domain_nodes`` are global node ids in local
        order, letting the factory restrict contact groups etc.  Nodes
        carry 3 DOFs.
    """

    name = "localized"

    def __init__(self, a, node_domain: np.ndarray, factory: PrecondFactory) -> None:
        t0 = time.perf_counter()
        a = check_square_csr(a)
        n_nodes = a.shape[0] // 3
        node_domain = check_index_array(
            np.asarray(node_domain), int(node_domain.max()) + 1, "node_domain"
        )
        if node_domain.size != n_nodes:
            raise ValueError(
                f"node_domain has {node_domain.size} entries for {n_nodes} nodes"
            )
        self.ndomains = int(node_domain.max()) + 1
        self._locals: list[Preconditioner] = []
        self._dofs: list[np.ndarray] = []
        for d in range(self.ndomains):
            nodes = np.flatnonzero(node_domain == d).astype(np.int64)
            if nodes.size == 0:
                raise ValueError(f"domain {d} is empty")
            dofs = (nodes[:, None] * 3 + np.arange(3)).reshape(-1)
            sub, _ = csr_extract_map(a, dofs)
            self._dofs.append(dofs)
            self._locals.append(factory(sub, nodes))
        self.setup_seconds = time.perf_counter() - t0

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for dofs, m in zip(self._dofs, self._locals):
            z[dofs] = m.apply(r[dofs])
        return z

    def memory_bytes(self) -> int:
        return sum(m.memory_bytes() for m in self._locals)
