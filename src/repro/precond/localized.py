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

from repro.parallel.partition import build_domains
from repro.precond.base import Preconditioner

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
        ``(n_nodes,)`` domain id per finite-element node: any integer
        sequence, checked by :func:`~repro.parallel.partition.as_partition`.
    factory:
        Builds the local preconditioner from ``(local_matrix,
        domain_nodes)``; ``domain_nodes`` are global node ids in local
        order, letting the factory restrict contact groups etc.  Nodes
        carry 3 DOFs.

    The domains are those :func:`~repro.parallel.partition.build_domains`
    cuts, and each local factor is built as a rank's set-up builds it —
    ``factory(dom.internal_block(), dom.internal_nodes)`` — so the two
    are the same factor.
    """

    name = "localized"

    def __init__(self, a, node_domain, factory: PrecondFactory) -> None:
        t0 = time.perf_counter()
        domains = build_domains(a, node_domain)
        self.ndomains = len(domains)
        self._dofs = [dom.rows_dof for dom in domains]
        self._locals = [factory(dom.internal_block(), dom.internal_nodes) for dom in domains]
        self.setup_seconds = time.perf_counter() - t0

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for dofs, m in zip(self._dofs, self._locals):
            z[dofs] = m.apply(r[dofs])
        return z

    def memory_bytes(self) -> int:
        return sum(m.memory_bytes() for m in self._locals)
