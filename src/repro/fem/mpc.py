"""Multiple point constraints by exact elimination (master-slave).

GeoFEM applies MPC conditions either through the penalty method (the
paper's experiments, ``repro.fem.contact``) or the augmented Lagrange
method (``repro.fem.nonlinear``).  This module adds the third classical
treatment as a cross-check: *exact elimination*.  Every contact group's
nodes are replaced by their first (master) node via the transformation
``u = T u_hat``, and the reduced system ``T^T A T u_hat = T^T b`` is
solved — no penalty parameter, no ill-conditioning, but also no
opportunity for selective blocking (the paper's approach exists exactly
because elimination does not parallelize/vectorize as well).

The tests use it as the ground truth the penalty solutions must approach
as lambda grows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.utils.validate import check_contact_groups, check_square_csr


def master_map(groups: list[np.ndarray], n_nodes: int) -> np.ndarray:
    """Master node per node: group members map to the group's first node."""
    groups = check_contact_groups(groups, n_nodes)
    master = np.arange(n_nodes, dtype=np.int64)
    for g in groups:
        master[g] = g[0]
    return master


def tied_contact_transformation(
    groups: list[np.ndarray], n_nodes: int, b: int = 3
) -> sp.csr_matrix:
    """Prolongation ``T``: full DOFs from master DOFs.

    ``T`` has shape ``(n_nodes * b, n_masters * b)``; slave DOFs copy
    their master's value, free DOFs map to themselves.
    """
    master = master_map(groups, n_nodes)
    masters = np.unique(master)
    col_of = np.full(n_nodes, -1, dtype=np.int64)
    col_of[masters] = np.arange(masters.size)
    rows = (np.arange(n_nodes)[:, None] * b + np.arange(b)).reshape(-1)
    cols = (col_of[master][:, None] * b + np.arange(b)).reshape(-1)
    return sp.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(n_nodes * b, masters.size * b)
    )


def reduce_system(
    a, b_vec: np.ndarray, groups: list[np.ndarray], n_nodes: int, b: int = 3
):
    """Exactly eliminated system ``(T^T A T, T^T b)`` plus ``T``.

    Solve the reduced system with any solver, then expand with
    ``u = T @ u_hat``.
    """
    a = check_square_csr(a)
    if a.shape[0] != n_nodes * b:
        raise ValueError(f"matrix dimension {a.shape[0]} != {n_nodes} nodes x {b}")
    t = tied_contact_transformation(groups, n_nodes, b=b)
    a_red = check_square_csr(t.T @ a @ t)
    return a_red, t.T @ np.asarray(b_vec, dtype=np.float64), t


def solve_tied_exact(
    a, b_vec: np.ndarray, groups: list[np.ndarray], n_nodes: int, b: int = 3
) -> np.ndarray:
    """Direct reference solution of the exactly tied problem."""
    import scipy.sparse.linalg as spla

    a_red, b_red, t = reduce_system(a, b_vec, groups, n_nodes, b=b)
    return t @ spla.spsolve(a_red.tocsc(), b_red)
