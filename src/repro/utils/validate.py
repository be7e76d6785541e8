"""Validation helpers shared by the sparse / reordering / FEM modules.

These raise ``ValueError`` with a description of what is wrong rather than
letting malformed index arrays propagate into vectorized kernels where the
failure mode would be a silent wrong answer or an opaque numpy error.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def check_index_array(a: np.ndarray, n: int, name: str = "index array") -> np.ndarray:
    """Validate that *a* is a 1-D integer array with entries in [0, n)."""
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must be integer, got dtype {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= n):
        raise ValueError(f"{name} has entries outside [0, {n})")
    return a


def check_square_csr(a: sp.spmatrix | sp.sparray, name: str = "matrix") -> sp.csr_matrix:
    """Coerce *a* to square CSR with sorted indices and no duplicates."""
    a = sp.csr_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    a.sum_duplicates()
    a.sort_indices()
    return a


def check_finite_coords(coords: np.ndarray, name: str = "mesh coordinates") -> np.ndarray:
    """Fail fast on NaN/Inf node coordinates.

    A single poisoned coordinate otherwise survives assembly (NaN element
    Jacobians average into the stiffness) and only surfaces hundreds of
    CG iterations later as a NAN_DETECTED breakdown — name the node here
    instead.
    """
    coords = np.asarray(coords, dtype=np.float64)
    bad = ~np.isfinite(coords)
    if bad.any():
        nodes = np.unique(np.nonzero(bad)[0] if coords.ndim > 1 else np.flatnonzero(bad))
        raise ValueError(
            f"{name} contain {int(bad.sum())} non-finite entries at "
            f"{nodes.size} node(s) (first: node {nodes[0]}); fix the mesh "
            "before assembly — a NaN coordinate poisons the stiffness matrix"
        )
    return coords


def check_finite_array(a: np.ndarray, name: str = "array") -> np.ndarray:
    """Fail fast on NaN/Inf entries anywhere in *a*.

    The generic sibling of :func:`check_finite_coords`, used by the serve
    protocol layer to reject poisoned right-hand sides before they reach
    the solver (where a single NaN only surfaces iterations later as a
    NAN_DETECTED breakdown).
    """
    a = np.asarray(a)
    if a.size and not np.isfinite(a).all():
        bad = np.flatnonzero(~np.isfinite(a.ravel()))
        raise ValueError(
            f"{name} contains {bad.size} non-finite entr"
            f"{'y' if bad.size == 1 else 'ies'} (first at flat index {bad[0]})"
        )
    return a


def check_contact_groups(
    groups: list[np.ndarray], n_nodes: int
) -> list[np.ndarray]:
    """Validate contact groups: in-range, >= 2 nodes, no duplicate ids.

    Catches both a node id repeated *within* one group (a degenerate
    contact pair — its penalty rows are singular and break the
    factorization much later) and a node claimed by *two* groups.
    Returns the groups coerced to int64.

    All groups are checked at once on their concatenated node ids; the
    error reported is the one a group-by-group scan would hit first
    (lowest group, then shape -> range -> size -> duplicate -> overlap).
    """
    out = [np.asarray(nodes, dtype=np.int64) for nodes in groups]
    # Groups before ``stop`` have passed every check made so far; a
    # failure found later only counts if it sits in a lower group.
    stop, error = len(out), None
    not_1d = [g for g, nodes in enumerate(out) if nodes.ndim != 1]
    if not_1d:
        stop = not_1d[0]
        error = f"contact group {stop} must be 1-D, got shape {out[stop].shape}"

    sizes = np.fromiter((nodes.size for nodes in out[:stop]), np.int64, stop)
    flat = np.concatenate(out[:stop]) if stop else np.empty(0, dtype=np.int64)
    owner = np.repeat(np.arange(stop), sizes)
    outside = owner[(flat < 0) | (flat >= n_nodes)]
    small = np.flatnonzero(sizes < 2)
    if outside.size and (not small.size or outside[0] <= small[0]):
        stop = int(outside[0])
        error = f"contact group {stop} has entries outside [0, {n_nodes})"
    elif small.size:
        stop = int(small[0])
        error = f"contact group {stop} has fewer than 2 nodes"

    flat, owner = flat[owner < stop], owner[owner < stop]
    if flat.size and np.bincount(flat, minlength=n_nodes).max() > 1:
        # owner is non-decreasing, so writing in reverse leaves each
        # node's lowest claimant behind
        first_owner = np.empty(n_nodes, dtype=np.int64)
        first_owner[flat[::-1]] = owner[::-1]
        key = np.sort(owner * n_nodes + flat)
        repeated = key[1:][key[1:] == key[:-1]]
        clashing = owner > first_owner[flat]
        g_dup = int(repeated[0] // n_nodes) if repeated.size else stop
        g_clash = int(owner[clashing][0]) if clashing.any() else stop
        if g_dup <= g_clash:
            dup = np.unique(repeated[repeated // n_nodes == g_dup] % n_nodes)
            error = (
                f"contact group {g_dup} lists node id(s) {dup.tolist()} more "
                "than once — a degenerate contact pair; deduplicate the "
                "pairing before assembly"
            )
        else:
            clash = np.unique(flat[clashing & (owner == g_clash)])
            error = (
                f"contact group {g_clash} overlaps group {first_owner[clash[0]]} "
                f"at node id(s) {clash.tolist()}"
            )
    if error is not None:
        raise ValueError(error)
    return out


def check_symmetric(a: sp.spmatrix | sp.sparray, tol: float = 1e-10, name: str = "matrix") -> None:
    """Raise if *a* is not numerically symmetric to relative tolerance *tol*."""
    a = sp.csr_matrix(a)
    d = a - a.T
    scale = max(abs(a.data).max() if a.nnz else 0.0, 1.0)
    if d.nnz and abs(d.data).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric (max asymmetry {abs(d.data).max():.3e})")
