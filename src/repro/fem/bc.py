"""Boundary conditions and load vectors.

Implements the paper's standard setup (Figs. 14 and 23): symmetry
conditions (single-component Dirichlet), fixed surfaces, uniformly
distributed surface loads, and body forces (the Southwest Japan model
uses ``f_z = -1``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.mesh import Mesh
from repro.sparse.bcsr import BCSRMatrix
from repro.utils.validate import check_square_csr

# Local node quadruples of the six faces of a hex8 element.
_HEX_FACES = np.array(
    [
        [0, 1, 2, 3],  # zeta = -1 (bottom)
        [4, 5, 6, 7],  # zeta = +1 (top)
        [0, 1, 5, 4],  # eta  = -1
        [3, 2, 6, 7],  # eta  = +1
        [0, 3, 7, 4],  # xi   = -1
        [1, 2, 6, 5],  # xi   = +1
    ],
    dtype=np.int64,
)


def component_dofs(nodes: np.ndarray, component: int) -> np.ndarray:
    """DOF ids of one displacement component (0=x, 1=y, 2=z) on *nodes*."""
    if component not in (0, 1, 2):
        raise ValueError(f"component must be 0, 1 or 2, got {component}")
    return np.asarray(nodes, dtype=np.int64) * 3 + component


def all_dofs(nodes: np.ndarray) -> np.ndarray:
    """All three DOF ids of *nodes* (fully fixed surface)."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return (nodes[:, None] * 3 + np.arange(3)).reshape(-1)


def _fixed_mask(fixed_dofs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique fixed DOF ids and their boolean mask over ``n`` DOFs."""
    fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
    if fixed_dofs.size and (fixed_dofs.min() < 0 or fixed_dofs.max() >= n):
        raise ValueError("fixed DOF index out of range")
    mask = np.zeros(n, dtype=bool)
    mask[fixed_dofs] = True
    return fixed_dofs, mask


def apply_dirichlet(
    a, b: np.ndarray, fixed_dofs: np.ndarray, values: np.ndarray | float = 0.0
):
    """Symmetric elimination of Dirichlet DOFs.

    Rows and columns of the fixed DOFs are dropped from the pattern
    (moving the column contribution of nonzero prescribed values to the
    RHS) and the original diagonal entry is kept, so the matrix stays SPD
    and sensibly scaled.  Every fixed DOF must have a stored diagonal
    entry.  Returns ``(a_mod, b_mod)`` as new objects.
    """
    a = check_square_csr(a)
    n = a.shape[0]
    fixed_dofs, mask = _fixed_mask(fixed_dofs, n)
    vals = np.broadcast_to(np.asarray(values, dtype=np.float64), fixed_dofs.shape)

    b = np.asarray(b, dtype=np.float64).copy()
    # Move prescribed-value columns to the RHS: b -= A[:, fixed] @ vals.
    if vals.any():
        xfix = np.zeros(n)
        xfix[fixed_dofs] = vals
        b -= a @ xfix

    # One keep-mask over the canonical CSR arrays: entries coupling two
    # free DOFs, plus the whole diagonal.
    counts = np.diff(a.indptr)
    row_fixed = np.repeat(mask, counts)
    on_diag = np.repeat(np.arange(n, dtype=a.indices.dtype), counts) == a.indices
    if np.count_nonzero(on_diag & row_fixed) != fixed_dofs.size:
        raise ValueError("a fixed DOF has no stored diagonal entry")
    keep = on_diag | ~(row_fixed | mask[a.indices])
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    a_mod = sp.csr_matrix(
        (a.data[keep], a.indices[keep], kept_before[a.indptr]), shape=a.shape
    )
    a_mod.has_canonical_format = True  # a masked canonical matrix stays canonical

    b[fixed_dofs] = a.diagonal()[fixed_dofs] * vals
    return a_mod, b


def dirichlet_scalars(k: BCSRMatrix, fixed_dofs: np.ndarray) -> np.ndarray:
    """``(nnzb, b, b)`` mask of the scalars of *k* that symmetric
    elimination of *fixed_dofs* leaves in place — the keep-mask of
    :func:`apply_dirichlet` in block form: the whole diagonal and every
    coupling of two free DOFs."""
    _, mask = _fixed_mask(fixed_dofs, k.ndof)
    free = ~mask.reshape(k.n, k.b)
    brow = k.block_rows()
    keep = np.ones(k.values.shape, dtype=bool)
    # only blocks touching a constrained node lose anything
    constrained = ~free.all(axis=1)
    hit = np.flatnonzero(constrained[brow] | constrained[k.indices])
    kept = free[brow[hit]][:, :, None] & free[k.indices[hit]][:, None, :]
    kept[brow[hit] == k.indices[hit]] |= np.eye(k.b, dtype=bool)
    keep[hit] = kept
    return keep


def boundary_faces(mesh: Mesh, node_set: np.ndarray) -> np.ndarray:
    """Element faces whose four nodes all belong to *node_set*.

    Returns ``(nfaces, 4)`` global node quadruples (used for consistent
    surface-load integration).
    """
    in_set = np.zeros(mesh.n_nodes, dtype=bool)
    in_set[np.asarray(node_set, dtype=np.int64)] = True
    faces = mesh.hexes[:, _HEX_FACES]  # (e, 6, 4)
    keep = in_set[faces].all(axis=2)
    return faces[keep]


def _lump(ndof: int, conn: np.ndarray, share: np.ndarray) -> np.ndarray:
    """Load vector giving every corner of ``conn[i]`` the 3-vector ``share[i]``."""
    dofs = conn.T[:, :, None] * 3 + np.arange(3)  # (corners, cells, 3)
    weights = np.broadcast_to(share, dofs.shape)
    return np.bincount(dofs.reshape(-1), weights=weights.reshape(-1), minlength=ndof)


def surface_load(
    mesh: Mesh, node_set: np.ndarray, traction: np.ndarray
) -> np.ndarray:
    """Consistent nodal load vector for a uniform traction on a surface.

    Each bilinear face contributes ``traction * area / 4`` to its corner
    nodes (exact for flat faces, adequate for the gently warped ones of
    the synthetic Southwest Japan model).
    """
    traction = np.asarray(traction, dtype=np.float64)
    if traction.shape != (3,):
        raise ValueError(f"traction must be a 3-vector, got shape {traction.shape}")
    faces = boundary_faces(mesh, node_set)
    if faces.size == 0:
        raise ValueError("node set contains no complete element face")
    p = mesh.coords[faces]  # (f, 4, 3)
    # Area of a (possibly warped) quad from its two diagonals.
    d1 = p[:, 2] - p[:, 0]
    d2 = p[:, 3] - p[:, 1]
    area = 0.5 * np.linalg.norm(np.cross(d1, d2), axis=1)
    share = area[:, None] / 4.0 * traction[None, :]  # (f, 3)
    return _lump(mesh.ndof, faces, share)


def body_force(mesh: Mesh, force_density: np.ndarray) -> np.ndarray:
    """Lumped nodal load for a uniform body force (e.g. gravity ``-z``)."""
    from repro.fem.assembly import element_volumes

    force_density = np.asarray(force_density, dtype=np.float64)
    if force_density.shape != (3,):
        raise ValueError(f"force density must be a 3-vector, got {force_density.shape}")
    vol = element_volumes(mesh)
    share = vol[:, None] / 8.0  # equal lumping over the 8 element nodes
    return _lump(mesh.ndof, mesh.hexes, share * force_density[None, :])
