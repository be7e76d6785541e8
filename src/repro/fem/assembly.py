"""Global stiffness assembly into 3x3 block CSR.

GeoFEM assembles coefficient matrices per domain without communication
(section 2.1); here the whole mesh is assembled in one vectorized pass:
all element matrices (in bounded batches), then one sort-and-reduce of
their block triplets into BCSR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.hex8 import hex8_stiffness
from repro.fem.material import IsotropicElastic
from repro.fem.mesh import Mesh
from repro.obs import record_span
from repro.sparse.bcsr import BCSRMatrix
from repro.utils.timing import Laps
from repro.utils.validate import check_finite_coords


def stiffness_coo_blocks(
    mesh: Mesh,
    materials: IsotropicElastic | dict[int, IsotropicElastic] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncoalesced 3x3 block triplets of the elastic stiffness of *mesh*.

    One triplet per (element, node pair): 64 per hexahedron, in element
    order.  ``BCSRMatrix.from_coo_blocks`` sums them — alone for the
    stiffness matrix, or together with the contact-penalty triplets so the
    whole system is sorted and reduced once.

    Parameters
    ----------
    materials:
        A single material for homogeneous models, or a mapping from
        ``mesh.material_ids`` values to materials.  Defaults to the
        paper's non-dimensional ``E = 1.0, nu = 0.3``.
    """
    check_finite_coords(mesh.coords)
    if materials is None:
        materials = IsotropicElastic()
    ne = mesh.n_elem
    if isinstance(materials, IsotropicElastic):
        dmat: IsotropicElastic | np.ndarray = materials
    else:
        table = {}
        for mid, mat in materials.items():
            table[int(mid)] = mat.elasticity_matrix()
        missing = set(np.unique(mesh.material_ids).tolist()) - set(table)
        if missing:
            raise ValueError(f"materials missing for ids {sorted(missing)}")
        dmat = np.empty((ne, 6, 6))
        for mid, d in table.items():
            dmat[mesh.material_ids == mid] = d

    ke = hex8_stiffness(mesh.coords, mesh.hexes, dmat)

    # Explode element matrices into 3x3 node-pair blocks.
    rows = np.repeat(mesh.hexes, 8, axis=1).reshape(-1)
    cols = np.tile(mesh.hexes, (1, 8)).reshape(-1)
    blocks = (
        ke.reshape(ne, 8, 3, 8, 3).transpose(0, 1, 3, 2, 4).reshape(ne * 64, 3, 3)
    )
    return rows, cols, blocks


# A stiffness scalar is a sum of 8 Gauss-point terms in each of at most 8
# elements sharing the node pair, so the round-off of an analytically
# zero coupling is bounded by 64 eps of the terms' size, sqrt(k_ii k_jj).
# Measured |k_ij| / sqrt(k_ii k_jj) of the stored off-diagonals: on the
# block model 1.5 (0.6) a third of them lie at or below 9.7e-16 (3.8e-16)
# and the next one is 5.7e-3; the Southwest Japan model 2.0 (0.7) stores
# nothing below 6.1e-7 (1.5e-5).  The bound is 1.4e-14.
ROUNDOFF_TERMS = 64


def stiffness_diagonal(
    n_nodes: int, rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """``(n_nodes, 3)`` diagonal of the stiffness the block triplets sum
    to, added in the order :meth:`BCSRMatrix.from_coo_blocks` adds them."""
    on = np.flatnonzero(rows == cols)
    return np.stack(
        [np.bincount(rows[on], weights=blocks[on, c, c], minlength=n_nodes) for c in range(3)],
        axis=1,
    )


def stored_scalars(k: BCSRMatrix, diag: np.ndarray) -> np.ndarray:
    """``(nnzb, b, b)`` mask of the scalars of stiffness *k* worth storing.

    The one rule of what ``fem`` keeps of a stiffness matrix: a scalar is
    dropped when it is indistinguishable from the round-off of its own
    sum, ``|k_ij| <= ROUNDOFF_TERMS * eps * sqrt(k_ii k_jj)`` with the
    ``(n, b)`` stiffness diagonal *diag* — passed in, so that a matrix
    that already carries a contact penalty is judged as its stiffness
    part and the kept pattern does not depend on the penalty.  Diagonal
    scalars always stay, and ``(i, j)`` stays when either triangle
    passes, so the pattern is symmetric whatever the round-off did.
    """
    brow = k.block_rows()
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero diagonal keeps what is non-zero
        inv = 1.0 / np.sqrt(diag)
        rel = np.einsum("pr,pc->prc", inv[brow], inv[k.indices])
        rel *= np.abs(k.values)
        keep = rel > ROUNDOFF_TERMS * np.finfo(np.float64).eps
    # block (j, i) of every block (i, j): CSC order of a symmetric block
    # pattern lists the transposes in CSR order
    mirror = sp.csr_matrix((np.arange(k.nnzb), k.indices, k.indptr), shape=(k.n, k.n)).tocsc()
    if not (np.array_equal(mirror.indptr, k.indptr) and np.array_equal(mirror.indices, k.indices)):
        raise ValueError("stiffness block pattern is not symmetric")
    flat = keep.reshape(k.nnzb, k.b * k.b)
    flat |= flat.take(mirror.data, axis=0)[:, np.arange(k.b * k.b).reshape(k.b, k.b).T.ravel()]
    keep[brow == k.indices] |= np.eye(k.b, dtype=bool)
    return keep


def assemble_stiffness(
    mesh: Mesh,
    materials: IsotropicElastic | dict[int, IsotropicElastic] | None = None,
) -> BCSRMatrix:
    """Assemble the global elastic stiffness matrix of *mesh*.

    *materials* as for :func:`stiffness_coo_blocks`.
    """
    laps = Laps()
    rows, cols, blocks = stiffness_coo_blocks(mesh, materials)
    laps.lap("assembly.element")
    out = BCSRMatrix.from_coo_blocks(mesh.n_nodes, rows, cols, blocks, b=3)
    laps.lap("assembly.reduce")
    record_assembly_span(mesh, laps)
    return out


def record_assembly_span(mesh: Mesh, laps: Laps, **attrs) -> None:
    """Emit the ``assembly`` span with the phases timed in *laps*."""
    record_span(
        "assembly", laps.total, laps.phases, n_elem=mesh.n_elem, n_nodes=mesh.n_nodes, **attrs
    )


def element_volumes(mesh: Mesh) -> np.ndarray:
    """Element volumes via the same 2x2x2 quadrature as the stiffness."""
    from repro.fem.hex8 import shape_gradients_reference

    dn = shape_gradients_reference()
    xyz = mesh.coords[mesh.hexes]
    jac = np.einsum("gna,enb->egab", dn, xyz)
    return np.linalg.det(jac).sum(axis=1)
