"""Global stiffness assembly into 3x3 block CSR.

GeoFEM assembles coefficient matrices per domain without communication
(section 2.1); here the whole mesh is assembled in one vectorized pass:
one sort of the node pairs fixes the BCSR pattern, then the element
matrices — one per distinct element shape, in bounded batches — are
summed into it as they are produced.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.fem.contact import penalty_coo_blocks
from repro.fem.hex8 import distinct_elements, stiffness_batches
from repro.fem.material import IsotropicElastic
from repro.fem.mesh import Mesh
from repro.obs import record_span
from repro.sparse.bcsr import BCSRMatrix
from repro.utils.indexing import SETUP_CHUNK, chunks
from repro.utils.timing import Laps
from repro.utils.validate import check_finite_coords


def _constitutive_table(
    mesh: Mesh, materials: IsotropicElastic | dict[int, IsotropicElastic] | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(dtable, which)``: the distinct 6x6 constitutive matrices and the
    one each element takes (all zeros under a single material)."""
    if materials is None:
        materials = IsotropicElastic()
    if isinstance(materials, IsotropicElastic):
        return materials.elasticity_matrix()[None], np.zeros(mesh.n_elem, dtype=np.int64)
    ids, which = np.unique(mesh.material_ids, return_inverse=True)
    missing = set(ids.tolist()) - {int(mid) for mid in materials}
    if missing:
        raise ValueError(f"materials missing for ids {sorted(missing)}")
    table = {int(mid): mat for mid, mat in materials.items()}
    return np.stack([table[mid].elasticity_matrix() for mid in ids.tolist()]), which


def assemble_blocks(
    mesh: Mesh,
    materials: IsotropicElastic | dict[int, IsotropicElastic] | None,
    groups: list[np.ndarray],
    penalty: float,
    laps: Laps,
) -> tuple[BCSRMatrix, np.ndarray, int]:
    """Elastic stiffness of *mesh* plus *penalty* times the Laplacian of
    the contact *groups*, reduced while it is produced.

    The slot of every (element, node pair) and every penalty pair comes
    first, from connectivity alone; then the element matrices are added
    into their slots batch by batch (:func:`stiffness_batches`, one
    kernel run per distinct element shape) in mesh order, the penalty
    last — the order of one sum over all the triplets, which are never
    held together.  Returns the matrix, the ``(n_nodes, 3)`` diagonal of
    its stiffness part (read before the penalty pass) and the number of
    distinct element shapes; *laps* times the slot and element phases.

    Parameters
    ----------
    materials:
        A single material for homogeneous models, or a mapping from
        ``mesh.material_ids`` values to materials.  Defaults to the
        paper's non-dimensional ``E = 1.0, nu = 0.3``.
    """
    check_finite_coords(mesh.coords)
    dtable, material = _constitutive_table(mesh, materials)
    prows, pcols, pblocks = penalty_coo_blocks(groups, penalty, mesh.n_nodes)
    # the 64 node pairs of every hexahedron, in element order, then the penalty's
    hexes = mesh.hexes
    k, slot = BCSRMatrix.from_block_pairs(
        mesh.n_nodes, [hexes[:, :, None], prows], [hexes[:, None, :], pcols]
    )
    laps.lap("assembly.slots")
    first, inverse = distinct_elements(mesh.coords, mesh.hexes, material)
    batches = stiffness_batches(mesh.coords[mesh.hexes[first]], dtable[material[first]], inverse)
    for e0, e1, ke, which in batches:
        # element matrices as 3x3 node-pair blocks, then one per element
        blocks = ke.reshape(-1, 8, 3, 8, 3).transpose(0, 1, 3, 2, 4).reshape(-1, 64, 3, 3)
        k.add_blocks(slot[64 * e0 : 64 * e1], blocks.take(which, axis=0).reshape(-1, 3, 3))
    diag = k.to_bsr().diagonal().reshape(mesh.n_nodes, 3)
    laps.lap("assembly.element")
    k.add_blocks(slot[hexes.size * 8 :], pblocks)
    return k, diag, first.size


# A stiffness scalar is a sum of 8 Gauss-point terms in each of at most 8
# elements sharing the node pair, so the round-off of an analytically
# zero coupling is bounded by 64 eps of the terms' size, sqrt(k_ii k_jj).
# Measured |k_ij| / sqrt(k_ii k_jj) of the stored off-diagonals: on the
# block model 1.5 (0.6) a third of them lie at or below 9.7e-16 (3.8e-16)
# and the next one is 5.7e-3; the Southwest Japan model 2.0 (0.7) stores
# nothing below 6.1e-7 (1.5e-5).  The bound is 1.4e-14.
ROUNDOFF_TERMS = 64


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
    b, nnzb = k.b, k.nnzb
    keep = np.empty((nnzb, b, b), dtype=bool)
    bound = ROUNDOFF_TERMS * np.finfo(np.float64).eps
    budget = max(nnzb // 16, SETUP_CHUNK // (b * b))  # blocks per run
    # block-row range by block-row range, so that no scalar-sized float
    # array exists; a diagonal block is its own mirror, so its identity
    # goes in before the mirroring below
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero diagonal keeps what is non-zero
        inv = 1.0 / np.sqrt(diag)
        for rows in chunks(k.n, budget, k.indptr):
            p0, p1 = k.indptr[rows.start], k.indptr[rows.stop]
            brow = np.repeat(
                np.arange(rows.start, rows.stop), np.diff(k.indptr[rows.start : rows.stop + 1])
            )
            rel = np.einsum("pr,pc->prc", inv[brow], inv[k.indices[p0:p1]])
            rel *= np.abs(k.values[p0:p1])
            np.greater(rel, bound, out=keep[p0:p1])
            keep[p0:p1][brow == k.indices[p0:p1]] |= np.eye(b, dtype=bool)
    # block (j, i) of every block (i, j): CSC order of a symmetric block
    # pattern lists the transposes in CSR order
    mirror = sp.csr_matrix((np.arange(nnzb), k.indices, k.indptr), shape=(k.n, k.n)).tocsc()
    if not (np.array_equal(mirror.indptr, k.indptr) and np.array_equal(mirror.indices, k.indices)):
        raise ValueError("stiffness block pattern is not symmetric")
    # keep[p] |= keep[mirror(p)]^T, a run of blocks at a time: what a run
    # reads of a block an earlier run updated is keep[q] | keep[p]^T,
    # whose transpose adds nothing to keep[p] but keep[p]
    flat = keep.reshape(nnzb, b * b)
    transpose = np.arange(b * b).reshape(b, b).T.ravel()
    for c in chunks(nnzb, budget):
        flat[c] |= flat.take(mirror.data[c], axis=0)[:, transpose]
    return keep


def assemble_stiffness(
    mesh: Mesh,
    materials: IsotropicElastic | dict[int, IsotropicElastic] | None = None,
) -> BCSRMatrix:
    """Assemble the global elastic stiffness matrix of *mesh*.

    *materials* as for :func:`assemble_blocks`.
    """
    laps = Laps()
    k, _diag, n_shapes = assemble_blocks(mesh, materials, [], 0.0, laps)
    record_assembly_span(mesh, laps, n_shapes)
    return k


def record_assembly_span(mesh: Mesh, laps: Laps, n_shapes: int, **attrs) -> None:
    """Emit the ``assembly`` span with the phases timed in *laps*."""
    record_span(
        "assembly",
        laps.total,
        laps.phases,
        n_elem=mesh.n_elem,
        n_shapes=n_shapes,
        n_nodes=mesh.n_nodes,
        **attrs,
    )


def element_volumes(mesh: Mesh) -> np.ndarray:
    """Element volumes via the same 2x2x2 quadrature as the stiffness."""
    from repro.fem.hex8 import shape_gradients_reference

    dn = shape_gradients_reference()
    xyz = mesh.coords[mesh.hexes]
    jac = np.einsum("gna,enb->egab", dn, xyz)
    return np.linalg.det(jac).sum(axis=1)
