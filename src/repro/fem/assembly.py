"""Global stiffness assembly into 3x3 block CSR.

GeoFEM assembles coefficient matrices per domain without communication
(section 2.1); here the whole mesh is assembled in one vectorized pass:
all element matrices (in bounded batches), then one sort-and-reduce of
their block triplets into BCSR.
"""

from __future__ import annotations

import numpy as np

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


def record_assembly_span(mesh: Mesh, laps: Laps) -> None:
    """Emit the ``assembly`` span with the phases timed in *laps*."""
    record_span(
        "assembly", laps.total, laps.phases, n_elem=mesh.n_elem, n_nodes=mesh.n_nodes
    )


def element_volumes(mesh: Mesh) -> np.ndarray:
    """Element volumes via the same 2x2x2 quadrature as the stiffness."""
    from repro.fem.hex8 import shape_gradients_reference

    dn = shape_gradients_reference()
    xyz = mesh.coords[mesh.hexes]
    jac = np.einsum("gna,enb->egab", dn, xyz)
    return np.linalg.det(jac).sum(axis=1)
