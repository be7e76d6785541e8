"""Tri-linear (8-node) hexahedral element stiffness, vectorized over elements.

The paper's models all use 1st-order hexahedra (section 5.1).  The
stiffness integration is the standard isoparametric formulation with
2x2x2 Gauss quadrature, evaluated for *all* elements of a mesh in one
batched numpy computation — the "vectorize the element loop" idiom.
"""

from __future__ import annotations

import numpy as np

from repro.fem.material import IsotropicElastic

# Reference-element node coordinates (xi, eta, zeta) in [-1, 1]^3,
# standard counter-clockwise bottom then top numbering.
_XI_NODES = np.array(
    [
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, +1],
        [+1, -1, +1],
        [+1, +1, +1],
        [-1, +1, +1],
    ],
    dtype=np.float64,
)

_GP = np.array([-1.0, 1.0]) / np.sqrt(3.0)

# Non-zero pattern of the 6x3 strain-displacement block of one node
# (Voigt order xx, yy, zz, xy, yz, zx): entry (row, comp) holds the
# shape-function derivative along axis grad.
_B_ROW = np.array([0, 1, 2, 3, 3, 4, 4, 5, 5])
_B_COMP = np.array([0, 1, 2, 0, 1, 1, 2, 0, 2])
_B_GRAD = np.array([0, 1, 2, 1, 0, 2, 1, 2, 0])

# Elements per batch of the stiffness kernel: bounds the B / DB
# temporaries (9 kB each per element) to a few MB whatever the mesh size.
_CHUNK = 512


def _gauss_points() -> np.ndarray:
    """(8, 3) Gauss point coordinates; all weights are 1."""
    g = np.array([[x, y, z] for z in _GP for y in _GP for x in _GP])
    return g


def shape_gradients_reference() -> np.ndarray:
    """dN/dxi at the 8 Gauss points: shape (8 gp, 8 nodes, 3)."""
    gp = _gauss_points()
    xi = gp[:, None, 0]
    eta = gp[:, None, 1]
    zeta = gp[:, None, 2]
    xn, yn, zn = _XI_NODES[:, 0], _XI_NODES[:, 1], _XI_NODES[:, 2]
    fx = 1.0 + xi * xn
    fy = 1.0 + eta * yn
    fz = 1.0 + zeta * zn
    dn = np.empty((8, 8, 3))
    dn[:, :, 0] = 0.125 * xn * fy * fz
    dn[:, :, 1] = 0.125 * fx * yn * fz
    dn[:, :, 2] = 0.125 * fx * fy * zn
    return dn


def distinct_elements(
    coords: np.ndarray, hexes: np.ndarray, material_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One representative per distinct element: ``(first, inverse)``.

    Two elements are the same when their node coordinates relative to
    their first node and their material id agree to the byte — what the
    stiffness kernel reads (:func:`stiffness_batches` takes its
    Jacobians from those local coordinates), so they share ``K_e``.
    ``first`` lists one element per distinct key, ``inverse[e]`` is the
    place in ``first`` of the one that stands for element ``e``.  A
    uniform grid has one key per material; a curved mesh one per element.
    """
    xyz = coords[hexes]
    ne = hexes.shape[0]
    key = np.empty((ne, 22))
    key[:, :21] = (xyz[:, 1:] - xyz[:, :1]).reshape(ne, 21)
    key[:, 21] = 0 if material_ids is None else material_ids
    _, first, inverse = np.unique(
        key.view(np.dtype((np.void, key.strides[0]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    return first, inverse


def stiffness_batches(xyz: np.ndarray, dmat: np.ndarray, inverse: np.ndarray):
    """Element stiffness matrices, one bounded batch of elements at a time.

    *xyz* ``(n_shapes, 8, 3)`` and *dmat* ``(n_shapes, 6, 6)`` are the
    node coordinates and constitutive matrices of the distinct elements,
    ``inverse[e]`` the one element ``e`` is (:func:`distinct_elements`).
    Yields ``(e0, e1, k, which)`` over the elements in order, ``_CHUNK``
    at a time: the ``K_e`` of elements ``e0 .. e1`` are ``k[which]``,
    with *k* ``(m, 24, 24)`` computed once per distinct element of the
    batch.  Nothing of the mesh's size is held between batches.
    """
    dn = shape_gradients_reference()  # (gp, node, 3)
    dn_t = np.ascontiguousarray(dn.transpose(0, 2, 1))  # (gp, 3, node)
    bad = 0
    for e0 in range(0, inverse.size, _CHUNK):
        e1 = min(e0 + _CHUNK, inverse.size)
        shapes, which = np.unique(inverse[e0:e1], return_inverse=True)
        m = shapes.size
        local = xyz[shapes]  # (m, node, 3)
        local = local - local[:, :1]

        # Jacobian at each (element, gauss point): J = dN^T @ xyz, from
        # coordinates relative to the element's first node (the shape
        # gradients sum to zero, so a translation changes nothing but the
        # rounding — and equal shapes then give equal bits).  Its inverse
        # transpose is the cofactor matrix (rows: cross products of the
        # rows of J) over the determinant.
        jac = np.matmul(dn_t, local[:, None])  # (m, gp, 3, 3)
        cof = np.cross(jac[..., [1, 2, 0], :], jac[..., [2, 0, 1], :])
        detj = (jac[..., 0, :] * cof[..., 0, :]).sum(axis=-1)
        bad += int(np.count_nonzero(detj[which] <= 0))
        if bad:
            continue  # only finish the count; the error is raised below
        # Physical shape gradients: dN/dx = J^{-1} dN/dxi, as dN @ J^{-T}
        grad = np.matmul(dn, cof / detj[..., None, None])  # (m, gp, node, 3)

        # Strain-displacement rows stacked over Gauss points: B_all is
        # (48, 24) per element, laid out (strain row, gp | node, comp) so
        # D @ B_all is one (6, 6) @ (6, 192) product per element.
        bmat = np.zeros((m, 6, 8, 8, 3))
        bmat[:, _B_ROW, :, :, _B_COMP] = grad.transpose(3, 0, 1, 2)[_B_GRAD]
        db = np.matmul(dmat[shapes], bmat.reshape(m, 6, 192)).reshape(m, 6, 8, 24)
        db *= detj[:, None, :, None]

        # K_e = B_all^T (D B_all |J|)  (weights = 1 for 2x2x2 Gauss)
        k = np.matmul(
            bmat.reshape(m, 48, 24).transpose(0, 2, 1), db.reshape(m, 48, 24)
        )
        # Enforce exact symmetry (floating point round-off accumulates here).
        k = k + k.transpose(0, 2, 1)
        k *= 0.5
        yield e0, e1, k, which
    if bad:
        raise ValueError(f"{bad} (element, gauss point) pairs have non-positive Jacobian")


def hex8_stiffness(
    coords: np.ndarray,
    hexes: np.ndarray,
    material: IsotropicElastic | np.ndarray,
) -> np.ndarray:
    """Element stiffness matrices for all hexahedra at once.

    Parameters
    ----------
    coords:
        ``(n_nodes, 3)`` node coordinates.
    hexes:
        ``(n_elem, 8)`` element connectivity.
    material:
        A single material, or a per-element array of 6x6 constitutive
        matrices ``(n_elem, 6, 6)`` (two-material Southwest Japan model).

    Returns
    -------
    ``(n_elem, 24, 24)`` symmetric element stiffness matrices.
    """
    coords = np.asarray(coords, dtype=np.float64)
    hexes = np.asarray(hexes, dtype=np.int64)
    ne = hexes.shape[0]
    if isinstance(material, IsotropicElastic):
        first, inverse = distinct_elements(coords, hexes)
        dmat = np.broadcast_to(material.elasticity_matrix(), (first.size, 6, 6))
    else:
        dmat = np.asarray(material, dtype=np.float64)
        if dmat.shape != (ne, 6, 6):
            raise ValueError(f"per-element D must be ({ne}, 6, 6), got {dmat.shape}")
        first = inverse = np.arange(ne)  # its own D makes every element distinct
    ke = np.empty((ne, 24, 24))
    for e0, e1, k, which in stiffness_batches(coords[hexes[first]], dmat, inverse):
        k.take(which, axis=0, out=ke[e0:e1])
    return ke
