"""Selective blocking: contact groups -> selective blocks (super-nodes).

Paper section 3.1, Fig. 6: strongly coupled finite-element nodes in the
same contact group are placed into the same large block and all nodes are
renumbered by that blocking.  A node belonging to no contact group forms
a block of size one.
"""

from __future__ import annotations

import numpy as np

from repro.utils.indexing import concat_ragged
from repro.utils.validate import check_contact_groups


def selective_blocks_from_groups(
    groups: list[np.ndarray], n_nodes: int
) -> list[np.ndarray]:
    """Node partition into selective blocks: groups first, singletons after.

    The relative order (groups in given order, then free nodes ascending)
    is the pre-coloring order; the factorization engine re-sorts by color
    and size afterwards.
    """
    groups = check_contact_groups(groups, n_nodes)
    in_group = np.zeros(n_nodes, dtype=bool)
    if groups:
        in_group[np.concatenate(groups)] = True
    free = np.flatnonzero(~in_group)
    # rows of an (n_free, 1) array: one singleton block per free node
    return [g.copy() for g in groups] + list(free[:, None])


def selective_block_supernodes(
    groups: list[np.ndarray], n_nodes: int, b: int = 3
) -> list[np.ndarray]:
    """DOF-level super-nodes for the selective blocks (``b`` DOF per node)."""
    blocks = selective_blocks_from_groups(groups, n_nodes)
    flat, offsets = concat_ragged(blocks)
    dofs = (flat[:, None] * b + np.arange(b)).reshape(-1)
    # free nodes (the vast majority) are the trailing size-1 blocks: their
    # super-nodes are the rows of one (n_free, b) array, no per-block split
    ngroups = len(groups)
    cut = offsets[ngroups] * b
    grouped = np.split(dofs[:cut], offsets[1:ngroups] * b) if ngroups else []
    return grouped + list(dofs[cut:].reshape(-1, b))


def detect_contact_groups(
    coords: np.ndarray, tol: float = 1e-9
) -> list[np.ndarray]:
    """Find groups of geometrically coincident nodes (contact candidates).

    The paper's contact groups are nodes at *identical* locations tied by
    penalty constraints (section 5.1).  Rounds coordinates to ``tol`` and
    groups exact matches; returns groups of size >= 2 sorted by first
    member for determinism.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError(f"coords must be (n, dim), got {coords.shape}")
    quant = np.round(coords / tol).astype(np.int64)
    # lexicographic grouping of identical rows
    order = np.lexsort(quant.T[::-1])
    sq = quant[order]
    newgrp = np.any(sq[1:] != sq[:-1], axis=1)
    starts = np.concatenate([[0], np.flatnonzero(newgrp) + 1, [coords.shape[0]]])
    groups = []
    for a, b_ in zip(starts[:-1], starts[1:]):
        if b_ - a >= 2:
            groups.append(np.sort(order[a:b_]).astype(np.int64))
    groups.sort(key=lambda g: int(g[0]))
    return groups
