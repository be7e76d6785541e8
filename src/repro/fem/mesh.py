"""Mesh container: nodes, hexahedral elements, node sets, contact groups."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validate import check_index_array


@dataclass
class Mesh:
    """Unstructured hexahedral mesh with GeoFEM-style metadata.

    Attributes
    ----------
    coords:
        ``(n_nodes, 3)`` node coordinates.
    hexes:
        ``(n_elem, 8)`` tri-linear hexahedron connectivity.
    node_sets:
        Named node-index arrays (boundary surfaces etc.).
    contact_groups:
        Groups of coincident nodes tied by penalty constraints — the
        paper's contact groups (inputs to selective blocking).
    material_ids:
        ``(n_elem,)`` material index per element (0 when homogeneous).
    """

    coords: np.ndarray
    hexes: np.ndarray
    node_sets: dict[str, np.ndarray] = field(default_factory=dict)
    contact_groups: list[np.ndarray] = field(default_factory=list)
    material_ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.hexes = np.asarray(self.hexes, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {self.coords.shape}")
        if self.hexes.ndim != 2 or self.hexes.shape[1] != 8:
            raise ValueError(f"hexes must be (e, 8), got {self.hexes.shape}")
        check_index_array(self.hexes.reshape(-1), self.n_nodes, "hexes")
        if self.material_ids is None:
            self.material_ids = np.zeros(self.n_elem, dtype=np.int64)
        self.material_ids = np.asarray(self.material_ids, dtype=np.int64)
        if self.material_ids.shape != (self.n_elem,):
            raise ValueError("material_ids must have one entry per element")

    @property
    def n_nodes(self) -> int:
        return int(self.coords.shape[0])

    @property
    def n_elem(self) -> int:
        return int(self.hexes.shape[0])

    @property
    def ndof(self) -> int:
        """Total degrees of freedom (3 per node)."""
        return 3 * self.n_nodes
