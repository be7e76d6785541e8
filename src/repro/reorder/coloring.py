"""The :class:`Coloring` container handed to the vectorized kernels.

A coloring partitions the vertices into classes such that no two adjacent
vertices share a class.  Rows inside one class are mutually independent,
so block factorization and forward/backward substitution can process one
class at a time with fully vectorized (in the paper: vector-pipelined)
inner loops — this is the enabling structure for everything in sections
4.2-4.5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.utils.validate import check_index_array


@dataclass
class Coloring:
    """Vertex coloring plus the derived color-major ordering.

    Attributes
    ----------
    colors:
        ``(n,)`` color id per vertex, colors numbered ``0..ncolors-1``.
    ncolors:
        Number of classes actually used.
    perm:
        Color-major ordering: ``perm[k]`` is the old vertex index placed
        at new position ``k``; vertices of color 0 come first.
    color_ptr:
        ``(ncolors + 1,)`` offsets into ``perm`` delimiting each class.
    """

    colors: np.ndarray
    ncolors: int
    perm: np.ndarray = field(init=False)
    iperm: np.ndarray = field(init=False)
    color_ptr: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.colors.size
        check_index_array(self.colors, self.ncolors, "colors")
        counts = np.bincount(self.colors, minlength=self.ncolors)
        self.color_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        # Stable sort keeps original relative order inside a color, which
        # keeps DJDS statistics deterministic.
        self.perm = np.argsort(self.colors, kind="stable").astype(np.int64)
        self.iperm = np.empty(n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(n)

    @property
    def n(self) -> int:
        return int(self.colors.size)

    def class_members(self, c: int) -> np.ndarray:
        """Old vertex indices of color ``c`` in ordering position."""
        return self.perm[self.color_ptr[c] : self.color_ptr[c + 1]]

    def validate(self, adj: sp.csr_matrix) -> None:
        """Raise ValueError if any edge joins two same-colored vertices."""
        rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
        bad = self.colors[rows] == self.colors[adj.indices]
        # self-loops are not edges for coloring purposes
        bad &= rows != adj.indices
        if bad.any():
            i = rows[bad][0]
            j = adj.indices[bad][0]
            raise ValueError(
                f"vertices {i} and {j} are adjacent but share color {self.colors[i]}"
            )
