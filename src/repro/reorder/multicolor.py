"""Multicolor (MC) reordering with a controllable number of colors.

The paper (section 4.2) uses classical multicoloring because, unlike
CM-RCM, it guarantees a *chosen* number of colors — hence a guaranteed
innermost loop length of roughly ``n / ncolors`` — even on complicated
geometries.  More colors mean shorter loops but fewer iterations for
convergence (Fig. 26/27); the solver exposes the color count as a tuning
parameter for exactly that trade-off.

Implementation: a greedy smallest-available coloring gives a small base
palette; when the caller requests *more* colors than the base palette, we
subdivide color classes round-robin (any subset of an independent set is
independent), which yields balanced class sizes — the property the vector
kernels care about.  Requesting fewer colors than the graph needs returns
the base palette unchanged.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.reorder.coloring import Coloring


def greedy_color(adj: sp.csr_matrix, order: np.ndarray | None = None) -> np.ndarray:
    """Greedy smallest-available vertex coloring.

    Parameters
    ----------
    adj:
        Symmetric adjacency CSR without self loops.
    order:
        Vertex visit order; defaults to descending degree (Welsh-Powell),
        which empirically keeps the palette small on FEM graphs.
    """
    n = adj.shape[0]
    if order is None:
        order = np.argsort(-np.diff(adj.indptr), kind="stable")
    # the walk runs on Python lists: per vertex, a numpy slice, mask and
    # fancy assignment cost more than the handful of neighbours they serve
    indptr, indices = adj.indptr.tolist(), adj.indices.tolist()
    colors = [-1] * n
    # `mark[c] == v` means color c is used by a neighbor of the vertex v
    # currently being colored; avoids clearing a set per vertex.  The
    # last slot (index -1) takes the uncolored neighbors and is never
    # read: a vertex sees at most n - 1 colors.
    mark = [-1] * (n + 1)
    for v in np.asarray(order).tolist():
        for u in indices[indptr[v] : indptr[v + 1]]:
            mark[colors[u]] = v
        c = 0
        while mark[c] == v:
            c += 1
        colors[v] = c
    return np.array(colors, dtype=np.int64)


def multicolor(adj: sp.csr_matrix, ncolors: int = 0) -> Coloring:
    """MC reordering targeting ``ncolors`` classes.

    ``ncolors=0`` (default) returns the minimal greedy palette.  If the
    graph forces more colors than requested, the actual count is larger
    (mirroring GeoFEM, which reports the achieved color count).
    """
    if ncolors < 0:
        raise ValueError(f"ncolors must be >= 0, got {ncolors}")
    base = greedy_color(adj)
    nbase = int(base.max()) + 1 if base.size else 1
    ncolors = min(ncolors, base.size)  # more colors than vertices is meaningless
    if ncolors <= nbase:
        return Coloring(colors=base, ncolors=nbase)
    return Coloring(colors=_subdivide(base, nbase, ncolors), ncolors=ncolors)


def _subdivide(base: np.ndarray, nbase: int, ncolors: int) -> np.ndarray:
    """Split base classes into ``ncolors`` roughly equal independent classes.

    Each base class of size ``s`` receives a share of the final palette
    proportional to ``s`` (at least one), then its members are dealt
    round-robin across its sub-colors, producing near-equal class sizes.
    """
    n = base.size
    sizes = np.bincount(base, minlength=nbase)
    # Proportional allocation with one color minimum per non-empty class.
    alloc = np.maximum((sizes / n * ncolors).astype(np.int64), (sizes > 0).astype(np.int64))
    # Adjust to hit ncolors exactly: trim from / add to the largest classes.
    while alloc.sum() > ncolors:
        candidates = np.flatnonzero(alloc > 1)
        alloc[candidates[np.argmin(sizes[candidates] / alloc[candidates])]] -= 1
    while alloc.sum() < ncolors:
        alloc[np.argmax(sizes / np.maximum(alloc, 1))] += 1

    out = np.empty(n, dtype=np.int64)
    start = np.concatenate([[0], np.cumsum(alloc)])
    for c in range(nbase):
        members = np.flatnonzero(base == c)
        if members.size == 0:
            continue
        out[members] = start[c] + np.arange(members.size) % alloc[c]
    return out
