"""Cuthill-McKee / reverse Cuthill-McKee orderings and their level sets.

RCM (paper section 4.2, Fig. 11a) is the classical level-set method: it
reduces fill for factorization and, on structured grids, produces
"hyperplane" level sets.  The orderings return the level-set boundaries
with the permutation, which scipy's does not expose.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _peripheral_start(adj: sp.csr_matrix, component: np.ndarray) -> int:
    """Pseudo-peripheral start vertex: minimum degree within the component."""
    deg = np.diff(adj.indptr)[component]
    return int(component[np.argmin(deg)])


def cuthill_mckee(adj: sp.csr_matrix, start: int | None = None):
    """Cuthill-McKee ordering.

    Returns
    -------
    perm:
        ``perm[k]`` = old index of the vertex at new position ``k``.
    level_ptr:
        Offsets into ``perm`` delimiting BFS level sets (levels of all
        connected components are concatenated in visit order).
    """
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    deg = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    level_ptr = [0]
    pos = 0
    while pos < n:
        remaining = np.flatnonzero(~visited)
        if start is not None and not visited[start]:
            root = start
        else:
            root = _peripheral_start(adj, remaining)
        frontier = np.array([root], dtype=np.int64)
        visited[root] = True
        while frontier.size:
            perm[pos : pos + frontier.size] = frontier
            pos += frontier.size
            level_ptr.append(pos)
            nxt = []
            for v in frontier:
                nbrs = indices[indptr[v] : indptr[v + 1]]
                new = nbrs[~visited[nbrs]]
                if new.size:
                    visited[new] = True
                    nxt.append(new[np.argsort(deg[new], kind="stable")])
            frontier = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
    return perm, np.asarray(level_ptr, dtype=np.int64)


def reverse_cuthill_mckee(adj: sp.csr_matrix, start: int | None = None):
    """RCM ordering: the CM permutation reversed (levels reversed too)."""
    perm, level_ptr = cuthill_mckee(adj, start=start)
    n = perm.size
    rperm = perm[::-1].copy()
    rlevels = (n - level_ptr)[::-1].copy()
    return rperm, rlevels
