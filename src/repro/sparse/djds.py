"""Descending-order jagged diagonal storage (DJDS / PDJDS).

Paper sections 4.3-4.4 and 4.7.  Within each color, rows are permuted
into decreasing number of off-diagonal entries and the matrix is stored
by *jagged diagonals*: the j-th diagonal holds the j-th off-diagonal of
every row that has one, giving innermost loops of length ~(rows in
color) instead of ~(entries in row).  Parallel DJDS (PDJDS) additionally
deals rows cyclically over the PEs of an SMP node for load balance.

Selective-blocking specifics (section 4.7):

- within each PE the selective blocks are re-sorted by *block size*
  (Fig. 22) so the full-LU kernels run without per-block ``if``;
- that breaks the monotone decrease of off-diagonal counts, so *dummy
  elements* pad the profile back to non-increasing (Fig. 21).

Both the storage itself (with a verifying matvec) and the statistics the
Earth Simulator performance model consumes (loop lengths, load
imbalance, dummy ratio — Figs. 26-29) live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.reorder.coloring import Coloring
from repro.utils.validate import check_square_csr


def _size_runs(sizes_seq: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of equal block size: [(start, end)) pairs."""
    if sizes_seq.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(sizes_seq)) + 1
    bounds = np.concatenate([[0], breaks, [sizes_seq.size]])
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


@dataclass
class DJDSStatistics:
    """Structure statistics of a (P)DJDS layout.

    ``loop_lengths`` holds the length of every innermost vector loop
    (one per color x PE x jagged diagonal).  ``load_imbalance_percent``
    is the paper's Fig. 29 metric: ``100 * (max - min) / mean`` rows per
    PE.  ``dummy_percent`` is the share of padded (dummy) off-diagonal
    entries among all stored off-diagonals.
    """

    loop_lengths: np.ndarray
    rows_per_pe: np.ndarray
    n_offdiag: int
    n_dummy: int
    ncolors: int
    npe: int

    @property
    def average_vector_length(self) -> float:
        if self.loop_lengths.size == 0:
            return 0.0
        return float(self.loop_lengths.mean())

    @property
    def load_imbalance_percent(self) -> float:
        r = self.rows_per_pe
        return float(100.0 * (r.max() - r.min()) / max(r.mean(), 1e-30))

    @property
    def dummy_percent(self) -> float:
        denom = self.n_offdiag + self.n_dummy
        return float(100.0 * self.n_dummy / denom) if denom else 0.0


@dataclass
class DJDSMatrix:
    """PDJDS-stored square matrix (diagonal kept separately).

    ``loops`` is a list of ``(rows, cols, vals)`` triples — one innermost
    vector loop each; ``rows``/``cols`` are original matrix indices.
    Dummy padding entries appear as ``(r, r, 0.0)`` and therefore do not
    change the matvec, only the operation census (as on the real
    machine).
    """

    n: int
    diag: np.ndarray
    loops: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    stats: DJDSStatistics

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        y = self.diag * x
        for rows, cols, vals in self.loops:
            y[rows] += vals * x[cols]
        return y


def build_djds(
    a,
    coloring: Coloring,
    npe: int = 8,
    *,
    sizes: np.ndarray | None = None,
    sort_by_size: bool = False,
    pad_dummies: bool = True,
) -> DJDSMatrix:
    """Build the PDJDS layout of *a* under *coloring*.

    Parameters
    ----------
    a:
        Square scalar matrix (rows = the coloring's vertices).
    npe:
        PEs per SMP node for the cyclic distribution (Earth Simulator: 8).
    sizes:
        Optional per-row block sizes (selective blocks); required when
        ``sort_by_size`` is set.
    sort_by_size:
        Re-sort rows inside each PE by descending block size (Fig. 22).
    pad_dummies:
        Pad off-diagonal counts back to a non-increasing profile with
        zero-valued dummy entries (Fig. 21).
    """
    a = check_square_csr(a)
    n = a.shape[0]
    if coloring.n != n:
        raise ValueError(f"coloring covers {coloring.n} vertices, matrix has {n} rows")
    if npe < 1:
        raise ValueError(f"npe must be >= 1, got {npe}")
    if sort_by_size and sizes is None:
        raise ValueError("sort_by_size requires per-row sizes")

    diag = a.diagonal().copy()
    indptr, indices, data = a.indptr, a.indices, a.data
    counts_all = np.diff(indptr) - (a.diagonal() != 0).astype(np.int64)
    # row-wise off-diagonal extraction helpers
    loops: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    loop_lengths: list[int] = []
    rows_per_pe = np.zeros(npe, dtype=np.int64)
    n_dummy = 0
    n_offdiag = 0

    for c in range(coloring.ncolors):
        members = coloring.class_members(c)
        if members.size == 0:
            continue
        cnt = counts_all[members]
        # DJDS: descending off-diagonal count within the color
        order = np.argsort(-cnt, kind="stable")
        members = members[order]
        cnt = cnt[order]
        for pe in range(npe):
            rows_pe = members[pe::npe]
            cnt_pe = cnt[pe::npe]
            if rows_pe.size == 0:
                continue
            rows_per_pe[pe] += rows_pe.size
            if sort_by_size:
                o = np.argsort(-sizes[rows_pe], kind="stable")
                rows_pe, cnt_pe = rows_pe[o], cnt_pe[o]
            eff = cnt_pe.copy()
            if pad_dummies:
                # make non-increasing: raise each to the running max below
                eff = np.maximum.accumulate(eff[::-1])[::-1]
            n_dummy += int((eff - cnt_pe).sum())
            n_offdiag += int(cnt_pe.sum())
            ndiags = int(eff.max()) if eff.size else 0
            # per-row off-diagonal column/value lists (diag excluded)
            row_cols = []
            row_vals = []
            for r in rows_pe:
                lo, hi = indptr[r], indptr[r + 1]
                cc = indices[lo:hi]
                vv = data[lo:hi]
                keep = cc != r
                row_cols.append(cc[keep])
                row_vals.append(vv[keep])
            for j in range(ndiags):
                active = eff >= j + 1
                rr = rows_pe[active]
                cols_j = np.empty(rr.size, dtype=np.int64)
                vals_j = np.zeros(rr.size)
                for t, k in enumerate(np.flatnonzero(active)):
                    if j < cnt_pe[k]:
                        cols_j[t] = row_cols[k][j]
                        vals_j[t] = row_vals[k][j]
                    else:  # dummy element: harmless self-reference, value 0
                        cols_j[t] = rows_pe[k]
                        vals_j[t] = 0.0
                # A vector loop must stop where the block size changes
                # (per-block dispatch, Fig. 22): with size-sorted rows one
                # loop covers each size class; unsorted rows fragment.
                if sizes is not None:
                    runs = _size_runs(sizes[rr])
                else:
                    runs = [(0, rr.size)]
                for a0, b0 in runs:
                    loops.append((rr[a0:b0], cols_j[a0:b0], vals_j[a0:b0]))
                    loop_lengths.append(b0 - a0)

    stats = DJDSStatistics(
        loop_lengths=np.asarray(loop_lengths, dtype=np.int64),
        rows_per_pe=rows_per_pe,
        n_offdiag=n_offdiag,
        n_dummy=n_dummy,
        ncolors=coloring.ncolors,
        npe=npe,
    )
    return DJDSMatrix(n=n, diag=diag, loops=loops, stats=stats)
