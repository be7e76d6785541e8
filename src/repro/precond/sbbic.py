"""SB-BIC(0): block IC(0) with selective blocking reordering.

The paper's core contribution (section 3).  Strongly-coupled nodes of one
contact group form one *selective block*; the local equations of the
group are solved exactly (full LU of the dense ``3NB x 3NB`` diagonal
block) during preconditioning, while no inter-block fill is kept — so the
memory footprint stays at the BIC(0) level (Tables 2 and 4) yet the
preconditioner is robust for penalty parameters up to 1e10 (Appendix A).
"""

from __future__ import annotations

import numpy as np

from repro.core.selective_blocking import selective_block_supernodes
from repro.precond.icfact import BlockICFactorization, ICSymbolic


def sb_bic0(
    a,
    contact_groups: list[np.ndarray],
    *,
    b: int = 3,
    ncolors: int = 0,
    shift: float = 0.0,
    symbolic: ICSymbolic | None = None,
) -> BlockICFactorization:
    """Selective-blocking block IC(0) preconditioner.

    The selective blocks are multicoloured and sorted by size inside
    each colour (paper Fig. 22).  Fig. 28's layout "without reordering"
    is drawn by :mod:`repro.experiments.fig28_29_selective_details`
    from the factor's schedule, not built as a factor.

    Parameters
    ----------
    a:
        SPD stiffness matrix (scalar CSR, ``b`` DOFs per node).
    contact_groups:
        Node-index groups of strongly coupled (penalty-tied) nodes; nodes
        outside every group become size-1 selective blocks.
    symbolic:
        Cached pattern phase from an earlier factorization of a matrix
        with the same sparsity pattern (and the same contact groups);
        the super-node construction and all pattern work are skipped.
    """
    ndof = a.shape[0]
    if ndof % b:
        raise ValueError(f"matrix dimension {ndof} is not a multiple of block size {b}")
    supernodes = (
        None
        if symbolic is not None
        else selective_block_supernodes(contact_groups, ndof // b, b=b)
    )
    name = "SB-BIC(0)" if shift == 0.0 else f"SB-BIC(0)+shift{shift:g}"
    return BlockICFactorization(
        a,
        supernodes,
        fill_level=0,
        ncolors=ncolors,
        shift=shift,
        name=name,
        symbolic=symbolic,
    )
