"""repro: GeoFEM parallel iterative solvers with selective blocking.

A faithful Python reproduction of Nakajima, "Parallel Iterative Solvers
of GeoFEM with Selective Blocking Preconditioning for Nonlinear Contact
Problems on the Earth Simulator" (SC 2003).

Quickstart
----------
::

    from repro import simple_block_model, build_contact_problem, sb_bic0, cg_solve

    mesh = simple_block_model(8, 8, 6, 8, 8)
    problem = build_contact_problem(mesh, penalty=1e6)
    m = sb_bic0(problem.a, problem.groups)
    result = cg_solve(problem.a, problem.b, m)
    print(result)

Layers (see DESIGN.md):

- ``repro.fem`` — hexahedral elastic FEM with penalty contact groups.
- ``repro.sparse`` — BCSR / VBR / DJDS storage schemes.
- ``repro.reorder`` — RCM and multicolor orderings.
- ``repro.core`` + ``repro.precond`` — selective blocking and the
  IC-family preconditioners (scalar IC(0), BIC(k), SB-BIC(0), localized).
- ``repro.solvers`` — preconditioned CG.
- ``repro.parallel`` — domain partitioning, comm tables, distributed CG.
- ``repro.perfmodel`` — calibrated Earth Simulator / SR2201 model.
- ``repro.analysis`` — spectra of the preconditioned operator.
- ``repro.experiments`` — one harness per table/figure of the paper.
- ``repro.obs`` — unified observability: spans, metrics, trace export.
- ``repro.kernels`` — the substitution sweeps and sparse products, direct
  calls of scipy's compiled CSR kernels over one flat plan.
"""

from repro import kernels, obs
from repro.core import detect_contact_groups, selective_blocks_from_groups
from repro.fem import (
    ContactProblem,
    IsotropicElastic,
    Mesh,
    assemble_stiffness,
    box_mesh,
    build_contact_problem,
    simple_block_model,
    solve_nonlinear_contact,
    southwest_japan_model,
)
from repro.parallel import (
    DistributedSystem,
    contact_aware_partition,
    parallel_cg,
    partition_nodes_rcb,
)
from repro.precond import (
    BlockICFactorization,
    CoarseCorrection,
    DiagonalScaling,
    LocalizedPreconditioner,
    bic,
    sb_bic0,
    scalar_ic0,
)
from repro.solvers import (
    BlockCGResult,
    CGResult,
    block_cg_solve,
    cg_solve,
)
from repro.sparse import BCSRMatrix, VBRMatrix

__version__ = "1.0.0"

__all__ = [
    "detect_contact_groups",
    "selective_blocks_from_groups",
    "ContactProblem",
    "IsotropicElastic",
    "Mesh",
    "assemble_stiffness",
    "box_mesh",
    "build_contact_problem",
    "simple_block_model",
    "solve_nonlinear_contact",
    "southwest_japan_model",
    "DistributedSystem",
    "contact_aware_partition",
    "parallel_cg",
    "partition_nodes_rcb",
    "BlockICFactorization",
    "CoarseCorrection",
    "DiagonalScaling",
    "LocalizedPreconditioner",
    "bic",
    "sb_bic0",
    "scalar_ic0",
    "CGResult",
    "cg_solve",
    "BlockCGResult",
    "block_cg_solve",
    "BCSRMatrix",
    "VBRMatrix",
    "kernels",
    "obs",
    "__version__",
]
