"""GeoFEM-style finite element substrate.

3-D linear elastic solid mechanics on tri-linear (8-node) hexahedral
meshes, with penalty/MPC contact groups — the problem class of the
paper's evaluation (section 5).
"""

from repro.fem.material import IsotropicElastic
from repro.fem.mesh import Mesh
from repro.fem.hex8 import hex8_stiffness
from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import apply_dirichlet, surface_load, body_force
from repro.fem.contact import assemble_penalty_groups
from repro.fem.model import (
    ContactProblem,
    ContactStructure,
    build_contact_problem,
    build_contact_structure,
)
from repro.fem.generators import (
    box_mesh,
    simple_block_model,
    southwest_japan_model,
)
from repro.fem.nonlinear import NonlinearContactResult, solve_nonlinear_contact
from repro.fem.mpc import reduce_system, solve_tied_exact, tied_contact_transformation

__all__ = [
    "reduce_system",
    "solve_tied_exact",
    "tied_contact_transformation",
    "IsotropicElastic",
    "Mesh",
    "hex8_stiffness",
    "assemble_stiffness",
    "apply_dirichlet",
    "surface_load",
    "body_force",
    "assemble_penalty_groups",
    "ContactProblem",
    "ContactStructure",
    "build_contact_problem",
    "build_contact_structure",
    "box_mesh",
    "simple_block_model",
    "southwest_japan_model",
    "NonlinearContactResult",
    "solve_nonlinear_contact",
]
