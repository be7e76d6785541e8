"""Problem facade: mesh + materials + contact penalty + BCs -> linear system.

``build_contact_problem`` reproduces the paper's section 5.1 setup on any
of the generator meshes: penalty-tied contact groups, symmetry conditions
at ``x = 0`` / ``y = 0``, a fixed ``z = 0`` (or ``zmin``) surface, and
either a uniform surface load at ``z = zmax`` (simple block model) or a
unit body force in ``-z`` (Southwest Japan model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.fem.assembly import assemble_blocks, record_assembly_span, stored_scalars
from repro.fem.bc import (
    all_dofs,
    body_force,
    component_dofs,
    dirichlet_scalars,
    surface_load,
)
from repro.fem.contact import assemble_penalty_groups, penalty_scalars
from repro.fem.material import IsotropicElastic
from repro.fem.mesh import Mesh
from repro.sparse.bcsr import BCSRMatrix
from repro.sparse.patterns import csr_position_map
from repro.utils.timing import Laps


@dataclass
class ContactProblem:
    """Assembled SPD linear system for a contact model.

    ``a`` is the scalar CSR (BCs applied) every solve and preconditioner
    set-up reads; ``groups`` the contact groups driving selective
    blocking.  ``a_bcsr`` is the same operator in dense 3x3 blocks, for
    the experiments that count or colour node blocks — built from ``a``
    when first read, since no solve reads it.
    """

    mesh: Mesh
    a: sp.csr_matrix
    b: np.ndarray
    groups: list[np.ndarray]
    penalty: float
    fixed_dofs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def ndof(self) -> int:
        return int(self.a.shape[0])

    @cached_property
    def a_bcsr(self) -> BCSRMatrix:
        return BCSRMatrix.from_scipy(self.a, b=3)


def build_contact_problem(
    mesh: Mesh,
    penalty: float = 1e6,
    materials: IsotropicElastic | dict[int, IsotropicElastic] | None = None,
    load: str = "surface",
    load_magnitude: float = 1.0,
    symmetry: bool = True,
) -> ContactProblem:
    """Assemble the standard benchmark system on *mesh*.

    Parameters
    ----------
    penalty:
        The paper's lambda — contact-group coupling stiffness.
    load:
        ``"surface"`` = uniform ``-z`` traction on ``zmax`` (Fig. 23);
        ``"body"`` = uniform ``-z`` body force (Southwest Japan model).
    symmetry:
        Apply ``u_x = 0`` at ``xmin`` and ``u_y = 0`` at ``ymin``
        (disabled for the Southwest Japan model, per section 5.1).
    """
    a, b, fixed_dofs = _assemble(mesh, penalty, materials, load, load_magnitude, symmetry)
    return ContactProblem(
        mesh=mesh,
        a=a,
        b=b,
        groups=mesh.contact_groups,
        penalty=penalty,
        fixed_dofs=fixed_dofs,
    )


def _assemble(mesh: Mesh, penalty: float, materials, load, load_magnitude, symmetry):
    """The eliminated system of stiffness plus *penalty* times the group
    Laplacian, on the scalars worth storing: ``(a, b, fixed_dofs)``.

    The penalty is added last to the stiffness sums (what
    :meth:`ContactStructure.system` reproduces).  The mask of stored
    scalars — :func:`stored_scalars` of the stiffness part, what the
    penalty writes, minus what the elimination removes — ignores
    *penalty*.
    """
    f, fixed_dofs = _load_and_fixed_dofs(mesh, load, load_magnitude, symmetry)
    laps = Laps()
    k, diag, n_shapes = assemble_blocks(mesh, materials, mesh.contact_groups, penalty, laps)
    keep = stored_scalars(k, diag)
    keep |= penalty_scalars(k, mesh.contact_groups)
    dropped = keep.size - int(np.count_nonzero(keep))
    laps.lap("assembly.mask")
    keep &= dirichlet_scalars(k, fixed_dofs)
    a = k.to_csr(keep)
    f[fixed_dofs] = 0.0  # homogeneous conditions: nothing moves to the right-hand side
    laps.lap("assembly.dirichlet")
    record_assembly_span(mesh, laps, n_shapes, nnz_stored=a.nnz, nnz_dropped=dropped)
    return a, f, fixed_dofs


def _load_and_fixed_dofs(
    mesh: Mesh, load: str, load_magnitude: float, symmetry: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Load vector and sorted fixed DOF ids of the section 5.1 set-up."""
    if load == "surface":
        f = surface_load(mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -load_magnitude]))
    elif load == "body":
        f = body_force(mesh, np.array([0.0, 0.0, -load_magnitude]))
    else:
        raise ValueError(f"unknown load type {load!r}")

    fixed = [all_dofs(mesh.node_sets["zmin"])]
    if symmetry:
        fixed.append(component_dofs(mesh.node_sets["xmin"], 0))
        fixed.append(component_dofs(mesh.node_sets["ymin"], 1))
    return f, np.unique(np.concatenate(fixed))


@dataclass
class ContactStructure:
    """Penalty-independent decomposition of a contact system.

    The assembled, BC-eliminated operator is affine in the paper's
    penalty lambda: ``A(lambda) = A0 + lambda * A1`` with ``A0`` the
    eliminated stiffness and ``A1`` the eliminated unit-penalty Laplacian
    (elimination is linear, so it distributes over the sum).  Everything
    here — meshing, assembly, elimination, the system's sparsity pattern
    and the place of the penalty entries in it — is penalty-independent,
    which is exactly what the serve workspace caches: a request at a new
    penalty re-gathers values into the fixed pattern (:meth:`system`) and
    numerically refactors the preconditioner, with zero pattern work.

    ``a0`` lives on the system's pattern (explicit zeros where only the
    penalty writes); ``a1`` is the penalty's own entries, at ``map1``.

    ``system`` always writes into the *same* CSR object, so an IC-family
    ``refactor`` hits its identity pattern-check fast path; callers must
    finish with one system before materializing the next.
    """

    mesh: Mesh
    groups: list[np.ndarray]
    a0: sp.csr_matrix
    a1: sp.csr_matrix
    b: np.ndarray
    fixed_dofs: np.ndarray
    pattern: sp.csr_matrix
    map1: np.ndarray

    @property
    def ndof(self) -> int:
        return int(self.a0.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.mesh.n_nodes)

    def system(self, penalty: float) -> sp.csr_matrix:
        """Values-only materialization of ``A(penalty)`` on the cached
        pattern (one copy and one fancy-index update, no allocation of
        the operator's size)."""
        if penalty < 0:
            raise ValueError(f"penalty must be non-negative, got {penalty}")
        a = self.pattern
        a.data[:] = self.a0.data
        a.data[self.map1] += penalty * self.a1.data
        return a


def build_contact_structure(
    mesh: Mesh,
    materials: IsotropicElastic | dict[int, IsotropicElastic] | None = None,
    load: str = "surface",
    load_magnitude: float = 1.0,
    symmetry: bool = True,
) -> ContactStructure:
    """Assemble the penalty-independent part of the benchmark system.

    Same model setup as :func:`build_contact_problem` (loads, symmetry
    and fixed surfaces), but the contact penalty is left symbolic:
    the result materializes ``A(penalty)`` for any penalty via
    :meth:`ContactStructure.system` without re-assembling, re-eliminating
    or re-analyzing anything.
    """
    # the system at penalty zero is the stiffness on the system's pattern
    a0, b, fixed_dofs = _assemble(mesh, 0.0, materials, load, load_magnitude, symmetry)
    p1 = assemble_penalty_groups(mesh.contact_groups, 1.0, mesh.n_nodes)
    a1 = p1.to_csr(penalty_scalars(p1, mesh.contact_groups) & dirichlet_scalars(p1, fixed_dofs))
    pattern = sp.csr_matrix((np.zeros_like(a0.data), a0.indices, a0.indptr), shape=a0.shape)
    pattern.has_canonical_format = True
    return ContactStructure(
        mesh=mesh,
        groups=mesh.contact_groups,
        a0=a0,
        a1=a1,
        b=b,
        fixed_dofs=fixed_dofs,
        pattern=pattern,
        map1=csr_position_map(pattern, a1),
    )
