"""The cold set-up path against independent, loop-based references.

The element kernel, the single sort-and-reduce assembly with its
keep-mask Dirichlet elimination, and the loop-free symbolic analysis are
each compared here with a deliberately slow re-derivation written in
this file (per element / per Gauss point / per super-node Python loops),
so a vectorization slip cannot hide behind the code it replaced.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from repro import obs
from repro.core.selective_blocking import (
    selective_block_supernodes,
    selective_blocks_from_groups,
)
from repro.experiments.workloads import (
    block_problem,
    block_structure,
    swjapan_mesh,
    swjapan_problem,
    swjapan_structure,
    table2_block_mesh,
)
from repro.fem.assembly import assemble_stiffness, stored_scalars
from repro.fem.bc import (
    all_dofs,
    apply_dirichlet,
    body_force,
    component_dofs,
    surface_load,
)
from repro.fem.contact import add_penalty, penalty_coo_blocks
from repro.fem.generators import simple_block_model
from repro.fem.hex8 import distinct_elements, hex8_stiffness, shape_gradients_reference
from repro.fem.material import IsotropicElastic
from repro.fem.model import build_contact_problem
from repro.precond import bic, sb_bic0, scalar_ic0
from repro.precond.icfact import ICSymbolic
from repro.solvers.cg import cg_solve
from repro.sparse.bcsr import BCSRMatrix
from repro.sparse.vbr import supernode_maps
from repro.utils.validate import check_contact_groups

SOFT = IsotropicElastic(1.0, 0.3)
STIFF = IsotropicElastic(7.5, 0.22)


# ---------------------------------------------------------------------
# element kernel
# ---------------------------------------------------------------------


def _reference_element_stiffness(xyz: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One hex8 stiffness: sum over Gauss points of ``B^T D B |J|``."""
    ke = np.zeros((24, 24))
    for dn in shape_gradients_reference():  # (node, 3) at one Gauss point
        jac = dn.T @ xyz
        grad = dn @ np.linalg.inv(jac).T  # (node, 3): dN/dx
        bmat = np.zeros((6, 24))
        for node in range(8):
            gx, gy, gz = grad[node]
            bmat[:, 3 * node : 3 * node + 3] = [
                [gx, 0, 0],
                [0, gy, 0],
                [0, 0, gz],
                [gy, gx, 0],
                [0, gz, gy],
                [gz, 0, gx],
            ]
        ke += bmat.T @ d @ bmat * np.linalg.det(jac)
    return ke


def _warped_mesh(seed: int = 3):
    mesh = simple_block_model(3, 2, 2, 2, 3)
    rng = np.random.default_rng(seed)
    coords = mesh.coords + 0.08 * rng.uniform(-1, 1, mesh.coords.shape)
    return coords, mesh.hexes


class TestElementKernel:
    def test_matches_gauss_point_loop_on_warped_hexes(self):
        coords, hexes = _warped_mesh()
        assert distinct_elements(coords, hexes)[0].size == hexes.shape[0]  # nothing to share
        ke = hex8_stiffness(coords, hexes, SOFT)
        d = SOFT.elasticity_matrix()
        for e, conn in enumerate(hexes):
            ref = _reference_element_stiffness(coords[conn], d)
            assert np.abs(ke[e] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_per_element_constitutive_matrices(self):
        coords, hexes = _warped_mesh(seed=5)
        dmat = np.where(
            (np.arange(hexes.shape[0]) % 2 == 0)[:, None, None],
            SOFT.elasticity_matrix(),
            STIFF.elasticity_matrix(),
        )
        ke = hex8_stiffness(coords, hexes, dmat)
        for e, conn in enumerate(hexes):
            ref = _reference_element_stiffness(coords[conn], dmat[e])
            assert np.abs(ke[e] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_batches_are_independent_of_batch_size(self, monkeypatch):
        """More elements than one batch: the seams must not show."""
        import repro.fem.hex8 as hex8

        coords, hexes = _warped_mesh()
        whole = hex8_stiffness(coords, hexes, SOFT)
        monkeypatch.setattr(hex8, "_CHUNK", 5)
        assert np.array_equal(hex8.hex8_stiffness(coords, hexes, SOFT), whole)

    def test_inverted_elements_counted_over_all_batches(self, monkeypatch):
        import repro.fem.hex8 as hex8

        coords, hexes = _warped_mesh()
        flipped = hexes.copy()
        flipped[[1, 9]] = flipped[[1, 9]][:, [4, 5, 6, 7, 0, 1, 2, 3]]
        monkeypatch.setattr(hex8, "_CHUNK", 4)
        with pytest.raises(ValueError, match=r"^16 \(element, gauss point\) pairs"):
            hex8.hex8_stiffness(coords, flipped, SOFT)

    def test_uniform_grid_has_one_matrix_per_material(self):
        """Fig. 23's block model: every element of one material gets the
        same bytes, two materials give two matrices — and the assembled
        sum is that of the per-element Gauss-point loop."""
        mesh = simple_block_model(3, 2, 2, 2, 3)
        ke = hex8_stiffness(mesh.coords, mesh.hexes, SOFT)
        assert (ke == ke[0]).all()
        assert distinct_elements(mesh.coords, mesh.hexes)[0].size == 1

        mesh.material_ids = np.arange(mesh.n_elem) % 2
        materials = {0: SOFT, 1: STIFF}
        first, inverse = distinct_elements(mesh.coords, mesh.hexes, mesh.material_ids)
        assert first.size == 2 and np.array_equal(mesh.material_ids[first][inverse], mesh.material_ids)
        with obs.observe() as tracer:
            k = assemble_stiffness(mesh, materials)
        (span,) = tracer.find("assembly")
        assert (span.attrs["n_elem"], span.attrs["n_shapes"]) == (mesh.n_elem, 2)
        dense = np.zeros((mesh.ndof, mesh.ndof))
        for conn, mid in zip(mesh.hexes, mesh.material_ids):
            dofs = (3 * conn[:, None] + np.arange(3)).ravel()
            dense[np.ix_(dofs, dofs)] += _reference_element_stiffness(
                mesh.coords[conn], materials[mid].elasticity_matrix()
            )
        assert np.abs(k.toarray() - dense).max() <= 1e-12 * np.abs(dense).max()


# ---------------------------------------------------------------------
# assembly + elimination
# ---------------------------------------------------------------------


def _reference_apply_dirichlet(a, b, fixed_dofs, values=0.0):
    """COO round trip: zero fixed rows/columns, restore the diagonal."""
    a = sp.csr_matrix(a)
    n = a.shape[0]
    fixed_dofs = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
    vals = np.broadcast_to(np.asarray(values, dtype=np.float64), fixed_dofs.shape)
    b = np.asarray(b, dtype=np.float64).copy()
    xfix = np.zeros(n)
    xfix[fixed_dofs] = vals
    b -= a @ xfix
    diag = a.diagonal()
    mask = np.zeros(n, dtype=bool)
    mask[fixed_dofs] = True
    coo = a.tocoo()
    keep = ~(mask[coo.row] | mask[coo.col])
    a_mod = sp.csr_matrix(
        (
            np.concatenate([coo.data[keep], diag[fixed_dofs]]),
            (
                np.concatenate([coo.row[keep], fixed_dofs]),
                np.concatenate([coo.col[keep], fixed_dofs]),
            ),
        ),
        shape=a.shape,
    )
    a_mod.sum_duplicates()
    a_mod.sort_indices()
    b[fixed_dofs] = diag[fixed_dofs] * vals
    return a_mod, b


def _reference_stored(a, k_stiff, groups) -> sp.csr_matrix:
    """What the assembly keeps of the eliminated system *a*, judged entry
    by entry in scalar space: the diagonal, what the contact penalty
    writes, and a stiffness coupling unless both ``k_ij`` and ``k_ji``
    are within 64 eps of ``sqrt(k_ii k_jj)`` (stiffness *k_stiff* alone,
    before elimination and without the penalty)."""
    group_of = np.full(a.shape[0] // 3, -1)
    for g, members in enumerate(groups):
        group_of[members] = g
    kd = k_stiff.diagonal()
    coo = sp.csr_matrix(a).tocoo()
    rows, cols, vals = [], [], []
    for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
        bound = 64 * np.finfo(float).eps * np.sqrt(kd[i] * kd[j])
        tied = group_of[i // 3] >= 0 and group_of[i // 3] == group_of[j // 3] and i % 3 == j % 3
        if i == j or tied or abs(k_stiff[i, j]) > bound or abs(k_stiff[j, i]) > bound:
            rows.append(i), cols.append(j), vals.append(v)
    return sp.csr_matrix((vals, (rows, cols)), shape=a.shape)


def _fixed_dofs(mesh, symmetry: bool) -> np.ndarray:
    fixed = [all_dofs(mesh.node_sets["zmin"])]
    if symmetry:
        fixed.append(component_dofs(mesh.node_sets["xmin"], 0))
        fixed.append(component_dofs(mesh.node_sets["ymin"], 1))
    return np.unique(np.concatenate(fixed))


def _swjapan_small():
    mesh = swjapan_mesh(0.6)
    materials = {mid: SOFT if mid % 2 else STIFF for mid in np.unique(mesh.material_ids)}
    return mesh, materials, "body"


def _block_small():
    return table2_block_mesh(0.6), None, "surface"


@pytest.mark.parametrize("model", [_block_small, _swjapan_small])
@pytest.mark.parametrize("symmetry", [True, False])
class TestSinglePassAssembly:
    def test_matches_multi_pass_composition(self, model, symmetry):
        mesh, materials, load = model()
        penalty = 3.7e5
        p = build_contact_problem(
            mesh, penalty=penalty, materials=materials, load=load, symmetry=symmetry
        )

        stiffness = assemble_stiffness(mesh, materials)
        k = add_penalty(stiffness, mesh.contact_groups, penalty)
        f = (
            surface_load(mesh, mesh.node_sets["zmax"], np.array([0.0, 0.0, -1.0]))
            if load == "surface"
            else body_force(mesh, np.array([0.0, 0.0, -1.0]))
        )
        fixed = _fixed_dofs(mesh, symmetry)
        a_full, b_ref = _reference_apply_dirichlet(k.to_csr(), f, fixed)
        a_ref = _reference_stored(a_full, stiffness.to_csr().todok(), mesh.contact_groups)
        assert a_ref.nnz <= a_full.nnz

        assert np.array_equal(p.a.indptr, a_ref.indptr)
        assert np.array_equal(p.a.indices, a_ref.indices)
        scale = np.abs(a_ref.data).max()
        assert np.abs(p.a.data - a_ref.data).max() <= 1e-12 * scale
        assert np.array_equal(p.b, b_ref)
        assert np.array_equal(p.fixed_dofs, fixed)
        # the canonical-format flag set on the masked arrays is truthful
        assert p.a.has_canonical_format
        assert sp.csr_matrix((p.a.data, p.a.indices, p.a.indptr)).has_canonical_format

        # the block view — built when first read — is the same matrix in
        # dense blocks: unstored scalars zero, every diagonal block there,
        # an off-diagonal block that stores nothing dropped
        assert "a_bcsr" not in vars(p)
        blocks = {}
        coo = p.a.tocoo()
        for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            blocks.setdefault((i // 3, j // 3), np.zeros((3, 3)))[i % 3, j % 3] = v
        pairs = sorted(blocks)
        assert p.a_bcsr is vars(p)["a_bcsr"]
        assert np.array_equal(p.a_bcsr.block_rows(), [i for i, _ in pairs])
        assert np.array_equal(p.a_bcsr.indices, [j for _, j in pairs])
        assert np.array_equal(p.a_bcsr.values, [blocks[ij] for ij in pairs])
        assert {(i, i) for i in range(mesh.n_nodes)} <= set(pairs)

    def test_prescribed_values_move_to_the_rhs(self, model, symmetry):
        mesh, materials, _load = model()
        k = assemble_stiffness(mesh, materials).to_csr()
        fixed = _fixed_dofs(mesh, symmetry)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(mesh.ndof)
        vals = rng.standard_normal(fixed.size)
        a, b = apply_dirichlet(k, f, fixed, values=vals)
        a_ref, b_ref = _reference_apply_dirichlet(k, f, fixed, values=vals)
        assert np.array_equal(a.indptr, a_ref.indptr)
        assert np.array_equal(a.indices, a_ref.indices)
        assert np.array_equal(a.data, a_ref.data)
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()
        # the eliminated system reproduces the prescribed values
        x = spsolve(a.tocsc(), b)
        assert np.allclose(x[fixed], vals, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "structure, problem",
    [(block_structure, block_problem), (swjapan_structure, swjapan_problem)],
)
def test_affine_system_matches_the_add_penalty_oracle(structure, problem):
    """``A0 + lambda * A1`` against the multi-pass composition (the
    stiffness plus :func:`add_penalty`, then the elimination): the
    pattern the problem builder stores, and values within the round-off
    bound of the stiffness sums (the scalars the assembly drops)."""
    s = structure(0.6)
    stiffness = assemble_stiffness(s.mesh)
    for penalty in (1e2, 1e6, 4.2e6, 1e10):
        p = problem(0.6, penalty)
        a = s.system(penalty)
        assert np.array_equal(a.indptr, p.a.indptr)
        assert np.array_equal(a.indices, p.a.indices)
        assert np.array_equal(s.b, p.b)
        k = add_penalty(stiffness, s.groups, penalty)
        oracle, _ = apply_dirichlet(k.to_csr(), s.b, s.fixed_dofs)
        assert abs(oracle - a).max() <= 64 * np.finfo(float).eps * abs(a.diagonal()).max()


# ---------------------------------------------------------------------
# the one rule of what the assembly stores
# ---------------------------------------------------------------------


def _stored_fraction(mesh) -> float:
    k = assemble_stiffness(mesh)
    diag = k.to_bsr().diagonal().reshape(k.n, k.b)
    return float(stored_scalars(k, diag).mean())


class TestStoredScalars:
    @pytest.mark.parametrize("scale", [0.7, 2.0])
    def test_swjapan_stiffness_is_stored_whole(self, scale):
        """No coupling of the curved model is round-off: the smallest
        relative magnitude is 1.5e-5 / 6.1e-7, eight decades above the
        bound."""
        assert _stored_fraction(swjapan_mesh(scale)) == 1.0

    @pytest.mark.parametrize("scale", [0.6, 1.5])
    def test_block_system_drops_a_third(self, scale):
        """The axis-aligned block model used to store the quadrature
        round-off of its analytically zero couplings (<= 9.7e-16
        relative, then nothing below 5.7e-3) and the penalty blocks'
        explicit zeros: 30-36 % of the system's scalars."""
        p = block_problem(scale)
        k = add_penalty(assemble_stiffness(p.mesh), p.mesh.contact_groups, p.penalty)
        unpruned, _ = apply_dirichlet(k.to_csr(), p.b, p.fixed_dofs)
        assert 0.30 <= 1.0 - p.a.nnz / unpruned.nnz <= 0.36
        assert abs(unpruned - p.a).max() <= 64 * np.finfo(float).eps * abs(p.a.diagonal()).max()

    @pytest.mark.parametrize("problem", [block_problem, swjapan_problem])
    def test_pattern_ignores_the_penalty_and_is_symmetric(self, problem):
        systems = [problem(0.6, penalty) for penalty in (1e2, 1e6, 1e10)]
        a = systems[0].a
        for p in systems[1:]:
            assert np.array_equal(p.a.indptr, a.indptr)
            assert np.array_equal(p.a.indices, a.indices)
        pattern = sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
        assert (pattern - pattern.T).nnz == 0
        # every diagonal is stored; an eliminated row stores nothing else
        assert (pattern.diagonal() == 1.0).all()
        fixed = systems[0].fixed_dofs
        assert fixed.size and (np.diff(a.indptr)[fixed] == 1).all()
        assert (pattern[:, fixed].sum(axis=0) == 1).all()

    def test_threshold_decides_per_scalar_and_keeps_both_triangles(self):
        """Diagonals stay, a coupling goes only when both triangles are
        within the bound, and the judgement uses the diagonal passed in."""
        eps = np.finfo(float).eps
        k = BCSRMatrix.from_coo_blocks(
            2,
            [0, 1, 0, 1],
            [0, 1, 1, 0],
            np.array([
                np.diag([4.0, 1.0, 0.0]),
                np.eye(3),
                [[60 * eps, 200 * eps, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-300]],
                [[60 * eps, 0.0, 0.0], [60 * eps, 0.0, 0.0], [0.0, 0.0, 0.0]],
            ]),
        )
        diag = np.array([[4.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        d00, d01, d10, d11 = stored_scalars(k, diag)  # blocks in (row, column) order
        assert np.array_equal(d00, np.eye(3, dtype=bool)) and np.array_equal(d11, d00)
        # x0-x1: 60 eps <= 64 eps * sqrt(4 * 1) in both triangles -> dropped;
        # x0-y1: 200 eps passes above, so the 60 eps below stays with it;
        # z0-z1: anything non-zero beats the zero diagonal of z0
        upper = np.zeros((3, 3), dtype=bool)
        upper[0, 1] = upper[2, 2] = True
        assert np.array_equal(d01, upper) and np.array_equal(d10, upper.T)
        # judged with the diagonal passed in: a millionth of it, and 60 eps counts
        assert stored_scalars(k, 1e-6 * diag)[1].sum() == 3


@pytest.mark.parametrize("penalty", [1e2, 1e6, 1e10])
def test_pruned_system_answers_the_unpruned_operator(penalty):
    """Solve the system as assembled, directly and by SB-BIC(0) CG at the
    harness tolerance; measure the residual against the multi-pass
    reference operator that keeps every scalar."""
    p = block_problem(0.8, penalty)
    k = add_penalty(assemble_stiffness(p.mesh), p.mesh.contact_groups, penalty)
    a_full, b_full = _reference_apply_dirichlet(k.to_csr(), p.b, p.fixed_dofs)
    assert a_full.nnz > 1.3 * p.a.nnz and np.array_equal(b_full, p.b)
    size = np.linalg.norm(p.b)
    x = spsolve(p.a.tocsc(), p.b)
    own, full = np.linalg.norm(p.b - p.a @ x), np.linalg.norm(p.b - a_full @ x)
    assert abs(full - own) <= 1e-6 * own + 1e-14 * size
    result = cg_solve(p.a, p.b, sb_bic0(p.a, p.groups), eps=1e-8)
    assert result.converged
    if penalty <= 1e6:  # above, no solver's residual gets there (1.2e-4 for the direct one)
        assert full <= 1e-7 * size
        assert np.linalg.norm(p.b - a_full @ result.x) <= 1e-7 * size


def test_from_coo_blocks_sums_duplicates_in_input_order():
    rng = np.random.default_rng(2)
    n, nt = 7, 60
    rows = rng.integers(0, n, nt)
    cols = rng.integers(0, n, nt)
    blocks = rng.standard_normal((nt, 3, 3)) * 10.0 ** rng.integers(-8, 8, (nt, 1, 1))
    m = BCSRMatrix.from_coo_blocks(n, rows, cols, blocks)
    dense = np.zeros((n, n, 3, 3))
    for r, c, blk in zip(rows, cols, blocks):
        dense[r, c] += blk
    got = np.zeros_like(dense)
    got[m.block_rows(), m.indices] = m.values
    assert np.array_equal(got, dense)
    # sorted, duplicate-free, every diagonal block present
    keys = m.block_rows() * n + m.indices
    assert (np.diff(keys) > 0).all()
    assert set(zip(range(n), range(n))) <= set(zip(m.block_rows(), m.indices))


def test_add_blocks_continues_one_sum_whatever_the_batching():
    """The streamed reducer: blocks added batch by batch give the bits
    of one pass over all of them, and of the triplet-by-triplet loop."""
    rng = np.random.default_rng(8)
    n, nt = 6, 200
    rows, cols = rng.integers(0, n, nt), rng.integers(0, n, nt)
    blocks = rng.standard_normal((nt, 3, 3)) * 10.0 ** rng.integers(-8, 8, (nt, 1, 1))
    whole = BCSRMatrix.from_coo_blocks(n, rows, cols, blocks)
    m, slot = BCSRMatrix.from_block_pairs(n, rows, cols)
    assert not m.values.any() and np.array_equal(m.indices, whole.indices)
    for t0 in range(0, nt, 7):
        m.add_blocks(slot[t0 : t0 + 7], blocks[t0 : t0 + 7])
    loop = np.zeros_like(m.values)
    for t in range(nt):
        loop[slot[t]] += blocks[t]
    assert np.array_equal(m.values, whole.values) and np.array_equal(m.values, loop)
    with pytest.raises(ValueError, match="blocks must have shape"):
        m.add_blocks(slot[:3], blocks[:4])


def test_assembled_system_is_independent_of_batch_size(monkeypatch):
    """Element batches stream into one ordered sum: the seams between
    them (and between distinct-shape groups inside them) must not show."""
    import repro.fem.hex8 as hex8

    mesh, materials, load = _swjapan_small()
    kwargs = dict(penalty=1e6, materials=materials, load=load, symmetry=False)
    whole = build_contact_problem(mesh, **kwargs)
    k = assemble_stiffness(mesh, materials)
    monkeypatch.setattr(hex8, "_CHUNK", 7)
    assert np.array_equal(build_contact_problem(mesh, **kwargs).a.data, whole.a.data)
    assert np.array_equal(assemble_stiffness(mesh, materials).values, k.values)


def test_build_contact_problem_holds_no_triplet_arrays():
    """The streamed assembly never holds what is about to be summed away:
    at block 1.5 (19 890 DOF) the call peaks at 2.7 times the 10.0 MB it
    returns, 27.1 MB above its start — the 11 MB of block values, the
    system they are copied into and the scalar mask.  It peaked at 4.4
    times (44 MB) while the round-off mask was computed in float and the
    kept scalars were cut out of a whole-matrix CSR expansion, and at
    3.8 times 21.8 MB (83 MB) when the whole-mesh element matrices,
    their triplet copy and the copy joined with the penalty triplets
    existed, 24 MB each."""
    mesh = table2_block_mesh(1.5)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        p = build_contact_problem(mesh, penalty=1e6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = p.a.data.nbytes + p.a.indices.nbytes + p.a.indptr.nbytes + p.b.nbytes
    assert returned <= held - start <= 1.05 * returned  # the system and nothing else
    assert "a_bcsr" not in vars(p)  # no solve reads it: not built, not held
    assert peak - start <= 29.8e6
    assert peak - start <= 2.99 * returned


def test_penalty_triplets_match_group_loop():
    groups = [np.array([4, 1]), np.array([7, 2, 9]), np.array([0, 3, 5, 8])]
    lam = 2.5e4
    rows, cols, blocks = penalty_coo_blocks(groups, lam, 10)
    ref = []
    for g in groups:
        for i in g:
            for j in g:
                ref.append((i, j, ((g.size - 1) * lam if i == j else -lam)))
    assert [(r, c, b[0, 0]) for r, c, b in zip(rows, cols, blocks)] == ref
    assert np.array_equal(blocks, blocks[:, :1, :1] * np.eye(3))
    r0, c0, b0 = penalty_coo_blocks([], lam, 10)
    assert r0.size == c0.size == 0 and b0.shape == (0, 3, 3)


def test_load_vectors_match_corner_loops():
    mesh = swjapan_mesh(0.6)
    traction = np.array([0.2, -0.1, -1.0])
    f = surface_load(mesh, mesh.node_sets["zmax"], traction)
    from repro.fem.bc import boundary_faces

    faces = boundary_faces(mesh, mesh.node_sets["zmax"])
    p = mesh.coords[faces]
    area = 0.5 * np.linalg.norm(np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 1]), axis=1)
    ref = np.zeros(mesh.ndof)
    for corner in range(4):
        for face, ar in zip(faces, area):
            ref[3 * face[corner] : 3 * face[corner] + 3] += ar / 4.0 * traction
    assert np.array_equal(f, ref)

    from repro.fem.assembly import element_volumes

    g = body_force(mesh, traction)
    ref = np.zeros(mesh.ndof)
    vol = element_volumes(mesh)
    for corner in range(8):
        for conn, v in zip(mesh.hexes, vol):
            ref[3 * conn[corner] : 3 * conn[corner] + 3] += v / 8.0 * traction
    assert np.array_equal(g, ref)


# ---------------------------------------------------------------------
# symbolic analysis
# ---------------------------------------------------------------------


def _reference_supernode_maps(supernodes, ndof):
    snode_of = np.full(ndof, -1, dtype=np.int64)
    local = np.full(ndof, -1, dtype=np.int64)
    for i, dofs in enumerate(supernodes):
        dofs = np.asarray(dofs, dtype=np.int64)
        if (snode_of[dofs] >= 0).any():
            raise ValueError(f"super-node {i} overlaps an earlier super-node")
        snode_of[dofs] = i
        local[dofs] = np.arange(dofs.size)
    if (snode_of < 0).any():
        raise ValueError("super-nodes do not cover all DOFs")
    return snode_of, local


def _reference_symbolic(a, supernodes, colors):
    """Ordering, level-0 lower pattern, color schedule and A->L scatter
    map by per-super-node / per-entry loops (colors taken as given)."""
    ndof = a.shape[0]
    sizes0 = np.array([len(s) for s in supernodes])
    order = np.lexsort((np.arange(len(supernodes)), -sizes0, colors))
    reordered = [np.asarray(supernodes[s]) for s in order]
    perm_dof = np.concatenate(reordered)
    snode_of, local = _reference_supernode_maps(reordered, ndof)
    sizes = sizes0[order]

    coo = a.tocoo()
    lower = [set() for _ in reordered]
    for r, c in zip(snode_of[coo.row], snode_of[coo.col]):
        if r != c:
            lower[max(r, c)].add(min(r, c))
    indptr, indices = [0], []
    for i, cols in enumerate(lower):
        indices.extend(sorted(cols) + [i])  # diagonal last
        indptr.append(len(indices))
    indptr, indices = np.array(indptr), np.array(indices)

    schedule = [np.flatnonzero(colors[order] == c) for c in range(colors.max() + 1)]
    schedule = [g for g in schedule if g.size]

    brow = np.repeat(np.arange(len(reordered)), np.diff(indptr))
    boff = np.concatenate([[0], np.cumsum(sizes[brow] * sizes[indices])])
    where = {(i, j): p for p, (i, j) in enumerate(zip(brow, indices))}
    src, dst = [], []
    for e, (r, c) in enumerate(zip(coo.row, coo.col)):
        bi, bj = snode_of[r], snode_of[c]
        if bi >= bj:
            src.append(e)
            dst.append(boff[where[bi, bj]] + local[r] * sizes[bj] + local[c])
    return perm_dof, indptr, indices, schedule, np.array(src), np.array(dst)


@pytest.fixture(scope="module")
def small_problem():
    return build_contact_problem(table2_block_mesh(0.6), penalty=1e6)


@pytest.fixture(scope="module")
def small_swjapan():
    return swjapan_problem(0.7)


class TestSymbolicAnalysis:
    def test_matches_loop_reference(self, small_problem):
        p = small_problem
        supernodes = selective_block_supernodes(p.groups, p.mesh.n_nodes)
        sym = ICSymbolic(p.a, supernodes)
        perm_dof, indptr, indices, schedule, src, dst = _reference_symbolic(
            p.a, supernodes, sym.coloring.colors
        )
        assert np.array_equal(sym.perm_dof, perm_dof)
        assert np.array_equal(sym.iperm_dof[perm_dof], np.arange(p.ndof))
        assert np.array_equal(sym.pattern.indptr, indptr)
        assert np.array_equal(sym.pattern.indices, indices)
        assert len(sym.schedule) == len(schedule)
        for got, ref in zip(sym.schedule, schedule):
            assert np.array_equal(got, ref)
        assert np.array_equal(np.flatnonzero(sym.scatter_src), src)
        assert np.array_equal(sym.scatter_dst, dst)
        assert sym.nnz_fill == 0

    @pytest.mark.parametrize(
        "family, scatter, gathers, plan",
        [
            ("ic0", "d183edf0eaea4bec", "fec5c218b6e384b8", "e2c15433d37159c8"),
            ("bic0", "a4aad5b6aa38327c", "08b0e6751ccf64f3", "4015c83c4ba6ab6c"),
            ("bic1", "e4690458dac2eecb", "95f076c489be2083", "95902323b9826f1a"),
            ("sbbic0", "3c63e418aed5af57", "88c7280b3066a5c2", "ac6a0436b9a6ad5e"),
        ],
    )
    def test_maps_are_those_of_the_per_scalar_lookup(
        self, small_problem, family, scatter, gathers, plan
    ):
        """Scatter map, gather maps and plan structure, digested at the
        commit before the run-head lookup and the int32 gather maps
        (PR 21): the same numbers."""
        p = small_problem
        make = {
            "ic0": lambda: scalar_ic0(p.a),
            "bic0": lambda: bic(p.a, fill_level=0),
            "bic1": lambda: bic(p.a, fill_level=1),
            "sbbic0": lambda: sb_bic0(p.a, p.groups),
        }[family]
        sym = make().symbolic

        def digest(*arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
            return h.hexdigest()[:16]

        # the scatter's source is a mask over A's entries; its
        # flatnonzero is the index map digested then
        assert digest(np.flatnonzero(sym.scatter_src), sym.scatter_dst) == scatter
        assert digest(sym.fwd_gather, sym.bwd_gather) == gathers
        assert digest(
            sym.plan_perm, sym.group_ptr, sym.dinv_indptr, sym.dinv_indices,
            *sym.fwd_struct, *sym.bwd_struct,
        ) == plan
        # the gather maps ride through the plan's transposition in its
        # index dtype; the scatter's destination indexes by fancy
        # assignment, where a narrower array would be cast to intp on
        # every refactor; its source masks exactly A's lower entries
        assert sym.fwd_gather.dtype == sym.bwd_gather.dtype == sym.fwd_struct[1].dtype == np.int32
        assert sym.scatter_dst.dtype == np.intp
        assert sym.scatter_src.dtype == bool and sym.scatter_src.size == p.a.nnz
        snode = np.searchsorted(sym.pattern.offsets, sym.iperm_dof, side="right") - 1
        coo = p.a.tocoo()
        lower = snode[coo.row] >= snode[coo.col]  # block row >= block column in L
        assert np.array_equal(sym.scatter_src, lower)

    def test_symbolic_object_accounts_for_what_it_keeps(self, small_problem):
        """``memory_bytes`` counts every array once, none of A's; a dmod
        bucket keeps its two shapes and one offset per block for each of
        its three operands, and nothing is kept for values the pattern
        does not have."""
        p = small_problem
        m = sb_bic0(p.a, p.groups)
        sym = m.symbolic
        assert sym.pattern.data is None and m.L.data.size == sym.pattern.boff[-1]
        assert all(len(bucket) == 5 for group in sym.dmod_updates for bucket in group)
        assert all(
            b[2].shape == b[3].shape == b[4].shape == (b[2].size,)
            for group in sym.dmod_updates for b in group
        )
        maps = [sym.scatter_src, sym.scatter_dst, sym.fwd_gather, sym.bwd_gather]
        updates = [x for group in sym.dmod_updates for b in group for x in b[2:5]]
        total = sym.memory_bytes()
        stats = m.factorization_stats()
        assert total == stats["symbolic_bytes"]
        assert stats["plan_bytes"] == sum(
            x.nbytes for x in (m._plan.fwd.data, m._plan.bwd.data, m._plan.t, m._plan.y)
        )
        assert sum(x.nbytes for x in maps + updates) < total
        # 1.64 x nnz(A) 12-byte entries at block 0.6 with one offset per
        # block; 4.1 x with per-scalar update maps
        assert total < 1.81 * 12 * p.a.nnz

    @pytest.mark.parametrize(
        "model, family, bytes_per_block",
        [
            ("block-0.6", "ic0", 80.9),
            ("block-0.6", "bic0", 202.6),
            ("block-0.6", "bic1", 519.1),
            ("block-0.6", "sbbic0", 213.4),
            ("swjapan-0.7", "ic0", 79.5),
            ("swjapan-0.7", "bic0", 286.7),
            ("swjapan-0.7", "bic1", 499.6),
            ("swjapan-0.7", "sbbic0", 327.7),
        ],
    )
    def test_symbolic_bytes_per_stored_block(
        self, request, model, family, bytes_per_block
    ):
        """What the symbolic object keeps per stored block of ``L``, at
        most 10 % above the value measured with one offset per block and
        operand: per-scalar index maps (3.3-6.4 x for the 3x3 families)
        cannot come back unnoticed."""
        p = request.getfixturevalue(
            "small_problem" if model == "block-0.6" else "small_swjapan"
        )
        m = {
            "ic0": lambda: scalar_ic0(p.a),
            "bic0": lambda: bic(p.a, fill_level=0),
            "bic1": lambda: bic(p.a, fill_level=1),
            "sbbic0": lambda: sb_bic0(p.a, p.groups),
        }[family]()
        assert m.symbolic.memory_bytes() / m.L.nnzb <= 1.1 * bytes_per_block

    @pytest.mark.parametrize("fill_level", [1, 2])
    def test_fill_census_counts_blocks_beyond_level0(self, small_problem, fill_level):
        p = small_problem
        supernodes = selective_block_supernodes(p.groups, p.mesh.n_nodes)
        level0 = ICSymbolic(p.a, supernodes)
        # same ordering for both levels, so the patterns nest
        filled = ICSymbolic(p.a, supernodes, fill_level=fill_level)
        assert np.array_equal(filled.order, level0.order)
        assert filled.nnz_fill == filled.pattern.nnzb - level0.pattern.nnzb
        assert filled.nnz_fill > 0

    def test_supernode_maps_and_blocks_match_loops(self, small_problem):
        p = small_problem
        n_nodes = p.mesh.n_nodes
        blocks = selective_blocks_from_groups(p.groups, n_nodes)
        in_group = np.zeros(n_nodes, dtype=bool)
        for g in p.groups:
            in_group[g] = True
        ref_blocks = [g for g in p.groups] + [
            np.array([v]) for v in np.flatnonzero(~in_group)
        ]
        assert len(blocks) == len(ref_blocks)
        assert all(np.array_equal(x, y) for x, y in zip(blocks, ref_blocks))

        supernodes = selective_block_supernodes(p.groups, n_nodes)
        ref_super = [(nodes[:, None] * 3 + np.arange(3)).reshape(-1) for nodes in ref_blocks]
        assert len(supernodes) == len(ref_super)
        assert all(np.array_equal(x, y) for x, y in zip(supernodes, ref_super))
        no_groups = selective_block_supernodes([], 4)
        assert [s.tolist() for s in no_groups] == [[3 * v, 3 * v + 1, 3 * v + 2] for v in range(4)]

        got = supernode_maps(supernodes, p.ndof)
        ref = _reference_supernode_maps(supernodes, p.ndof)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize(
        "supernodes, message",
        [
            ([[0, 1], [2, 3], [3, 4], [1, 5]], "super-node 2 overlaps an earlier super-node"),
            ([[0, 1], [2], [4, 5]], "super-nodes do not cover all DOFs"),
            ([[0, 1], [1, 2]], "super-node 1 overlaps an earlier super-node"),
        ],
    )
    def test_bad_supernodes_raise_the_loop_messages(self, supernodes, message):
        supernodes = [np.array(s) for s in supernodes]
        with pytest.raises(ValueError) as ref:
            _reference_supernode_maps(supernodes, 6)
        assert str(ref.value) == message
        with pytest.raises(ValueError) as got:
            supernode_maps(supernodes, 6)
        assert str(got.value) == message


def _reference_check_contact_groups(groups, n_nodes):
    seen = np.full(n_nodes, -1, dtype=np.int64)
    out = []
    for g, nodes in enumerate(groups):
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ValueError(f"contact group {g} must be 1-D, got shape {nodes.shape}")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= n_nodes):
            raise ValueError(f"contact group {g} has entries outside [0, {n_nodes})")
        if nodes.size < 2:
            raise ValueError(f"contact group {g} has fewer than 2 nodes")
        uniq, counts = np.unique(nodes, return_counts=True)
        if (counts > 1).any():
            raise ValueError(
                f"contact group {g} lists node id(s) {uniq[counts > 1].tolist()} more "
                "than once — a degenerate contact pair; deduplicate the "
                "pairing before assembly"
            )
        clash = uniq[seen[uniq] >= 0]
        if clash.size:
            raise ValueError(
                f"contact group {g} overlaps group {seen[clash[0]]} "
                f"at node id(s) {clash.tolist()}"
            )
        seen[uniq] = g
        out.append(nodes)
    return out


class TestContactGroupValidation:
    @pytest.mark.parametrize(
        "groups",
        [
            [[0, 1], [2, 3, 2, 3, 4]],  # degenerate pair
            [[0, 1], [2, 3], [4, 3, 1]],  # clashes with two earlier groups
            [[0, 1], [5, 2, 2], [2, 0]],  # degenerate before clashing
            [[0, 1], [0, 0]],  # degenerate and clashing in one group
            [[0, 1], [2]],  # too small
            [[0, 1], [2, 9]],  # out of range
            [[0, 1], [-1, 2]],
            [[0, 1], [[2, 3]], [0, 4]],  # not 1-D, before a clash
            [[0, 1], [1, 4], [[2, 3]]],  # clash, before a not-1-D group
            [[0, 1], [7, 8], [2]],  # range error wins over a later size error
        ],
    )
    def test_errors_match_group_by_group_scan(self, groups):
        with pytest.raises(ValueError) as ref:
            _reference_check_contact_groups(groups, 6)
        with pytest.raises(ValueError) as got:
            check_contact_groups(groups, 6)
        assert str(got.value) == str(ref.value)

    def test_valid_groups_pass_through_as_int64(self):
        groups = [[4, 1], np.array([0, 5, 2], dtype=np.int32)]
        out = check_contact_groups(groups, 6)
        assert [g.tolist() for g in out] == [[4, 1], [0, 5, 2]]
        assert all(g.dtype == np.int64 for g in out)
        assert check_contact_groups([], 6) == []
