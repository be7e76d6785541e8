"""Shared fixtures: small meshes, assembled problems, reference solutions."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fem.generators import box_mesh, simple_block_model, southwest_japan_model
from repro.fem.model import build_contact_problem


@pytest.fixture(scope="session", autouse=True)
def _no_worker_outlives_the_session():
    """Forked command workers (process-transport ranks, serve pool
    workers; all named ``repro-*``) outlive solves, so a system or pool
    that is never closed (nor dropped) would leak them: stop the rank
    workers parked for the next system, then fail the run if any worker
    is still alive when the session ends."""
    yield
    import multiprocessing as mp

    from repro.parallel.transport import shutdown

    shutdown()

    alive = [
        f"{p.name} (pid {p.pid})"
        for p in mp.active_children()
        if p.name.startswith("repro-")
    ]
    assert not alive, f"workers still alive at session end: {alive}"


@pytest.fixture(scope="session")
def box3():
    return box_mesh(3, 3, 3)


@pytest.fixture(scope="session")
def block_mesh_small():
    return simple_block_model(3, 3, 2, 3, 3)


@pytest.fixture(scope="session")
def swj_mesh_small():
    return southwest_japan_model(6, 4, 2, 2)


@pytest.fixture(scope="session")
def block_problem_small(block_mesh_small):
    return build_contact_problem(block_mesh_small, penalty=1e4)


@pytest.fixture(scope="session")
def block_problem_stiff(block_mesh_small):
    return build_contact_problem(block_mesh_small, penalty=1e8)


@pytest.fixture(scope="session")
def swj_problem_small(swj_mesh_small):
    return build_contact_problem(
        swj_mesh_small, penalty=1e4, load="body", symmetry=False
    )


@pytest.fixture(scope="session")
def block_reference(block_problem_small):
    return spla.spsolve(block_problem_small.a.tocsc(), block_problem_small.b)


def random_spd_csr(n: int, density: float, rng: np.random.Generator) -> sp.csr_matrix:
    """Random sparse SPD matrix (diagonally dominant) for property tests."""
    m = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    a = (m + m.T).tocsr()
    row_sums = np.asarray(abs(a).sum(axis=1)).reshape(-1)
    a.setdiag(row_sums + 1.0)
    a.sum_duplicates()
    a.sort_indices()
    return a


def paper_ladder(a, contact_groups=None, b: int = 3):
    """The escalation ladder in the paper's robustness order for *a*:
    :func:`build_ladder` over :func:`ladder_families`."""
    from repro.precond.families import ladder_families
    from repro.resilience.resilient import build_ladder

    n_groups = len(contact_groups) if contact_groups else 0
    order = ladder_families(n_groups, a.shape[0] % b == 0)
    return build_ladder(a, contact_groups, order, b=b)
