import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reorder import (
    Coloring,
    adjacency_from_pattern,
    cuthill_mckee,
    greedy_color,
    multicolor,
    reverse_cuthill_mckee,
)
from repro.reorder.graph import is_independent_set


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    m = np.triu(upper, 1)
    adj = m | m.T
    return adjacency_from_pattern(sp.csr_matrix(adj.astype(float)))


def grid_graph(nx, ny):
    g = sp.lil_matrix((nx * ny, nx * ny))
    for i in range(nx):
        for j in range(ny):
            v = i * ny + j
            if i + 1 < nx:
                g[v, (i + 1) * ny + j] = 1
            if j + 1 < ny:
                g[v, i * ny + j + 1] = 1
    return adjacency_from_pattern(g.tocsr())


class TestGreedyColor:
    def test_valid_coloring(self):
        adj = random_graph(30, 0.2, 0)
        colors = greedy_color(adj)
        Coloring(colors=colors, ncolors=int(colors.max()) + 1).validate(adj)

    def test_path_graph_two_colors(self):
        adj = grid_graph(1, 10)
        colors = greedy_color(adj)
        assert colors.max() + 1 == 2

    def test_complete_graph_needs_n(self):
        n = 5
        adj = adjacency_from_pattern(sp.csr_matrix(np.ones((n, n))))
        colors = greedy_color(adj)
        assert colors.max() + 1 == n


def _numpy_loop_greedy_color(adj, order=None):
    """The colouring loop as it was before it walked Python lists: one
    numpy slice, mask and fancy assignment per vertex."""
    n = adj.shape[0]
    indptr, indices = adj.indptr, adj.indices
    if order is None:
        order = np.argsort(-np.diff(indptr), kind="stable")
    colors = np.full(n, -1, dtype=np.int64)
    mark = np.full(n + 1, -1, dtype=np.int64)
    for v in order:
        nbr_colors = colors[indices[indptr[v] : indptr[v + 1]]]
        mark[nbr_colors[nbr_colors >= 0]] = v
        c = 0
        while mark[c] == v:
            c += 1
        colors[v] = c
    return colors


class TestGreedyColorIsTheNumpyLoop:
    """Same visit order, same smallest-available rule: identical arrays."""

    @pytest.mark.parametrize("model, scale", [("block", 0.8), ("swjapan", 1.0)])
    def test_on_supernode_graphs(self, model, scale):
        from repro.experiments.workloads import block_problem, swjapan_problem
        from repro.precond import sb_bic0

        p = {"block": block_problem, "swjapan": swjapan_problem}[model](scale)
        sym = sb_bic0(p.a, p.groups).symbolic
        # the graph the symbolic phase coloured, back in its own numbering
        lower = sp.csr_matrix(
            (np.ones(sym.pattern.nnzb), sym.pattern.indices, sym.pattern.indptr),
            shape=(sym.pattern.N, sym.pattern.N),
        )
        adj = adjacency_from_pattern(lower)[sym.order.argsort()][:, sym.order.argsort()]
        adj.sort_indices()
        colors = greedy_color(adj)
        assert colors.dtype == np.int64
        assert np.array_equal(colors, _numpy_loop_greedy_color(adj))
        assert np.array_equal(colors, sym.coloring.colors)

    @given(
        n=st.integers(1, 40),
        p=st.floats(0.0, 0.6),
        seed=st.integers(0, 10_000),
        given_order=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_on_random_symmetric_graphs(self, n, p, seed, given_order):
        adj = random_graph(n, p, seed)
        order = np.random.default_rng(seed).permutation(n) if given_order else None
        colors = greedy_color(adj, order)
        assert np.array_equal(colors, _numpy_loop_greedy_color(adj, order))
        Coloring(colors=colors, ncolors=int(colors.max()) + 1).validate(adj)


class TestMulticolor:
    def test_minimal_palette_by_default(self):
        adj = grid_graph(6, 6)
        col = multicolor(adj)
        assert col.ncolors <= 4  # grid is 2-chromatic; greedy may use a few more
        col.validate(adj)

    def test_target_colors_reached(self):
        adj = grid_graph(8, 8)
        col = multicolor(adj, ncolors=10)
        assert col.ncolors == 10
        col.validate(adj)

    def test_subdivision_balances_classes(self):
        adj = grid_graph(10, 10)
        col = multicolor(adj, ncolors=20)
        sizes = np.diff(col.color_ptr)
        sizes = sizes[sizes > 0]
        assert sizes.max() <= 2 * max(sizes.min(), 1) + 2

    def test_target_below_chromatic_returns_base(self):
        n = 5
        adj = adjacency_from_pattern(sp.csr_matrix(np.ones((n, n))))
        col = multicolor(adj, ncolors=2)
        assert col.ncolors == n

    def test_target_above_n_clamped(self):
        adj = grid_graph(3, 3)
        col = multicolor(adj, ncolors=100)
        assert col.ncolors <= 9

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            multicolor(grid_graph(2, 2), ncolors=-1)

    def test_color_major_perm_orders_classes(self):
        adj = grid_graph(5, 5)
        col = multicolor(adj, ncolors=5)
        reordered_colors = col.colors[col.perm]
        assert np.all(np.diff(reordered_colors) >= 0)


class TestColoring:
    def test_validate_catches_conflict(self):
        adj = grid_graph(1, 3)  # path 0-1-2
        bad = Coloring(colors=np.array([0, 0, 1]), ncolors=2)
        with pytest.raises(ValueError, match="adjacent"):
            bad.validate(adj)

    def test_class_members_match_colors(self):
        adj = grid_graph(4, 4)
        col = multicolor(adj, ncolors=4)
        for c in range(col.ncolors):
            assert np.all(col.colors[col.class_members(c)] == c)

    def test_iperm_inverts_perm(self):
        adj = grid_graph(4, 4)
        col = multicolor(adj, ncolors=4)
        assert np.array_equal(col.iperm[col.perm], np.arange(col.n))


class TestCuthillMcKee:
    def test_perm_is_permutation(self):
        adj = random_graph(25, 0.15, 1)
        perm, levels = cuthill_mckee(adj)
        assert np.sort(perm).tolist() == list(range(25))
        assert levels[-1] == 25

    def test_levels_are_bfs_layers(self):
        adj = grid_graph(1, 6)  # path graph
        perm, levels = cuthill_mckee(adj, start=0)
        # each level of a path from an endpoint has exactly one vertex
        assert np.all(np.diff(levels) == 1)

    def test_rcm_reverses(self):
        adj = grid_graph(3, 4)
        perm, _ = cuthill_mckee(adj)
        rperm, _ = reverse_cuthill_mckee(adj)
        assert np.array_equal(rperm, perm[::-1])

    def test_rcm_reduces_bandwidth(self):
        rng = np.random.default_rng(2)
        adj = grid_graph(6, 6)
        perm, _ = reverse_cuthill_mckee(adj)
        iperm = np.empty(36, dtype=int)
        iperm[perm] = np.arange(36)
        coo = adj.tocoo()
        shuffled = rng.permutation(36)
        bw_rand = np.abs(shuffled[coo.row] - shuffled[coo.col]).max()
        bw_rcm = np.abs(iperm[coo.row] - iperm[coo.col]).max()
        assert bw_rcm <= bw_rand

    def test_disconnected_graph_covered(self):
        g = sp.block_diag([grid_graph(2, 2), grid_graph(2, 2)]).tocsr()
        adj = adjacency_from_pattern(g)
        perm, _ = cuthill_mckee(adj)
        assert np.sort(perm).tolist() == list(range(8))


class TestIndependentSet:
    def test_detects_dependence(self):
        adj = grid_graph(1, 3)
        assert not is_independent_set(adj, np.array([0, 1]))
        assert is_independent_set(adj, np.array([0, 2]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 30), p=st.floats(0.05, 0.5), seed=st.integers(0, 10_000))
def test_property_multicolor_always_valid(n, p, seed):
    adj = random_graph(n, p, seed)
    rng = np.random.default_rng(seed)
    target = int(rng.integers(0, n + 1))
    col = multicolor(adj, ncolors=target)
    col.validate(adj)
    # every vertex gets exactly one color in range
    assert col.colors.min() >= 0 and col.colors.max() < col.ncolors


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 25), p=st.floats(0.05, 0.5), seed=st.integers(0, 10_000))
def test_property_cm_perm_valid(n, p, seed):
    adj = random_graph(n, p, seed)
    perm, levels = cuthill_mckee(adj)
    assert np.sort(perm).tolist() == list(range(n))
    assert levels[0] == 0 and levels[-1] == n
    assert np.all(np.diff(levels) >= 1)
