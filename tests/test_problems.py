"""Problem construction: operators, reactions, initial data, file ingestion."""

import hashlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

from ratexpint.problems import (Graph, allen_cahn_2d, allen_cahn_graph, builtin_graph,
                                fd_grid_2d, fd_laplacian_1d, fd_laplacian_2d,
                                gierer_meinhardt_2d, graph_laplacian,
                                largest_connected_component,
                                load_edge_list, load_matrix_market_adjacency,
                                reaction_allen_cahn, reaction_gierer_meinhardt)

BCS = ("dirichlet", "neumann", "periodic")
PATH3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# Finite-difference Laplacians.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bc", BCS)
def test_fd1d_interior_stencil(bc):
    nx, L = 8, 1.0
    op = fd_laplacian_1d(nx, L, bc)
    h = L / nx
    row = op.todense()[3] * h**2
    expected = np.zeros(nx)
    expected[2:5] = (-1.0, 2.0, -1.0)
    assert np.allclose(row, expected)


@pytest.mark.parametrize("bc", ("neumann", "periodic"))
def test_fd1d_zero_row_sums(bc):
    op = fd_laplacian_1d(16, 2.0, bc)
    h = 2.0 / 16
    sums = np.asarray(op.tocsr().sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) <= 1e-12 / h**2


def test_fd1d_dirichlet_spectrum_bound():
    nx, L = 64, 1.0
    op = fd_laplacian_1d(nx, L, "dirichlet")
    h = L / nx
    eigs = np.linalg.eigvalsh(op.todense())
    assert eigs.max() <= 4.0 / h**2 + 1e-9 / h**2
    assert eigs.min() >= -1e-10 / h**2


def test_fd2d_matches_kronecker_sum_brute_force():
    nx = 3
    op = fd_laplacian_2d(nx, 1.0, "periodic")
    t = fd_laplacian_1d(nx, 1.0, "periodic").todense()
    eye = np.eye(nx)
    ref = np.kron(t, eye) + np.kron(eye, t)
    assert np.allclose(op.todense(), ref)


@pytest.mark.parametrize("bc", ("neumann", "periodic"))
def test_fd2d_zero_row_sums(bc):
    op = fd_laplacian_2d(8, 2.0, bc)
    sums = np.asarray(op.tocsr().sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) <= 1e-12 * 64 / 4.0


def test_fd2d_spectrum_bound():
    nx, L = 16, 1.0
    op = fd_laplacian_2d(nx, L, "dirichlet")
    h = L / nx
    eigs = np.linalg.eigvalsh(op.todense())
    assert eigs.max() <= 8.0 / h**2 * (1 + 1e-12)


def test_fd1d_rejects_tiny_grids():
    with pytest.raises(ValueError):
        fd_laplacian_1d(2, 1.0, "dirichlet")


@pytest.mark.parametrize("bc", BCS)
def test_fd_operators_exactly_symmetric(bc):
    for op in (fd_laplacian_1d(12, 1.0, bc), fd_laplacian_2d(6, 1.0, bc)):
        a = op.tocsr()
        assert (a - a.T).nnz == 0


# ---------------------------------------------------------------------------
# Graph Laplacians.
# ---------------------------------------------------------------------------

def test_graph_laplacian_path_graph():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    lap = graph_laplacian(g).todense()
    ref = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(lap, ref)


def test_graph_laplacian_annihilates_constants_exactly_unweighted():
    rng = np.random.default_rng(5)
    edges = [(int(i), int(j)) for i, j in
             zip(rng.integers(0, 20, 60), rng.integers(0, 20, 60)) if i != j]
    g = Graph.from_edge_list(20, edges)
    lap = graph_laplacian(g)
    assert np.max(np.abs(lap.matvec(np.ones(20)))) == 0.0


def test_graph_laplacian_row_sums_weighted():
    rng = np.random.default_rng(5)
    edges = [(int(i), int(j), float(w)) for i, j, w in
             zip(rng.integers(0, 20, 60), rng.integers(0, 20, 60), rng.uniform(0.1, 2, 60))]
    g = Graph.from_edge_list(20, edges)
    lap = graph_laplacian(g)
    bound = 1e-12 * max(g.adjacency.sum(axis=1).max(), 1.0)
    assert np.max(np.abs(lap.matvec(np.ones(20)))) <= bound


def test_unweighted_graph_spectrum_bound():
    rng = np.random.default_rng(9)
    n = 30
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = Graph.from_edge_list(n, edges)
    lap = graph_laplacian(g).todense()
    eigs = np.linalg.eigvalsh(lap)
    assert eigs.max() <= n + 1e-10
    assert eigs.min() >= -1e-10


def test_graph_canonicalization_merges_duplicates_and_drops_loops():
    g = Graph.from_edge_list(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 1, 5.0), (1, 2)])
    assert g.edges == [(0, 1, 3.0), (1, 2, 1.0)]


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        Graph.from_edge_list(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("edges, named", [
    ([(0.5, 1), (1, 2.9)], "(0.5, 1, 1)"),
    ([(0, 1), (1, 2.9)], "(1, 2.9, 1)"),
    ([(0, float("nan"))], "(0, nan, 1)"),
    ([(-1, 2)], "(-1, 2, 1)"),
    ([(0, 1), (0, 1, float("inf"))], "(0, 1, inf)"),
    ([(1, 2, float("nan"))], "(1, 2, nan)"),
], ids=["fractional-source", "fractional-target", "nan-id", "negative-id", "inf-weight",
        "nan-weight"])
def test_edge_list_rejects_invalid_ids_and_weights_and_names_the_edge(edges, named):
    with pytest.raises(ValueError, match=re.escape(f"edge {named} needs")):
        Graph.from_edge_list(3, edges)


# ---------------------------------------------------------------------------
# Largest connected component.
# ---------------------------------------------------------------------------

def test_lcc_two_triangles_plus_pendant():
    edges = [(0, 1), (1, 2), (2, 0), (0, 3),  # 4-node component
             (4, 5), (5, 6), (6, 4)]          # triangle
    g = Graph.from_edge_list(7, edges)
    lcc = largest_connected_component(g)
    assert lcc.n == 4
    assert sorted(lcc.original_ids.tolist()) == [0, 1, 2, 3]


def test_lcc_idempotent_on_connected_graph():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    lcc = largest_connected_component(g)
    assert lcc.n == 4
    assert lcc.num_edges == 3


def test_lcc_planted_components():
    rng = np.random.default_rng(17)
    edges = []
    offsets = [0, 10, 35]
    for off, size in zip(offsets, (10, 25, 7)):
        nodes = list(range(off, off + size))
        for a, b in zip(nodes, nodes[1:]):
            edges.append((a, b))
        for _ in range(size):
            i, j = rng.choice(nodes, 2, replace=False)
            edges.append((int(i), int(j)))
    g = Graph.from_edge_list(42, edges)
    # oracle: exhaustive BFS from scratch
    adj = {i: set() for i in range(g.n)}
    for i, j, _ in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    best = 0
    seen = set()
    for start in range(g.n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        best = max(best, len(comp))
    lcc = largest_connected_component(g)
    assert lcc.n == best == 25


def test_lcc_empty_graph_rejected():
    with pytest.raises(ValueError):
        largest_connected_component(Graph(sp.csr_matrix((0, 0))))


# ---------------------------------------------------------------------------
# Reactions.
# ---------------------------------------------------------------------------

def test_allen_cahn_reaction_fixed_points():
    u = np.array([0.0, 1.0, -1.0])
    assert np.array_equal(reaction_allen_cahn(u), np.zeros(3))
    assert np.array_equal(reaction_allen_cahn(u, eps=0.1), np.zeros(3))


def test_allen_cahn_scaled_value():
    assert reaction_allen_cahn(np.array([0.5]))[0] == 0.375
    out = reaction_allen_cahn(np.array([0.5]), eps=0.05)
    assert out[0] == pytest.approx(0.375 / 0.05)
    assert out[0] == pytest.approx(7.5)


def test_gm_reaction_zero_activator():
    g_a, g_h = reaction_gierer_meinhardt(np.zeros(3), np.ones(3), 1.0, 1.0, 1.0, 2.5)
    assert np.array_equal(g_a, np.zeros(3))
    assert np.allclose(g_h, -2.5)


def test_gm_reaction_homogeneous_steady_state():
    ones = np.ones(4)
    g_a, g_h = reaction_gierer_meinhardt(ones, ones, 1.0, 1.0, 1.0, 1.0)
    assert np.allclose(g_a, 0.0)
    assert np.allclose(g_h, 0.0)


def test_gm_reaction_arithmetic():
    g_a, g_h = reaction_gierer_meinhardt(np.array([0.5]), np.array([0.2]),
                                         16.0, 16.0, 16.0, 16.0)
    assert g_a[0] == pytest.approx(16 * 0.25 / 0.2 - 8.0) == pytest.approx(12.0)
    assert g_h[0] == pytest.approx(16 * 0.25 - 3.2) == pytest.approx(0.8)


def test_gm_reaction_floor_prevents_blowup():
    g_a, _ = reaction_gierer_meinhardt(np.array([1.0]), np.array([0.0]),
                                       1.0, 0.0, 1.0, 1.0)
    assert np.isfinite(g_a[0])


# ---------------------------------------------------------------------------
# Initial conditions.
# ---------------------------------------------------------------------------

def test_ac2d_initial_condition_at_origin():
    # periodic vertex grid contains (0, 0) for even nx
    nx = 8
    u0 = allen_cahn_2d(nx, length=2.0, bc="periodic").u0
    x, y = fd_grid_2d(nx, 2.0, "periodic", origin=-1.0)
    at_origin = np.flatnonzero((x == 0.0) & (y == 0.0))
    assert at_origin.size == 1
    assert u0[at_origin[0]] == pytest.approx(0.2)


def test_gm_initial_blocks():
    nx = 6
    u0 = gierer_meinhardt_2d(nx, seed=42).u0
    a0, h0 = u0[:nx * nx], u0[nx * nx:]
    assert np.all((a0 >= 0.4) & (a0 <= 0.6))
    assert np.array_equal(h0, np.full(nx * nx, 0.2))
    again = gierer_meinhardt_2d(nx, seed=42).u0
    assert np.array_equal(u0, again)


# ---------------------------------------------------------------------------
# Assembled problems.
# ---------------------------------------------------------------------------

def test_gm_problem_block_diagonal_structure():
    nx, D_a, D_h = 5, 0.005, 0.5
    prob = gierer_meinhardt_2d(nx, D_a=D_a, D_h=D_h, seed=1)
    n = nx * nx
    assert prob.n == 2 * n
    a = prob.A.todense()
    lap = fd_laplacian_2d(nx, 1.0, "periodic").todense()
    assert np.allclose(a[:n, :n], D_a * lap)
    assert np.allclose(a[n:, n:], D_h * lap)
    assert np.max(np.abs(a[:n, n:])) == 0.0
    assert np.max(np.abs(a[n:, :n])) == 0.0


@pytest.mark.parametrize("factory", [
    lambda: allen_cahn_2d(12),
    lambda: gierer_meinhardt_2d(6, seed=0),
    lambda: allen_cahn_graph(Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
                             diffusion=2.0, seed=0),
])
def test_problem_operators_symmetric_and_psd(factory):
    prob = factory()
    a = prob.A.tocsr()
    assert (a - a.T).nnz == 0
    # statistical positive semi-definiteness
    rng = np.random.default_rng(23)
    norm = prob.A.norm_inf()
    for _ in range(100):
        x = rng.standard_normal(prob.n)
        quad = float(x @ prob.A.matvec(x))
        assert quad >= -1e-10 * norm * float(x @ x)


def test_problem_spectrum_hint_bounds_dense_eigenvalues():
    for prob in (allen_cahn_2d(10), gierer_meinhardt_2d(7, seed=3)):
        assert prob.n <= 400
        eigs = np.linalg.eigvalsh(prob.A.todense())
        bound = prob.A.norm_inf()
        assert eigs.max() <= bound * (1 + 1e-12)
        assert eigs.min() >= -1e-10 * max(bound, 1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: allen_cahn_2d(8, eps2=0.0), "eps2 must be positive, got 0.0"),
    (lambda: allen_cahn_2d(8, eps2=-0.1), "eps2 must be positive, got -0.1"),
    (lambda: allen_cahn_graph(PATH3, eps=0.0), "eps must be positive, got 0.0"),
    (lambda: allen_cahn_graph(PATH3, diffusion=-1.0),
     "diffusion must be non-negative, got -1.0"),
    (lambda: gierer_meinhardt_2d(6, D_a=-0.01), "D_a and D_h must be non-negative"),
    (lambda: gierer_meinhardt_2d(6, D_h=float("nan")), "D_a and D_h must be non-negative"),
], ids=["ac2d-eps2-zero", "ac2d-eps2-negative", "graph-eps-zero", "graph-diffusion-negative",
        "gm2d-D_a-negative", "gm2d-D_h-nan"])
def test_problem_builders_reject_anti_diffusive_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("name, value", [("p", float("inf")), ("mu", float("nan")),
                                         ("pprime", float("-inf")), ("nu", float("nan"))])
def test_gierer_meinhardt_rejects_non_finite_reaction_parameters(name, value):
    # unchecked, the first reaction value was non-finite: a numerical
    # failure (exit 3) instead of a configuration error (exit 2)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        gierer_meinhardt_2d(6, **{name: value})


def test_problem_builders_accept_zero_diffusion():
    assert allen_cahn_graph(PATH3, diffusion=0.0).A.norm_inf() == 0.0
    assert gierer_meinhardt_2d(4, D_a=0.0, D_h=0.0).A.norm_inf() == 0.0


# ---------------------------------------------------------------------------
# File ingestion.
# ---------------------------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    g = Graph.from_edge_list(4, [(0, 1, 1.5), (1, 2), (2, 3, 0.25)])
    path = tmp_path / "g.edges"
    path.write_text(f"# nodes={g.n}\n"
                    + "".join(f"{i} {j} {w!r}\n" for i, j, w in g.edges))
    back = load_edge_list(path)
    assert back.n == g.n
    assert back.edges == g.edges


def test_edge_list_comments_weights_one_based(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\n1 2 0.5\n2 3\n")
    g = load_edge_list(path, one_based=True)
    assert g.n == 3
    assert g.edges == [(0, 1, 0.5), (1, 2, 1.0)]


def test_edge_list_malformed(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("1 2 3 4\n")
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_matrix_market_symmetric_and_general(tmp_path):
    sym = tmp_path / "adj_sym.mtx"
    sym.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                   "3 3 2\n2 1 1.0\n3 2 2.0\n")
    g = load_matrix_market_adjacency(sym)
    assert g.edges == [(0, 1, 1.0), (1, 2, 2.0)]

    gen = tmp_path / "adj_gen.mtx"
    gen.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 4\n1 2 1.0\n2 1 1.0\n2 3 2.0\n3 2 2.0\n")
    g2 = load_matrix_market_adjacency(gen)
    assert g2.edges == [(0, 1, 1.0), (1, 2, 2.0)]

    # a general file whose (i, j) and (j, i) weights differ gives their mean
    uneven = tmp_path / "adj_uneven.mtx"
    uneven.write_text("%%MatrixMarket matrix coordinate real general\n"
                      "3 3 4\n1 2 1.0\n2 1 3.0\n2 3 2.0\n3 2 2.0\n")
    g3 = load_matrix_market_adjacency(uneven)
    assert g3.edges == [(0, 1, 2.0), (1, 2, 2.0)]
    assert (g3.adjacency != g3.adjacency.T).nnz == 0


def test_builtin_graph_loads():
    g = builtin_graph("road2600")
    assert 2400 <= g.n <= 2800
    assert g.coords is not None
    lcc = largest_connected_component(g)
    assert lcc.n == g.n


def test_builtin_graph_is_pinned():
    # numpy does not promise the same Generator streams across versions
    # (NEP 19); a change in them shows here rather than as a silently
    # different benchmark graph.
    g = builtin_graph("road2600")
    assert (g.n, g.num_edges) == (2652, 3829)
    edges = np.array(g.edges)
    assert np.all(edges[:, 2] == 1.0)
    ij = np.ascontiguousarray(edges[:, :2].astype(np.int64))
    assert hashlib.sha256(ij.tobytes()).hexdigest()[:16] == "bf6582fa14daf607"
    ix, iy = np.divmod(np.arange(g.n), 51)
    assert np.array_equal(g.coords, np.column_stack([ix, iy]))


def test_unknown_builtin_graph_names_the_available_one():
    with pytest.raises(ValueError, match="no built-in graph 'nope'; available: road2600"):
        builtin_graph("nope")
