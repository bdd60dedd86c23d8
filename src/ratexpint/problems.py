"""Benchmark problem construction.

Discrete diffusion operators (finite-difference and graph Laplacians),
semi-linear reaction terms, initial conditions, a built-in road-like graph
and file ingestion for user graph data. All operators produced here are
symmetric positive semi-definite; the problem builders reject diffusion
parameters that would break this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .linalg import SparseOperator

BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "periodic")

#: Floor applied to the inhibitor when evaluating the activator reaction;
#: trajectories of interest stay far above it.
GM_INHIBITOR_FLOOR = 1e-12


def _check_bc(bc: str) -> str:
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}; expected one of {BOUNDARY_CONDITIONS}")
    return bc


@dataclass(frozen=True)
class Problem:
    """A stiff semi-linear system u' = -A u + g(t, u)."""

    name: str
    A: SparseOperator
    g: Callable[[float, np.ndarray], np.ndarray]
    u0: np.ndarray
    params: dict
    coords: Optional[np.ndarray] = None  # per-dof coordinates, for exports

    @property
    def n(self) -> int:
        return self.A.n


# ---------------------------------------------------------------------------
# Finite-difference Laplacians.
# ---------------------------------------------------------------------------

def _fd_laplacian(shape: tuple[int, ...], length: float, bc: str) -> SparseOperator:
    _check_bc(bc)
    if shape[0] < 3:
        raise ValueError("need at least 3 grid points")
    if length <= 0:
        raise ValueError("domain length must be positive")
    h = length / shape[0]
    lap = spla.LaplacianNd(shape, boundary_conditions=bc, dtype=np.float64)
    return SparseOperator(-lap.tosparse() / h**2)


def fd_laplacian_1d(nx: int, length: float, bc: str) -> SparseOperator:
    """1D second-difference operator (1/h^2) tridiag(-1, 2, -1) with boundary rows
    adjusted for the requested closure. h = length / nx.

    Neumann uses the mirror closure with first row (1, -1)/h^2, periodic wraps
    the corners; both leave the constant vector in the kernel.
    """
    return _fd_laplacian((nx,), length, bc)


def fd_laplacian_2d(nx: int, length: float, bc: str) -> SparseOperator:
    """2D Laplacian as the Kronecker sum T (x) I + I (x) T of the 1D operator."""
    return _fd_laplacian((nx, nx), length, bc)


def fd_grid_1d(nx: int, length: float, bc: str, origin: float = 0.0) -> np.ndarray:
    """Grid coordinates matching the discretization convention.

    Periodic and Dirichlet use vertex points starting at the origin; the
    Neumann mirror closure corresponds to cell centers.
    """
    _check_bc(bc)
    h = length / nx
    if bc == "neumann":
        return origin + (np.arange(nx) + 0.5) * h
    return origin + np.arange(nx) * h


def fd_grid_2d(nx: int, length: float, bc: str, origin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid (flattened, row-major) for the 2D operator; dof ordering matches
    the Kronecker assembly: index = ix * nx + iy."""
    x = fd_grid_1d(nx, length, bc, origin)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return xx.ravel(), yy.ravel()


# ---------------------------------------------------------------------------
# Graphs.
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """Undirected simple weighted graph, held as its adjacency matrix W: a
    symmetric CSR matrix with positive off-diagonal weights and a zero
    diagonal."""

    adjacency: sp.csr_matrix
    coords: Optional[np.ndarray] = None
    original_ids: Optional[np.ndarray] = None

    @classmethod
    def from_edge_list(cls, n: int, raw_edges: Sequence[tuple], coords=None) -> "Graph":
        """Edges ``(i, j)`` (weight 1) or ``(i, j, w)``; self-loops and zero
        weights are dropped and duplicate edges summed. Node ids past
        ``n - 1`` grow the graph. An edge without non-negative integer ids
        and a finite non-negative weight raises ``ValueError``, and so does
        a complex weight, even with a zero imaginary part."""
        ijw = np.array([(e[0], e[1], e[2] if len(e) == 3 else 1.0) for e in raw_edges])
        if np.iscomplexobj(ijw):
            raise ValueError("edge weights must be real, got complex ones")
        ijw = ijw.astype(np.float64).reshape(-1, 3)
        valid = (np.isfinite(ijw) & (ijw >= 0)).all(axis=1) \
            & (ijw[:, :2] == np.round(ijw[:, :2])).all(axis=1)
        if not valid.all():
            raise ValueError("edge ({:g}, {:g}, {:g}) needs non-negative integer node ids "
                             "and a finite non-negative weight".format(*ijw[np.argmin(valid)]))
        i, j, w = ijw[:, 0].astype(np.int64), ijw[:, 1].astype(np.int64), ijw[:, 2]
        keep = (i != j) & (w != 0.0)
        lo, hi, w = np.minimum(i, j)[keep], np.maximum(i, j)[keep], w[keep]
        n = max(n, int(hi.max()) + 1 if hi.size else 0)
        upper = sp.csr_matrix((w, (lo, hi)), shape=(n, n))
        return cls(adjacency=(upper + upper.T).tocsr(), coords=coords)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return sp.triu(self.adjacency, k=1).nnz

    @property
    def edges(self) -> list:
        """``(i, j, w)`` with i < j, sorted."""
        upper = sp.triu(self.adjacency, k=1)
        return sorted(zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist()))


def graph_laplacian(g: Graph) -> SparseOperator:
    """Unnormalized graph Laplacian L = D - W."""
    w = g.adjacency
    if w.nnz and w.data.min() < 0:
        raise ValueError("adjacency contains a negative weight")
    return SparseOperator(csgraph.laplacian(w))


def largest_connected_component(g: Graph) -> Graph:
    """Node-induced subgraph on the largest component, relabeled contiguously.

    The returned graph keeps the original node ids in ``original_ids``.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    ncomp, labels = csgraph.connected_components(g.adjacency, directed=False)
    keep = int(np.argmax(np.bincount(labels, minlength=ncomp)))
    nodes = np.flatnonzero(labels == keep)
    coords = g.coords[nodes] if g.coords is not None else None
    return Graph(adjacency=g.adjacency[nodes][:, nodes], coords=coords, original_ids=nodes)


def builtin_graph(name: str = "road2600") -> Graph:
    """A built-in benchmark graph, with node coordinates; built on each call.

    ``road2600`` is a 52 x 51 grid graph with 55% of the edges off a
    spanning tree deleted at random, plus 30 random shortcut edges: sparse,
    irregular and connected, like a road network. Nodes keep their grid
    coordinates (ix, iy) and are numbered ix * 51 + iy.
    """
    if name != "road2600":
        raise ValueError(f"no built-in graph {name!r}; available: road2600")
    nx, ny = 52, 51
    n = nx * ny
    rng = np.random.default_rng(20240517)
    # Grid edges node by node, the x-neighbour (+ny) before the y-neighbour
    # (+1); the seed picks deleted edges by their index in this order.
    ix, iy = np.divmod(np.arange(n), ny)
    node = np.repeat(np.arange(n), 2)
    in_grid = np.column_stack([ix + 1 < nx, iy + 1 < ny]).ravel()
    edges = np.column_stack([node, node + np.tile([ny, 1], n)])[in_grid]
    m = len(edges)

    # Protect the edges of a spanning tree: a stack traversal from node 0
    # that marks nodes when pushed and visits neighbours in edge order.
    ends = np.concatenate([edges, edges[:, ::-1]])
    edge_ids = np.tile(np.arange(m), 2)
    order = np.lexsort((edge_ids, ends[:, 0]))
    neighbours, via = ends[order, 1].tolist(), edge_ids[order].tolist()
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ends[:, 0], minlength=n))]).tolist()
    protected = np.zeros(m, dtype=bool)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        for k in range(indptr[i], indptr[i + 1]):
            j = neighbours[k]
            if not seen[j]:
                seen[j] = True
                protected[via[k]] = True
                stack.append(j)

    deletable = np.flatnonzero(~protected)
    keep = np.ones(m, dtype=bool)
    keep[rng.choice(deletable, size=int(0.55 * deletable.size), replace=False)] = False
    shortcuts = rng.integers(0, n, size=(30, 2))
    coords = np.column_stack([ix, iy]).astype(np.float64)
    return Graph.from_edge_list(n, np.concatenate([edges[keep], shortcuts]).tolist(),
                                coords=coords)


# ---------------------------------------------------------------------------
# Graph file ingestion.
# ---------------------------------------------------------------------------

def load_edge_list(path, one_based: bool = False) -> Graph:
    """Read a whitespace-separated edge list: ``i j [w]`` per line, ``#`` comments."""
    raw = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'i j [w]', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if one_based:
                i, j = i - 1, j - 1
            if i < 0 or j < 0:
                raise ValueError(f"{path}:{lineno}: negative node index (forgot one_based?)")
            raw.append((i, j, w))
            max_id = max(max_id, i, j)
    return Graph.from_edge_list(max_id + 1, raw)


def load_matrix_market_adjacency(path) -> Graph:
    """Read an adjacency matrix M in MatrixMarket coordinate format.

    Off the diagonal the graph is M + M^T, halved when M stores both
    triangles: (M + M^T) / 2 averages a "general" file's (i, j) and (j, i)
    weights, and gives M back for a "symmetric" file, which scipy reads
    whole.
    """
    from scipy.io import mmread

    mat = sp.coo_matrix(mmread(path))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{path}: adjacency matrix must be square, got {mat.shape}")
    g = Graph.from_edge_list(mat.shape[0], zip(mat.row, mat.col, mat.data))
    stored = mat.data != 0
    if np.any((mat.row < mat.col) & stored) and np.any((mat.row > mat.col) & stored):
        g.adjacency = g.adjacency / 2.0
    return g


# ---------------------------------------------------------------------------
# Reaction terms.
# ---------------------------------------------------------------------------

def reaction_allen_cahn(u: np.ndarray, eps: float = 1.0) -> np.ndarray:
    """Cubic double-well reaction (u - u^3) / eps; the scaled network form
    takes the interface parameter eps, the 2D form leaves it at 1."""
    return (u - u**3) / eps


def reaction_gierer_meinhardt(a, h, p, mu, pprime, nu, floor: float = GM_INHIBITOR_FLOOR):
    """Activator/inhibitor kinetics (p a^2 / h - mu a, p' a^2 - nu h).

    The inhibitor is floored away from zero so the quotient stays finite.
    """
    a = np.asarray(a)
    h = np.asarray(h)
    h_safe = np.maximum(h, floor)
    g_a = p * a**2 / h_safe - mu * a
    g_h = pprime * a**2 - nu * h
    return g_a, g_h


# ---------------------------------------------------------------------------
# Assembled benchmark problems. Random initial data comes from numpy's PCG64
# generator so runs are reproducible from the seed alone.
# ---------------------------------------------------------------------------

def allen_cahn_2d(nx: int, eps2: float = 0.1, length: float = 2.0,
                  bc: str = "neumann") -> Problem:
    """2D Allen-Cahn: u' = eps^2 Lap u + u - u^3 on the centered square,
    from the cosine bump u0 = 0.1 + 0.1 cos(2 pi x) cos(2 pi y)."""
    if not eps2 > 0:
        raise ValueError(f"eps2 must be positive, got {eps2}")
    a = fd_laplacian_2d(nx, length, bc).scaled(eps2)
    x, y = fd_grid_2d(nx, length, bc, origin=-length / 2.0)
    u0 = 0.1 + 0.1 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)

    def g(t, u):
        return reaction_allen_cahn(u)

    return Problem(
        name=f"ac2d-nx{nx}-{bc}",
        A=a, g=g, u0=u0,
        params={"eps2": eps2, "L": length, "nx": nx, "bc": bc},
        coords=np.column_stack([x, y]),
    )


def gierer_meinhardt_2d(nx: int, D_a: float = 0.01, D_h: float = 1.0,
                        p: float = 1.0, mu: float = 1.0, pprime: float = 1.0,
                        nu: float = 1.0, length: float = 1.0, bc: str = "periodic",
                        seed: int = 0) -> Problem:
    """2D Gierer-Meinhardt activator/inhibitor system.

    The operator is block-diagonal diag(D_a L, D_h L) on the stacked state
    (a; h). Initial data: activator uniform in [0.4, 0.6], inhibitor 0.2.
    """
    if not (D_a >= 0 and D_h >= 0):
        raise ValueError(f"D_a and D_h must be non-negative, got {D_a} and {D_h}")
    for name, value in (("p", p), ("mu", mu), ("pprime", pprime), ("nu", nu)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    lap = fd_laplacian_2d(nx, length, bc).tocsr()
    a_op = SparseOperator(sp.block_diag([D_a * lap, D_h * lap], format="csr"))
    n = nx * nx
    rng = np.random.Generator(np.random.PCG64(seed))
    u0 = np.concatenate([rng.uniform(0.4, 0.6, size=n), np.full(n, 0.2)])

    def g(t, u):
        act, inh = u[:n], u[n:]
        g_a, g_h = reaction_gierer_meinhardt(act, inh, p, mu, pprime, nu)
        return np.concatenate([g_a, g_h])

    x, y = fd_grid_2d(nx, length, bc, origin=0.0)
    return Problem(
        name=f"gm2d-nx{nx}-{bc}",
        A=a_op, g=g, u0=u0,
        params={"D_a": D_a, "D_h": D_h, "p": p, "mu": mu, "pprime": pprime,
                "nu": nu, "L": length, "nx": nx, "bc": bc, "seed": seed},
        coords=np.column_stack([np.tile(x, 2), np.tile(y, 2)]),
    )


def allen_cahn_graph(g: Graph, eps: float = 0.05, diffusion: float = 1.0,
                     seed: int = 0) -> Problem:
    """Scaled graph Allen-Cahn: u' = -eps D L u + (u - u^3)/eps, from data
    uniform in [-1, 1] per node."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not diffusion >= 0:
        raise ValueError(f"diffusion must be non-negative, got {diffusion}")
    a = graph_laplacian(g).scaled(eps * diffusion)

    def reaction(t, u):
        return reaction_allen_cahn(u, eps=eps)

    u0 = np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, size=g.n)
    return Problem(
        name=f"acgraph-n{g.n}",
        A=a, g=reaction, u0=u0,
        params={"eps": eps, "D": diffusion, "seed": seed},
        coords=g.coords,
    )
