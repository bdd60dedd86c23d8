#!/usr/bin/env python3
"""Generate the packaged road-like benchmark graph (~2,600 nodes).

Construction: a 52 x 51 grid graph, thinned by deleting a seeded random
subset of non-tree edges (a BFS spanning tree is protected so the graph
stays connected), plus a few long-range shortcut edges. The result is
planar-ish, sparse and irregular - the degree profile of a road network -
with grid coordinates retained for plot exports.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ratexpint.problems import Graph, graph_laplacian, largest_connected_component, save_edge_list

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "ratexpint" / "data" / "graphs"

NX, NY = 52, 51
SEED = 20240517
DELETE_FRACTION = 0.55
SHORTCUTS = 30


def main():
    rng = np.random.default_rng(SEED)
    n = NX * NY
    node = lambda ix, iy: ix * NY + iy  # noqa: E731

    edges = []
    for ix in range(NX):
        for iy in range(NY):
            if ix + 1 < NX:
                edges.append((node(ix, iy), node(ix + 1, iy)))
            if iy + 1 < NY:
                edges.append((node(ix, iy), node(ix, iy + 1)))

    # BFS spanning tree -> protected edges
    adj = {i: [] for i in range(n)}
    for idx, (i, j) in enumerate(edges):
        adj[i].append((j, idx))
        adj[j].append((i, idx))
    protected = set()
    seen = np.zeros(n, bool)
    queue = [0]
    seen[0] = True
    while queue:
        i = queue.pop()
        for j, idx in adj[i]:
            if not seen[j]:
                seen[j] = True
                protected.add(idx)
                queue.append(j)
    assert seen.all()

    deletable = [idx for idx in range(len(edges)) if idx not in protected]
    kill = set(rng.choice(deletable, size=int(DELETE_FRACTION * len(deletable)),
                          replace=False).tolist())
    kept = [e for idx, e in enumerate(edges) if idx not in kill]

    for _ in range(SHORTCUTS):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            kept.append((int(i), int(j)))

    coords = np.zeros((n, 2))
    for ix in range(NX):
        for iy in range(NY):
            coords[node(ix, iy)] = (ix, iy)
    g = Graph.from_edge_list(n, kept, coords=coords)
    g = largest_connected_component(g)

    lap = graph_laplacian(g)
    degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
    print(f"nodes={g.n} edges={g.num_edges} avg_degree={degrees.mean():.2f} "
          f"max_degree={degrees.max():.0f}")
    assert 2400 <= g.n <= 2800, "target is a minnesota-scale graph"
    assert lap.symmetric

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    save_edge_list(g, OUT_DIR / "road2600.edges")
    with open(OUT_DIR / "road2600_coords.csv", "w", encoding="utf-8") as fh:
        fh.write("id,x,y\n")
        for i, (x, y) in enumerate(g.coords):
            fh.write(f"{i},{x:.1f},{y:.1f}\n")
    print("wrote", OUT_DIR / "road2600.edges")


if __name__ == "__main__":
    main()
