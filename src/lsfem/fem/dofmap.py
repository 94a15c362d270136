"""Global degree-of-freedom numbering for the H(div)-conforming vector
space and the continuous Lagrange space at degree k+1.

Edge-based vector DOFs are Legendre moments taken along the global
low->high edge direction, so the only inter-element bookkeeping is a sign
per (element, edge): shared moments agree up to the side of the normal.
Reversing the Legendre argument flips odd-degree moments, which folds the
traversal mismatch into the same per-DOF sign table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh import Mesh, Topology
from . import basis, geometry


@dataclass(frozen=True)
class DofMap:
    """Element-to-global index and sign tables for the pair (Q_h, W_h).

    Global layout is [Q block | W block]: W indices are offset by ``n_q``
    in the assembled system. ``q_sign`` carries the orientation sign of each
    edge-based vector DOF (interior DOFs are always +1): a global Q
    coefficient times its sign is the coefficient of the local basis.

    The skeleton is the Q edge moments and the W vertex and edge nodes: the
    DOFs that couple elements. They are a prefix twice over: the first
    ``nloc_q_skel`` (``nloc_w_skel``) columns of each row of q_index
    (w_index), in the local basis order, and the indices those columns
    hold, which are the leading indices of each block. So a skeleton DOF
    has the same index in the skeleton's blocks as in the full ones; the
    remaining columns and indices are element interiors.
    """

    k: int
    n_q: int
    n_w: int
    q_index: np.ndarray   # (T, nloc_q) int
    q_sign: np.ndarray    # (T, nloc_q) float, +-1
    w_index: np.ndarray   # (T, nloc_w) int, within the W block
    w_coords: np.ndarray  # (n_w, 2) global Lagrange node positions
    geo: geometry.ElementGeometry  # of the numbered mesh, built once here
    nloc_q_skel: int      # edge moments per element
    nloc_w_skel: int      # vertex and edge nodes per element

    @property
    def degree(self) -> int:
        return self.k + 1

    @property
    def n_total(self) -> int:
        return self.n_q + self.n_w

    @property
    def nloc_q(self) -> int:
        return self.q_index.shape[1]

    @property
    def nloc_w(self) -> int:
        return self.w_index.shape[1]


def build_dofmap(mesh: Mesh, topo: Topology, k: int) -> DofMap:
    """Deterministic numbering: edge DOFs first (mesh edge order), then
    element interiors; Lagrange vertices, then edge nodes, then interiors."""
    basis.check_degree(k + 1)
    m = k + 1
    T = mesh.num_triangles
    V = mesh.num_vertices
    E = topo.num_edges
    tris = mesh.triangles
    geo = geometry.element_geometry(mesh)

    # local edge e of a triangle is (a, b) with the listed traversal; flip
    # records whether that traversal disagrees with global low->high order
    first = np.stack([tris[:, a] for a, _ in basis.LOCAL_EDGES], axis=1)
    second = np.stack([tris[:, b] for _, b in basis.LOCAL_EDGES], axis=1)
    flips = first > second

    n_edge_q = basis.rt_edge_dofs(m)           # moments per edge
    n_int_q = m * (m + 1)
    nloc_q_skel = 3 * n_edge_q
    nloc_q = nloc_q_skel + n_int_q
    n_q = E * n_edge_q + T * n_int_q

    q_index = np.empty((T, nloc_q), dtype=np.int64)
    q_sign = np.ones((T, nloc_q))
    j = np.arange(n_edge_q)
    odd_flip = np.where(j % 2 == 0, -1.0, 1.0)  # (-1)^(j+1)
    for e in range(3):
        cols = slice(e * n_edge_q, (e + 1) * n_edge_q)
        q_index[:, cols] = topo.tri_to_edge[:, e, None] * n_edge_q + j[None, :]
        q_sign[:, cols] = np.where(flips[:, e, None], odd_flip[None, :], 1.0)
    q_index[:, nloc_q_skel:] = (
        E * n_edge_q + np.arange(T)[:, None] * n_int_q + np.arange(n_int_q)[None, :]
    )

    n_edge_w = m - 1
    n_int_w = (m - 1) * (m - 2) // 2
    nloc_w_skel = 3 + 3 * n_edge_w
    nloc_w = nloc_w_skel + n_int_w
    n_w = V + E * n_edge_w + T * n_int_w

    w_index = np.empty((T, nloc_w), dtype=np.int64)
    w_index[:, :3] = tris
    for e in range(3):
        cols = np.arange(3 + e * n_edge_w, 3 + (e + 1) * n_edge_w)
        base = V + topo.tri_to_edge[:, e, None] * n_edge_w
        pos = np.arange(n_edge_w)[None, :]
        pos = np.where(flips[:, e, None], n_edge_w - 1 - pos, pos)
        w_index[:, cols] = base + pos
    w_index[:, nloc_w_skel:] = (
        V + E * n_edge_w + np.arange(T)[:, None] * n_int_w + np.arange(n_int_w)[None, :]
    )

    w_coords = np.empty((n_w, 2))
    w_coords[:V] = mesh.vertices
    lo = mesh.vertices[topo.edges[:, 0]]
    hi = mesh.vertices[topo.edges[:, 1]]
    for pos in range(1, m):
        w_coords[V + np.arange(E) * n_edge_w + pos - 1] = lo + (pos / m) * (hi - lo)
    if n_int_w:
        ref = basis.lagrange_nodes(m)[nloc_w_skel:]
        w_coords[V + E * n_edge_w:] = geo.map_points(ref).reshape(-1, 2)

    return DofMap(
        k=k, n_q=n_q, n_w=n_w,
        q_index=q_index, q_sign=q_sign,
        w_index=w_index, w_coords=w_coords, geo=geo,
        nloc_q_skel=nloc_q_skel, nloc_w_skel=nloc_w_skel,
    )
