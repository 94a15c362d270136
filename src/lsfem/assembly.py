"""Assembly of the symmetric least-squares systems.

The bilinear form pairs the two first-order residuals (vector residual
q + sqrt(eps) grad u, scalar residual sqrt(eps) div q + beta.grad u + c u)
with themselves and adds a boundary penalty whose weight is

    weak:     (eps + max(-beta.n, 0)) / h_F
    alt-weak: eps / h_F + max(-beta.n, 0)

so outflow faces are constrained only at O(eps). Flagged slit edges get
the penalty (eps + |beta.n|) / h_F. Strong mode drops the boundary penalty
and, after the slit terms, eliminates boundary scalar DOFs symmetrically.
The pure-transport specialization keeps only the scalar residual and the
inflow part of the penalty.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.sparse import coo_matrix, diags

from . import fem
from .mesh import Mesh, Topology
from .solver import SparseSym

BC_MODES = ("weak", "strong", "alt-weak")


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of -eps*lap(u) + beta.grad(u) + c*u = f.

    All coefficient callables take numpy arrays (x, y) and broadcast;
    ``beta`` and ``exact_grad`` return arrays with a trailing axis of 2.
    ``epsilon == 0`` marks pure transport. ``slit_g`` holds data prescribed
    on flagged interior edges, where applicable.
    """

    name: str
    epsilon: float
    beta: Callable
    div_beta: Callable
    c: Callable
    f: Callable
    g: Callable
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    exact_lap: Optional[Callable] = None
    slit_g: Optional[Callable] = None
    notes: tuple = ()

    def residual(self, x, y):
        """PDE residual of the exact solution; zero for manufactured f."""
        if self.exact_u is None or self.exact_grad is None or self.exact_lap is None:
            raise ValueError(f"problem {self.name!r} has no exact solution")
        grad = self.exact_grad(x, y)
        conv = (self.beta(x, y) * grad).sum(axis=-1)
        return (
            -self.epsilon * self.exact_lap(x, y)
            + conv
            + self.c(x, y) * self.exact_u(x, y)
            - self.f(x, y)
        )

    def reaction_margin(self, x, y):
        """c - div(beta)/2, nonnegative under the coercivity assumption."""
        return self.c(x, y) - 0.5 * self.div_beta(x, y)


@dataclass
class LinearSystem:
    """Sparse SPD system with optional record of eliminated scalar DOFs.

    ``dirichlet`` lists (W-block index, value) pairs fixed by strong
    boundary imposition; indices are offset by ``n_q`` in the matrix.
    """

    matrix: SparseSym
    rhs: np.ndarray
    n_q: int
    n_w: int
    dirichlet: list = field(default_factory=list)


def _scalar_field(fn, x, y) -> np.ndarray:
    """Evaluate a scalar coefficient, broadcasting constants to x's shape."""
    return np.broadcast_to(np.asarray(fn(x, y), dtype=float), np.shape(x))


def face_weight(mode: str, eps: float, beta_n: np.ndarray, h_f) -> np.ndarray:
    """Face penalty weight at quadrature points: boundary faces in weak or
    alt-weak mode, flagged interior faces in slit mode."""
    if mode == "slit":
        return (eps + np.abs(beta_n)) / h_f
    inflow = np.maximum(-beta_n, 0.0)
    if mode == "weak":
        return (eps + inflow) / h_f
    if mode == "alt-weak":
        return eps / h_f + inflow
    raise ValueError(f"no face weight in mode {mode!r}")


def assemble_ls(
    problem: ProblemSpec,
    mesh: Mesh,
    topo: Topology,
    dofmap: fem.DofMap,
    bc_mode: str = "weak",
) -> LinearSystem:
    """Assemble the least-squares system for the diffusive problem."""
    if bc_mode not in BC_MODES:
        raise ValueError(f"bc_mode must be one of {BC_MODES}, got {bc_mode!r}")
    if problem.epsilon <= 0.0:
        raise ValueError("epsilon must be positive; use assemble_transport for epsilon == 0")
    if dofmap.q_index.shape[0] != mesh.num_triangles:
        raise ValueError("dofmap was built for a different mesh")

    a_loc, b_loc = _local_systems(problem, dofmap)
    gidx = np.concatenate([dofmap.q_index, dofmap.n_q + dofmap.w_index], axis=1)
    n = dofmap.n_total
    mat, rhs = _scatter(a_loc, b_loc, gidx, n)
    if bc_mode != "strong":
        pen, pen_rhs = _face_terms(problem, topo, dofmap, bc_mode, dofmap.n_q, n)
        mat, rhs = mat + pen, rhs + pen_rhs
    # slit terms enter before strong elimination, so eliminated rows stay identity rows
    if topo.slit_edges.size and problem.slit_g is not None:
        pen, pen_rhs = apply_slit(problem, topo, dofmap)
        mat, rhs = mat + pen, rhs + pen_rhs

    dirichlet = []
    if bc_mode == "strong":
        wdofs = boundary_w_dofs(mesh, topo, dofmap)
        coords = dofmap.w_coords[wdofs]
        values = _scalar_field(problem.g, coords[:, 0], coords[:, 1]).copy()
        mat, rhs = _eliminate_strong(mat, rhs, dofmap.n_q + wdofs, values)
        dirichlet = list(zip(wdofs.tolist(), values.tolist()))
    return LinearSystem(SparseSym.from_csr(mat), rhs, dofmap.n_q, dofmap.n_w, dirichlet)


def assemble_transport(
    problem: ProblemSpec,
    mesh: Mesh,
    topo: Topology,
    dofmap: fem.DofMap,
) -> LinearSystem:
    """Assemble the scalar-only transport-reaction system on W_h."""
    if problem.epsilon != 0.0:
        raise ValueError("transport assembly requires epsilon == 0")
    a_loc, b_loc = _local_systems(problem, dofmap)
    n = dofmap.n_w
    mat, rhs = _scatter(a_loc, b_loc, dofmap.w_index, n)
    # with eps == 0 the weak boundary weight is the inflow weight alone
    pen, pen_rhs = _face_terms(problem, topo, dofmap, "weak", 0, n)
    return LinearSystem(SparseSym.from_csr(mat + pen), rhs + pen_rhs, 0, n)


def apply_slit(problem: ProblemSpec, topo: Topology, dofmap: fem.DofMap):
    """Interior-face penalty enforcing ``problem.slit_g`` on the flagged slit
    edges, for the least-squares system numbered by ``dofmap``; returns
    (CSR matrix, rhs).

    The weight is (eps + |beta . n_F|) / h_F with n_F the stored oriented
    normal; the absolute value keeps the term symmetric and side-agnostic.
    """
    return _face_terms(problem, topo, dofmap, "slit", dofmap.n_q, dofmap.n_total)


def boundary_w_dofs(mesh: Mesh, topo: Topology, dofmap: fem.DofMap) -> np.ndarray:
    """W-block indices of all Lagrange nodes lying on the boundary."""
    m = dofmap.degree
    b = topo.boundary_edges
    verts = np.unique(topo.edges[b].ravel())
    if m == 1:
        return verts
    V = mesh.num_vertices
    edge_nodes = (V + b[:, None] * (m - 1) + np.arange(m - 1)[None, :]).ravel()
    return np.concatenate([verts, edge_nodes])


def mass_diagonal(mesh: Mesh, dofmap: fem.DofMap) -> np.ndarray:
    """Squared L2 norms of the global basis functions, blockwise [Q | W].

    Used to rescale assembled systems so matrix Rayleigh quotients mirror
    the function-space ones when estimating condition numbers. ``mesh`` is
    not read: the DOF map carries the geometry.
    """
    tab = fem.reference_tables(dofmap.k, 2 * dofmap.degree + 2)
    geo = dofmap.geo
    diag = np.zeros(dofmap.n_total)
    w_sq = geo.det[:, None] * (tab.w_vals**2 @ tab.weights)[None, :]
    np.add.at(diag, dofmap.n_q + dofmap.w_index.ravel(), w_sq.ravel())
    q_mass = _affine_block(geo.jac, 1.0 / geo.det, tab.q_vals, tab.weights)
    q_sq = np.diagonal(q_mass, axis1=1, axis2=2)
    np.add.at(diag, dofmap.q_index.ravel(), q_sq.ravel())
    return diag


def _local_systems(problem, dofmap):
    """Local matrices (T, nloc, nloc) and vectors (T, nloc) of the
    least-squares form, [Q | W] for eps > 0 and W alone for transport.

    R (T, nloc, nq) is the scalar residual sqrt(eps) div q + beta.grad w + c w
    of every local basis function times sqrt(w det J); its part is R R^T and
    the local vector pairs R with f. The vector residual q + sqrt(eps) grad w
    is affine in the element map: its blocks are ``_affine_block``s.
    """
    eps, se = problem.epsilon, np.sqrt(problem.epsilon)
    geo, sign = dofmap.geo, dofmap.q_sign
    tab = fem.reference_tables(dofmap.k, fem.assembly_degree(dofmap.k))
    X = geo.map_points(tab.xy)
    sqw = np.sqrt(tab.weights[None, :] * geo.det[:, None])          # (T, nq)
    # beta.grad w + c w = (J^{-1} beta, c) . (reference grad w, w)
    beta_ref = np.einsum("tdr,tqd->tqr", geo.inv_t, problem.beta(X[..., 0], X[..., 1]))
    cval = _scalar_field(problem.c, X[..., 0], X[..., 1])
    coef = np.concatenate([beta_ref, cval[..., None]], axis=2) * sqw[..., None]
    w_tab = np.concatenate([tab.w_grads, tab.w_vals[..., None]], axis=2)

    nq = dofmap.nloc_q if eps > 0.0 else 0
    R = np.empty((len(geo.det), nq + dofmap.nloc_w, len(tab.weights)))
    np.einsum("tqr,iqr->tiq", coef, w_tab, out=R[:, nq:])
    # Q rows sqrt(eps) div q = sqrt(eps) (sign) (reference div) / det J; none for transport
    np.einsum("tq,ti,iq->tiq", (se / geo.det)[:, None] * sqw, sign[:, :nq], tab.q_divs[:nq],
              out=R[:, :nq])
    a_loc = np.matmul(R, R.swapaxes(1, 2))
    b_loc = np.einsum("tiq,tq->ti", R, _scalar_field(problem.f, X[..., 0], X[..., 1]) * sqw)
    if nq:
        q_mass = _affine_block(geo.jac, 1.0 / geo.det, tab.q_vals, tab.weights)
        a_loc[:, :nq, :nq] += q_mass * (sign[:, :, None] * sign[:, None, :])
        a_loc[:, nq:, nq:] += _affine_block(geo.inv_t, eps * geo.det, tab.w_grads, tab.weights)
        # q_i . sqrt(eps) grad w_j does not depend on the map: J and J^{-T} cancel
        cross = np.einsum("iqd,jqd,q->ij", tab.q_vals, tab.w_grads, tab.weights)
        cross = se * sign[:, :, None] * cross[None]
        a_loc[:, :nq, nq:] += cross
        a_loc[:, nq:, :nq] += cross.swapaxes(1, 2)
    # the matrix products may sum the terms of (i, j) and (j, i) in different
    # orders, as the 2x2 contractions do; averaging makes a_loc exactly symmetric
    a_loc += a_loc.swapaxes(1, 2)
    a_loc *= 0.5
    return a_loc, b_loc


def _affine_block(F, scale, ref, weights):
    """Matrices sum_q w_q scale (F v_i).(F v_j) of reference fields v (n, nq, 2)
    on every element, as the element factors scale F^T F (T, 4) times the
    reference Gram matrices (4, n*n); returns (T, n, n)."""
    factor = np.einsum("tda,tdb->tab", F, F).reshape(len(F), 4) * scale[:, None]
    gram = np.einsum("iqa,jqb,q->abij", ref, ref, weights).reshape(4, -1)
    return (factor @ gram).reshape(len(F), len(ref), len(ref))


def _scatter(a_loc, b_loc, gidx, n):
    """Sum local blocks (E, nl, nl) and vectors (E, nl) at global indices
    gidx (E, nl) into an n x n CSR matrix and a length-n vector."""
    nloc = gidx.shape[1]
    rows = np.repeat(gidx, nloc, axis=1)
    cols = np.tile(gidx, (1, nloc))
    mat = coo_matrix((a_loc.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()
    rhs = np.zeros(n)
    np.add.at(rhs, gidx.ravel(), b_loc.ravel())
    return mat, rhs


def _face_terms(problem, topo, dofmap, mode, offset, n):
    """Face penalty int_F w (u - d)^2 as an n x n CSR matrix and rhs, with
    the W block starting at ``offset``.

    Slit mode runs over the flagged slit edges with their stored normals and
    d = slit_g; the other modes over the boundary with outward normals and
    d = g. w is face_weight(mode, eps, beta.n, h_F).
    """
    if mode == "slit":
        edges = topo.slit_edges
        normals, data = topo.normals[edges], problem.slit_g
    else:
        edges = topo.boundary_edges
        normals, data = topo.outward_normals(edges), problem.g
    blocks, rhs_blocks, gidx = [], [], []
    for sel, tris, pts, trace, weights, h in fem.edge_quadrature(
        topo, dofmap, edges, fem.assembly_degree(dofmap.k)
    ):
        beta_n = np.einsum("eqd,ed->eq", problem.beta(pts[..., 0], pts[..., 1]), normals[sel])
        scale = face_weight(mode, problem.epsilon, beta_n, h) * weights * h
        gval = _scalar_field(data, pts[..., 0], pts[..., 1])
        blocks.append(np.einsum("aq,bq,eq->eab", trace, trace, scale))
        rhs_blocks.append(np.einsum("aq,eq->ea", trace, scale * gval))
        gidx.append(offset + dofmap.w_index[tris])
    return _scatter(np.concatenate(blocks), np.concatenate(rhs_blocks), np.concatenate(gidx), n)


def _eliminate_strong(mat, rhs, idx, values):
    """Fix the unknowns ``idx`` to ``values`` by symmetric elimination:
    their rows and columns become identity, and the rhs absorbs the
    columns. Returns the new (CSR matrix, rhs)."""
    xk = np.zeros(mat.shape[0])
    xk[idx] = values
    rhs = rhs - mat @ xk
    keep = np.ones(mat.shape[0])
    keep[idx] = 0.0
    D = diags(keep)
    rhs[idx] = values
    return (D @ mat @ D + diags(1.0 - keep)).tocsr(), rhs
