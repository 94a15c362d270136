"""Error norms of discrete solutions against catalog exact solutions,
with optional restriction to a subdomain, plus the nodal/moment
interpolation operator used by exactness and sanity tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import fem
from ..assembly import ProblemSpec, _scalar_field, face_table
from ..mesh import Mesh, Topology


@dataclass
class ErrorReport:
    """Norm components of the discrete error on one mesh level.

    ``e_grad`` is scaled by sqrt(eps); ``e_bdry`` uses the boundary weight
    (eps + max(-beta.n, 0))^(1/2) with the face-size factor h_F^(-1/2).
    ``level`` and the EOCs are set by convergence_study, the EOCs once a
    previous level exists.
    """

    h: float
    n_dofs: int
    e_L2: float
    e_grad: float
    e_q: float
    e_stream: float
    e_bdry: float
    region: str = "full"
    level: int = 0
    eoc_L2: Optional[float] = None
    eoc_grad: Optional[float] = None
    eoc_q: Optional[float] = None
    eoc_stream: Optional[float] = None


def region_elements(mesh: Mesh, region) -> np.ndarray:
    """Elements whose every vertex lies inside the closed box region."""
    if region is None:
        return np.arange(mesh.num_triangles)
    xmin, xmax, ymin, ymax = region
    tol = 1e-12 * mesh.bounding_box()[1]
    p = mesh.vertices[mesh.triangles]
    inside = (p >= np.array([xmin, ymin]) - tol) & (p <= np.array([xmax, ymax]) + tol)
    return np.flatnonzero(inside.all(axis=(1, 2)))


def nonempty_region(mesh: Mesh, region) -> np.ndarray:
    """``region_elements``, raising ValueError when the region keeps none."""
    sel = region_elements(mesh, region)
    if not sel.size:
        raise ValueError(f"region {_region_label(region)} contains no element of the mesh")
    return sel


def error_norms(
    solution: np.ndarray,
    mesh: Mesh,
    topo: Topology,
    dofmap: fem.DofMap,
    problem: ProblemSpec,
    region=None,
) -> ErrorReport:
    """Evaluate the error norm components with elevated quadrature.

    ``solution`` is the full [Q | W] coefficient vector, or a W-only vector
    of length n_w for transport solves (then e_q and e_grad drop out of the
    vector part naturally since eps = 0). A ``region`` that keeps no element
    raises ValueError. The report's ``level`` is left 0 for ``convergence_study``.
    """
    if problem.exact_u is None or problem.exact_grad is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    transport = len(solution) == dofmap.n_w
    coef_w = solution if transport else solution[dofmap.n_q:]
    eps = problem.epsilon
    se = np.sqrt(eps)

    sel = nonempty_region(mesh, region)
    tab = fem.reference_tables(dofmap.k, fem.error_degree(dofmap.k))
    geo = dofmap.geo
    X = geo.map_points(tab.xy)
    wq = tab.weights[None, :] * geo.det[:, None]

    # contract on the reference element, then map: grad u_h = J^{-T} (ref grad u_h)
    cw = coef_w[dofmap.w_index]                      # (T, nloc_w)
    u_h = cw @ tab.w_vals
    grad_h = np.tensordot(cw, tab.w_grads, 1) @ geo.inv_t.swapaxes(1, 2)

    u_ex = _scalar_field(problem.exact_u, X[..., 0], X[..., 1])
    grad_ex = problem.exact_grad(X[..., 0], X[..., 1])
    beta = problem.beta(X[..., 0], X[..., 1])[sel]

    du = (u_ex - u_h)[sel]
    dgrad = (grad_ex - grad_h)[sel]
    w_sel = wq[sel]
    e_l2 = np.sqrt(np.einsum("tq,tq->", du**2, w_sel))
    e_grad = se * np.sqrt(np.einsum("tqd,tqd,tq->", dgrad, dgrad, w_sel))
    stream = beta[..., 0] * dgrad[..., 0] + beta[..., 1] * dgrad[..., 1]
    e_stream = np.sqrt(np.einsum("tq,tq->", stream**2, w_sel))

    if transport:
        e_q = 0.0
    else:
        cq = dofmap.q_sign * solution[dofmap.q_index]
        q_h = geo.piola(np.tensordot(cq, tab.q_vals, 1))
        dq = (-se * grad_ex - q_h)[sel]
        e_q = np.sqrt(np.einsum("tqd,tqd,tq->", dq, dq, w_sel))

    e_bdry = _boundary_error(coef_w, topo, dofmap, problem, sel)

    return ErrorReport(
        h=float(topo.h_K.max()),
        n_dofs=dofmap.n_w if transport else dofmap.n_total,
        e_L2=float(e_l2),
        e_grad=float(e_grad),
        e_q=float(e_q),
        e_stream=float(e_stream),
        e_bdry=float(e_bdry),
        region="full" if region is None else _region_label(region),
    )


def interpolate_solution(problem: ProblemSpec, mesh: Mesh, topo: Topology, dofmap: fem.DofMap):
    """Nodal/moment interpolant of (q, u) = (-sqrt(eps) grad u, u), in the
    layout ``solve_problem`` returns: the [Q | W] coefficient vector, or for
    transport (eps == 0) the W block alone. ``mesh`` and ``topo`` are not
    read: the DOF map holds the geometry and the numbering.
    """
    if problem.exact_u is None or problem.exact_grad is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution")
    w = interpolate_scalar(problem.exact_u, dofmap)
    if problem.epsilon == 0.0:
        return w
    se = np.sqrt(problem.epsilon)
    return np.concatenate([_q_moments(lambda x, y: -se * problem.exact_grad(x, y), dofmap), w])


def interpolate_scalar(fn, dofmap: fem.DofMap) -> np.ndarray:
    """Lagrange interpolant coefficients of a scalar callable (W block only)."""
    xw = dofmap.w_coords
    return _scalar_field(fn, xw[:, 0], xw[:, 1]).copy()


def sample_solution(solution: np.ndarray, mesh: Mesh, dofmap: fem.DofMap):
    """Vertex values of u_h and cell-center values of q_h for plotting.

    Vertex Lagrange coefficients are nodal values directly; q_h is
    evaluated at the element centroid. Returns (u_vertices, q_cells) with
    q_cells None for W-only (transport) vectors.
    """
    transport = len(solution) == dofmap.n_w
    coef_w = solution if transport else solution[dofmap.n_q:]
    u_vertices = coef_w[: mesh.num_vertices].copy()
    if transport:
        return u_vertices, None
    center = np.array([[1.0 / 3.0, 1.0 / 3.0]])
    cq = dofmap.q_sign * solution[dofmap.q_index]
    q_ref = np.tensordot(cq, fem.rt_basis(dofmap.degree, center)[0], 1)
    return u_vertices, dofmap.geo.piola(q_ref)[:, 0, :]


def _q_moments(field, dofmap: fem.DofMap) -> np.ndarray:
    """Global vector DOFs of a smooth field: the reference DOFs of each
    element's pull-back det(J) J^{-1} f, signed into the global numbering.
    The two elements of an edge agree on its moments only to round-off, so
    each global DOF is read from its first occurrence in ``q_index``."""
    geo = dofmap.geo

    def pull_back(pts):
        X = geo.map_points(pts)
        return field(X[..., 0], X[..., 1]) @ geo.inv_t * geo.det[:, None, None]

    local = fem.rt_dofs(dofmap.degree, 2 * dofmap.degree + 4, pull_back)
    _, first = np.unique(dofmap.q_index, return_index=True)
    return (dofmap.q_sign * local).ravel()[first]


def _boundary_error(coef_w, topo, dofmap, problem, sel):
    """Weighted boundary norm over the boundary edges owned by elements in
    ``sel``: one row of the weak-mode ``face_table`` per face, with u_h from
    the owner's W coefficients and traces."""
    edges = topo.boundary_edges[np.isin(topo.edge_to_tri[topo.boundary_edges, 0], sel)]
    owners, pts, trace, weights, h, w = face_table(
        problem, topo, dofmap, "weak", edges, fem.error_degree(dofmap.k)
    )
    u_h = (coef_w[dofmap.w_index[owners]][:, None, :] @ trace)[:, 0]
    du = _scalar_field(problem.exact_u, pts[..., 0], pts[..., 1]) - u_h
    return np.sqrt(np.sum(w * du**2 * weights * h))


def _region_label(region) -> str:
    return f"[{region[0]:g},{region[1]:g}]x[{region[2]:g},{region[3]:g}]"
