"""Affine element geometry and basis tables on physical elements.

Scalar bases ride the affine map (values unchanged, gradients through
J^{-T}); vector bases ride the contravariant Piola map, whose divergence
is the reference divergence divided by det J.
The geometry is built once per DOF map and read from ``DofMap.geo``.
The pipeline contracts on ``basis.reference_tables`` and maps afterwards;
``w_tables`` and ``q_tables`` build the physical tables tests compare with.
Contractions with the (T, 2, 2) Jacobians are batched matmuls: einsum runs
such short axes as scalar loops, several times slower.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..mesh import Mesh, Topology
from . import basis, quadrature

if TYPE_CHECKING:
    from .dofmap import DofMap


@dataclass(frozen=True)
class ElementGeometry:
    v0: np.ndarray      # (T, 2) first vertex of each element
    jac: np.ndarray     # (T, 2, 2) affine map Jacobian, columns are edge vectors
    det: np.ndarray     # (T,) determinant, positive for CCW elements
    inv_t: np.ndarray   # (T, 2, 2) inverse transpose, maps reference gradients

    def map_points(self, ref_pts: np.ndarray) -> np.ndarray:
        """Physical images of reference points, shape (T, npts, 2)."""
        return self.v0[:, None, :] + ref_pts @ self.jac.swapaxes(1, 2)

    def piola(self, ref_vals: np.ndarray) -> np.ndarray:
        """Contravariant Piola images J v / det J of reference fields v (T, npts, 2)."""
        return ref_vals @ self.jac.swapaxes(1, 2) / self.det[:, None, None]


def element_geometry(mesh: Mesh) -> ElementGeometry:
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return ElementGeometry(v0=p[:, 0], jac=jac, det=det, inv_t=np.swapaxes(inv, 1, 2))


def w_tables(degree: int, ref_pts: np.ndarray, geo: ElementGeometry):
    """Scalar basis values (nloc, nq) and physical gradients (T, nloc, nq, 2)."""
    vals, ref_grads = basis.lagrange_basis(degree, ref_pts)
    grads = np.einsum("tdr,iqr->tiqd", geo.inv_t, ref_grads)
    return vals, grads


def q_tables(order: int, ref_pts: np.ndarray, geo: ElementGeometry):
    """Piola-mapped vector basis values (T, nloc, nq, 2) and divergences
    (T, nloc, nq). Orientation signs are not applied here."""
    ref_vals, ref_divs = basis.rt_basis(order, ref_pts)
    vals = np.einsum("tdr,iqr->tiqd", geo.jac, ref_vals) / geo.det[:, None, None, None]
    divs = ref_divs[None, :, :] / geo.det[:, None, None]
    return vals, divs


def edge_quadrature(topo: Topology, dofmap: DofMap, edges, degree: int):
    """Gauss quadrature of exact degree ``degree`` on the given edges, one
    row per face, each face seen from its first neighbouring triangle.

    Returns ``(owners, pts, trace, weights, h)``: the owning triangles (E,),
    the physical points (E, nq, 2), the owner's W-space Lagrange traces
    (E, nloc, nq), the reference weights (nq,) and h_F as a column (E, 1).
    One basis call tabulates the three local edges and each face gathers
    its own. An edge integral of a penalty ``w`` is ``sum(w * weights * h)``,
    formed in that order.
    """
    geo = dofmap.geo
    erule = quadrature.edge_rule(degree)
    t = erule.points[:, 0]
    owners = topo.edge_to_tri[edges, 0]
    local = np.argmax(topo.tri_to_edge[owners] == edges[:, None], axis=1)
    ref = np.stack([basis.edge_ref_points(le, t) for le in range(3)])  # (3, nq, 2)
    # (nloc, 3 nq) -> (3, nloc, nq), the traces on the three local edges
    trace = basis.lagrange_basis(dofmap.degree, ref)[0].reshape(-1, 3, len(t)).swapaxes(0, 1)
    # the arithmetic of ElementGeometry.map_points, face by face
    pts = geo.v0[owners, None, :] + ref[local] @ geo.jac[owners].swapaxes(1, 2)
    return owners, pts, trace[local], erule.weights, topo.h_F[edges, None]
