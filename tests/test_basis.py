import re

import numpy as np
import pytest

from lsfem.fem import basis
from lsfem.fem.quadrature import edge_rule, triangle_rule


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lagrange_nodal_duality(degree):
    nodes = basis.lagrange_nodes(degree)
    vals, _ = basis.lagrange_basis(degree, nodes)
    assert np.abs(vals - np.eye(len(nodes))).max() < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lagrange_partition_of_unity(degree):
    pts = triangle_rule(8).points
    vals, grads = basis.lagrange_basis(degree, pts)
    assert np.abs(vals.sum(axis=0) - 1.0).max() < 1e-13
    assert np.abs(grads.sum(axis=0)).max() < 1e-13


def test_p2_edge_midpoint_duality():
    nodes = basis.lagrange_nodes(2)
    mid = 0.5 * (basis.REF_VERTS[1] + basis.REF_VERTS[2])  # midpoint of edge 0
    vals, _ = basis.lagrange_basis(2, mid[None, :])
    idx = int(np.argmin(np.linalg.norm(nodes - mid, axis=1)))
    expect = np.zeros(len(nodes))
    expect[idx] = 1.0
    assert np.abs(vals[:, 0] - expect).max() < 1e-13


def test_lagrange_rejects_degrees():
    for degree in (0, basis.MAX_ORDER + 1):
        message = f"polynomial degree must be in 1..{basis.MAX_ORDER}, got {degree}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            basis.lagrange_basis(degree, np.zeros((1, 2)))


@pytest.mark.parametrize("order,dim,edge,interior",
                         [(1, 8, 6, 2), (2, 15, 9, 6), (3, 24, 12, 12), (4, 35, 15, 20)])
def test_rt_dimensions(order, dim, edge, interior):
    assert basis.rt_dimension(order) == dim
    assert 3 * basis.rt_edge_dofs(order) == edge
    assert dim - edge == interior


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rt_dof_matrix_is_identity(order):
    D = basis.rt_dofs(order, 2 * order + 2, lambda pts: basis.rt_basis(order, pts)[0])
    assert np.abs(D - np.eye(len(D))).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rt_trace_vanishes_on_other_edges(order):
    t = edge_rule(2 * order + 2).points[:, 0]
    n_edge = basis.rt_edge_dofs(order)
    for target in range(3):
        a, b = basis.LOCAL_EDGES[target]
        pts = basis.REF_VERTS[a][None, :] + t[:, None] * (
            basis.REF_VERTS[b] - basis.REF_VERTS[a]
        )[None, :]
        vals, _ = basis.rt_basis(order, pts)
        trace = vals @ basis.REF_EDGE_NORMALS[target]
        for e in range(3):
            if e == target:
                continue
            block = trace[e * n_edge: (e + 1) * n_edge]
            assert np.abs(block).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rt_interior_dofs_have_zero_trace(order):
    t = edge_rule(2 * order + 2).points[:, 0]
    for target in range(3):
        a, b = basis.LOCAL_EDGES[target]
        pts = basis.REF_VERTS[a][None, :] + t[:, None] * (
            basis.REF_VERTS[b] - basis.REF_VERTS[a]
        )[None, :]
        vals, _ = basis.rt_basis(order, pts)
        trace = vals @ basis.REF_EDGE_NORMALS[target]
        assert np.abs(trace[3 * basis.rt_edge_dofs(order):]).max() < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rt_divergence_matches_finite_differences(order):
    pts = np.array([[0.31, 0.27], [0.11, 0.52]])
    h = 1e-7
    v0, d0 = basis.rt_basis(order, pts)
    vx, _ = basis.rt_basis(order, pts + [h, 0.0])
    vy, _ = basis.rt_basis(order, pts + [0.0, h])
    fd = (vx[..., 0] - v0[..., 0]) / h + (vy[..., 1] - v0[..., 1]) / h
    assert np.abs(fd - d0).max() < 1e-5 * max(1.0, np.abs(d0).max())


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_rt_space_contains_vector_polynomials(order):
    # P_order^2 must be reproduced exactly by interpolation onto the basis:
    # build DOF values of a polynomial field and compare pointwise
    rng = np.random.default_rng(7)
    coef = rng.standard_normal((order + 1, order + 1, 2))
    exps = [(a, b) for a in range(order + 1) for b in range(order + 1 - a)]

    def field(pts):
        out = np.zeros((len(pts), 2))
        for a, b in exps:
            out += coef[a, b] * (pts[:, 0] ** a * pts[:, 1] ** b)[:, None]
        return out

    # DOF functionals applied to the field
    erule = edge_rule(2 * order + 4)
    t = erule.points[:, 0]
    dof_vals = []
    for e, (a, b) in enumerate(basis.LOCAL_EDGES):
        pa, pb = basis.REF_VERTS[a], basis.REF_VERTS[b]
        pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
        tr = field(pts) @ basis.REF_EDGE_NORMALS[e]
        for j in range(order + 1):
            w = basis.edge_moment_weight(j, t) * erule.weights * basis.REF_EDGE_LENGTHS[e]
            dof_vals.append(tr @ w)
    trule = triangle_rule(2 * order + 4)
    tests = basis.rt_interior_tests(order, trule.points)
    fv = field(trule.points)
    for i in range(len(tests)):
        dof_vals.append(np.einsum("qd,qd,q->", fv, tests[i], trule.weights))
    dof_vals = np.array(dof_vals)

    check = triangle_rule(5).points
    vals, _ = basis.rt_basis(order, check)
    recon = np.einsum("i,iqd->qd", dof_vals, vals)
    assert np.abs(recon - field(check)).max() < 1e-11


def test_edge_moment_weight_parity():
    t = np.linspace(0.0, 1.0, 7)
    for j in range(4):
        a = basis.edge_moment_weight(j, t)
        b = basis.edge_moment_weight(j, 1.0 - t)
        assert np.allclose(b, (-1.0) ** j * a, atol=1e-13)
