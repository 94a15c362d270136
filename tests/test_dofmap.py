import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    edge_traces,
    edge_w_values,
    jittered_relabelled_meshes,
    make_case,
    polynomial_problem,
)
from lsfem import fem
from lsfem.bench.errors import interpolate_scalar
from lsfem.fem import basis
from lsfem.mesh import Mesh, build_topology, generate_structured, refine_uniform


def test_single_triangle_counts_k0():
    mesh = Mesh(
        np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
        np.array([[0, 1, 2]]),
        np.zeros(1, int),
    )
    topo = build_topology(mesh)
    dm = fem.build_dofmap(mesh, topo, 0)
    assert dm.n_q == 8
    assert dm.n_w == 3
    assert dm.n_total == 11


def test_two_triangle_counts():
    # shared edge carries shared vector DOFs: 2*8 local minus 2 shared = 14
    mesh, topo, dm = make_case(1, 0)
    assert dm.n_q == 5 * 2 + 2 * 2
    assert dm.n_q == 14
    assert dm.n_w == 4
    dm1 = fem.build_dofmap(mesh, topo, 1)
    assert dm1.n_w == 4 + 5  # vertices plus one node per edge


@pytest.mark.parametrize("k", [0, 1, 2])
def test_global_counts_formula(k):
    mesh, topo, dm = make_case(3, k, perturb=0.1)
    m = k + 1
    E, T, V = topo.num_edges, mesh.num_triangles, mesh.num_vertices
    assert dm.n_q == E * (m + 1) + T * m * (m + 1)
    assert dm.n_w == V + E * (m - 1) + T * (m - 1) * (m - 2) // 2


@pytest.mark.parametrize("k", [0, 1, 2])
def test_shared_edge_dofs_have_identical_indices(k):
    mesh, topo, dm = make_case(2, k, perturb=0.15)
    n_edge = basis.rt_edge_dofs(k + 1)
    for e in np.flatnonzero(~topo.is_boundary):
        t0, t1 = topo.edge_to_tri[e]
        le0 = int(np.flatnonzero(topo.tri_to_edge[t0] == e)[0])
        le1 = int(np.flatnonzero(topo.tri_to_edge[t1] == e)[0])
        g0 = dm.q_index[t0, le0 * n_edge: (le0 + 1) * n_edge]
        g1 = dm.q_index[t1, le1 * n_edge: (le1 + 1) * n_edge]
        assert np.array_equal(g0, g1)


@pytest.mark.parametrize("k", [0, 1, 2])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(mesh=jittered_relabelled_meshes())
def test_hdiv_normal_trace_continuity(k, mesh):
    # evaluated from both incident elements at shared physical points
    topo = build_topology(mesh)
    dm = fem.build_dofmap(mesh, topo, k)
    t = fem.edge_rule(2 * (k + 1) + 2).points[:, 0]
    worst = 0.0
    for e in np.flatnonzero(~topo.is_boundary):
        sides = edge_traces(mesh, topo, dm, e, t)
        (t0, d0), (t1, d1) = sides.items()
        for g in set(d0) | set(d1):
            a = d0.get(g, np.zeros_like(t))
            b = d1.get(g, np.zeros_like(t))
            worst = max(worst, np.abs(np.asarray(a) - np.asarray(b)).max())
    assert worst < 1e-11


@pytest.mark.parametrize("k", [0, 1, 2])
def test_h1_continuity(k):
    mesh, topo, dm = make_case(3, k, perturb=0.2)
    t = fem.edge_rule(2 * (k + 1) + 2).points[:, 0]
    worst = 0.0
    for e in np.flatnonzero(~topo.is_boundary):
        sides = edge_w_values(mesh, topo, dm, e, t)
        (t0, d0), (t1, d1) = sides.items()
        for g in set(d0) | set(d1):
            a = np.asarray(d0.get(g, np.zeros_like(t)))
            b = np.asarray(d1.get(g, np.zeros_like(t)))
            worst = max(worst, np.abs(a - b).max())
    assert worst < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_piola_divergence_identity(k):
    # physical divergence equals reference divergence / det(J)
    mesh, topo, dm = make_case(2, k, perturb=0.25)
    geo = fem.element_geometry(mesh)
    rule = fem.triangle_rule(2 * (k + 1))
    ref_vals, ref_divs = basis.rt_basis(k + 1, rule.xy)
    _, divs = fem.q_tables(k + 1, rule.xy, geo)
    expect = ref_divs[None, :, :] / geo.det[:, None, None]
    scale = max(1.0, np.abs(expect).max())
    assert np.abs(divs - expect).max() / scale < 1e-12
    # and against finite differences of the mapped values on one element
    h = 1e-7
    vals0, _ = fem.q_tables(k + 1, rule.xy, geo)
    geo_pts = geo.map_points(rule.xy)
    ref_dx = np.linalg.solve(geo.jac[0], np.array([h, 0.0]))
    ref_dy = np.linalg.solve(geo.jac[0], np.array([0.0, h]))
    vx, _ = fem.q_tables(k + 1, rule.xy + ref_dx[None, :], geo)
    vy, _ = fem.q_tables(k + 1, rule.xy + ref_dy[None, :], geo)
    fd = (vx[0, ..., 0] - vals0[0, ..., 0]) / h + (vy[0, ..., 1] - vals0[0, ..., 1]) / h
    assert np.abs(fd - divs[0]).max() < 1e-4 * max(1.0, np.abs(divs[0]).max())


@pytest.mark.parametrize("k", [0, 1, 2])
def test_inverse_inequality_constants_stable_under_refinement(k):
    # the trace and divergence inverse constants are mesh-level quantities;
    # congruent refinement must keep them within 10%
    mesh = generate_structured(2, 0.2)
    values = []
    for level in range(2):
        topo = build_topology(mesh)
        values.append(_inverse_constants(mesh, topo, k))
        mesh = refine_uniform(mesh)
    (c_tr0, c_div0), (c_tr1, c_div1) = values
    assert 0.9 <= c_tr1 / c_tr0 <= 1.1
    assert 0.9 <= c_div1 / c_div0 <= 1.1


def _inverse_constants(mesh, topo, k):
    m = k + 1
    geo = fem.element_geometry(mesh)
    rule = fem.triangle_rule(2 * m + 2)
    erule = fem.edge_rule(2 * m + 2)
    t = erule.points[:, 0]
    vals, divs = fem.q_tables(m, rule.xy, geo)
    wq = rule.weights[None, :] * geo.det[:, None]
    norm_k = np.sqrt(np.einsum("tiqd,tiqd,tq->ti", vals, vals, wq))
    norm_div = np.sqrt(np.einsum("tiq,tiq,tq->ti", divs, divs, wq))
    c_div = (norm_div / norm_k * topo.h_K[:, None]).max()

    c_tr = 0.0
    for e in topo.boundary_edges:
        tri = topo.edge_to_tri[e, 0]
        le = int(np.flatnonzero(topo.tri_to_edge[tri] == e)[0])
        ref = fem.edge_ref_points(le, t)
        evals, _ = fem.q_tables(m, ref, geo)
        n_out = topo.outward_normals([e])[0]
        tr = evals[tri] @ n_out
        tr_norm = np.sqrt((tr**2 * erule.weights).sum(axis=1) * topo.h_F[e])
        ratio = tr_norm / norm_k[tri] * np.sqrt(topo.h_K[tri])
        c_tr = max(c_tr, ratio.max())
    return c_tr, c_div


def test_w_coords_match_vertex_positions():
    mesh, topo, dm = make_case(3, 2, perturb=0.1)
    assert np.allclose(dm.w_coords[: mesh.num_vertices], mesh.vertices)
    # every element's local nodes map onto the stored global coordinates
    geo = fem.element_geometry(mesh)
    ref = basis.lagrange_nodes(3)
    phys = geo.map_points(ref)
    for tri in range(mesh.num_triangles):
        stored = dm.w_coords[dm.w_index[tri]]
        assert np.abs(stored - phys[tri]).max() < 1e-12


def test_rejects_bad_k():
    mesh, topo, _ = make_case(1, 0)
    with pytest.raises(ValueError):
        fem.build_dofmap(mesh, topo, 3)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_edge_quadrature_table(k):
    # every edge of a jittered mesh, so the faces sit on all three local
    # edges of their owners
    mesh, topo, dm = make_case(4, k, perturb=0.2)
    edges = np.arange(topo.num_edges)
    owners, pts, trace, weights, h = fem.edge_quadrature(topo, dm, edges, fem.assembly_degree(k))
    local = np.argmax(topo.tri_to_edge[owners] == edges[:, None], axis=1)
    assert set(local.tolist()) == {0, 1, 2}
    nq = len(weights)
    assert pts.shape == (len(edges), nq, 2)
    assert trace.shape == (len(edges), dm.w_index.shape[1], nq)

    # every point on its edge segment: no distance off the line, parameter in [0, 1]
    a = mesh.vertices[topo.edges[:, 0], None, :]
    d = mesh.vertices[topo.edges[:, 1], None, :] - a
    rel = pts - a
    off = np.abs(rel[..., 0] * d[..., 1] - rel[..., 1] * d[..., 0]) / topo.h_F[:, None]
    along = (rel * d).sum(axis=2) / topo.h_F[:, None] ** 2
    assert off.max() <= 1e-14
    assert along.min() >= -1e-14 and along.max() <= 1.0 + 1e-14
    assert np.abs(weights.sum() * h[:, 0] - topo.h_F[edges]).max() <= 1e-14

    # the traces reproduce a degree-(k+1) polynomial from its interpolant
    u = polynomial_problem(1.0, k).exact_u
    coef = interpolate_scalar(u, dm)
    u_h = np.einsum("eaq,ea->eq", trace, coef[dm.w_index[owners]])
    assert np.abs(u_h - u(pts[..., 0], pts[..., 1])).max() <= 1e-13


def test_edge_quadrature_of_no_edges_is_empty():
    mesh, topo, dm = make_case(2, 1)
    owners, pts, trace, weights, h = fem.edge_quadrature(topo, dm, np.array([], int), 6)
    nq, nloc = len(weights), dm.w_index.shape[1]
    assert owners.shape == (0,) and pts.shape == (0, nq, 2)
    assert trace.shape == (0, nloc, nq) and h.shape == (0, 1)
