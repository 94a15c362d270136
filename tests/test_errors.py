import numpy as np
import pytest

from conftest import make_case, polynomial_problem
from lsfem import fem
from lsfem.bench import error_norms, get_problem, interpolate_solution, sample_solution
from lsfem.bench.errors import _q_moments, region_elements


@pytest.mark.parametrize("k", [0, 1, 2])
def test_interpolant_of_polynomial_has_zero_error(k):
    problem = polynomial_problem(0.2, k)
    mesh, topo, dm = make_case(3, k, perturb=0.2)
    coef = interpolate_solution(problem, mesh, topo, dm)
    report = error_norms(coef, mesh, topo, dm, problem)
    for field in ("e_L2", "e_grad", "e_q", "e_stream", "e_bdry"):
        assert getattr(report, field) <= 1e-10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_q_interpolant_reproduces_the_local_space(k):
    # a random field of the whole local space P_m^2 + x P_m (m = k + 1), whose
    # x P_m part no gradient of a polynomial reaches
    m = k + 1
    mesh, topo, dm = make_case(4, k, perturb=0.2)
    exps = [(a, b) for a in range(m + 1) for b in range(m + 1 - a)]
    coef = np.random.default_rng(k).standard_normal((len(exps), 3))

    def field(x, y):
        p = [sum(c[i] * x**a * y**b for c, (a, b) in zip(coef, exps)) for i in range(3)]
        return np.stack([p[0] + x * p[2], p[1] + y * p[2]], axis=-1)

    cq = dm.q_sign * _q_moments(field, dm)[dm.q_index]
    tab = fem.reference_tables(k, fem.error_degree(k))
    q_h = dm.geo.piola(np.tensordot(cq, tab.q_vals, 1))
    X = dm.geo.map_points(tab.xy)
    assert np.abs(q_h - field(X[..., 0], X[..., 1])).max() < 1e-12


def test_zero_solution_gives_exact_norm():
    # || sin(2 pi x) sin(2 pi y) ||_L2 = 1/2 by the closed-form integral
    problem = get_problem("smooth", 1e-3)
    mesh, topo, dm = make_case(16, 0, perturb=0.0)
    zero = np.zeros(dm.n_total)
    report = error_norms(zero, mesh, topo, dm, problem)
    assert report.e_L2 == pytest.approx(0.5, abs=1e-9)


def test_boundary_error_matches_edge_loop():
    # reference: the weighted boundary norm edge by edge, on the boundary
    # edges of the elements a region keeps
    problem = get_problem("boundary-layer", 1e-2)
    mesh, topo, dm = make_case(5, 1, perturb=0.15)
    x = np.random.default_rng(3).standard_normal(dm.n_total)
    region = (0.0, 0.6, 0.0, 1.0)
    report = error_norms(x, mesh, topo, dm, problem, region=region)

    kept = set(region_elements(mesh, region).tolist())
    geo = fem.element_geometry(mesh)
    erule = fem.edge_rule(fem.error_degree(dm.k))
    te = erule.points[:, 0]
    total = 0.0
    for e in topo.boundary_edges:
        tri = topo.edge_to_tri[e, 0]
        if tri not in kept:
            continue
        le = int(np.flatnonzero(topo.tri_to_edge[tri] == e)[0])
        ref_pts = fem.edge_ref_points(le, te)
        pts = geo.v0[tri] + ref_pts @ geo.jac[tri].T
        u_h = fem.lagrange_basis(dm.degree, ref_pts)[0].T @ x[dm.n_q + dm.w_index[tri]]
        du = problem.exact_u(pts[:, 0], pts[:, 1]) - u_h
        beta_n = problem.beta(pts[:, 0], pts[:, 1]) @ topo.outward_normals([e])[0]
        total += np.sum((problem.epsilon + np.maximum(-beta_n, 0.0)) * du**2 * erule.weights)
    assert 0.0 < report.e_bdry == pytest.approx(np.sqrt(total), rel=1e-13)


def test_region_filter_excludes_touching_elements():
    mesh, topo, dm = make_case(10, 0, perturb=0.0)
    sel = region_elements(mesh, (0.0, 0.9, 0.0, 0.9))
    outside = np.setdiff1d(np.arange(mesh.num_triangles), sel)
    pts = mesh.vertices[mesh.triangles]
    assert (pts[sel].max() <= 0.9 + 1e-12)
    # every excluded element touches the strip beyond 0.9
    assert (pts[outside].reshape(len(outside), -1, 2).max(axis=1) > 0.9 - 1e-12).any(axis=1).all()


def test_subdomain_error_never_exceeds_full():
    problem = get_problem("smooth", 1e-3)
    mesh, topo, dm = make_case(8, 0, perturb=0.1)
    coef = interpolate_solution(problem, mesh, topo, dm)
    coef += 1e-3 * np.sin(np.arange(dm.n_total))  # perturb to get nonzero error
    full = error_norms(coef, mesh, topo, dm, problem)
    sub = error_norms(coef, mesh, topo, dm, problem, region=(0.0, 0.9, 0.0, 0.9))
    assert sub.e_L2 <= full.e_L2
    assert sub.region == "[0,0.9]x[0,0.9]"


def test_interior_region_has_no_boundary_error():
    problem = get_problem("smooth", 1e-3)
    mesh, topo, dm = make_case(8, 1, perturb=0.1)
    x = np.random.default_rng(5).standard_normal(dm.n_total)
    report = error_norms(x, mesh, topo, dm, problem, region=(0.3, 0.7, 0.3, 0.7))
    assert report.e_bdry == 0.0
    assert report.e_L2 > 0.0


def test_region_without_elements_rejected():
    problem = get_problem("smooth", 1e-3)
    mesh, topo, dm = make_case(8, 0, perturb=0.1)
    with pytest.raises(ValueError, match=r"region \[0.5,0.51\]x\[0,1\] contains no element"):
        error_norms(np.zeros(dm.n_total), mesh, topo, dm, problem, region=(0.5, 0.51, 0.0, 1.0))


def test_missing_exact_solution_rejected():
    problem = get_problem("interior-layer", 1e-3)
    mesh, topo, dm = make_case(2, 0)
    with pytest.raises(ValueError, match="exact"):
        error_norms(np.zeros(dm.n_total), mesh, topo, dm, problem)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_interpolant_error_decays_at_optimal_rate(k):
    # isolates the discrete spaces from the solver: nodal interpolation of
    # the smooth solution must converge at least at rate k+1.8 in L2
    problem = get_problem("smooth", 1e-3)
    errors = []
    for n in (8, 16, 32):
        mesh, topo, dm = make_case(n, k, perturb=0.15)
        coef = interpolate_solution(problem, mesh, topo, dm)
        errors.append(error_norms(coef, mesh, topo, dm, problem).e_L2)
    eoc = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert eoc[-1] >= k + 1.8


def test_transport_vector_accepted():
    problem = get_problem("transport")
    mesh, topo, dm = make_case(4, 0, perturb=0.1)
    coef = np.zeros(dm.n_w)
    report = error_norms(coef, mesh, topo, dm, problem)
    assert report.e_q == 0.0
    assert report.n_dofs == dm.n_w
    assert report.e_L2 == pytest.approx(0.5, abs=1e-6)


def test_sample_solution_shapes():
    problem = polynomial_problem(0.3, 0)
    mesh, topo, dm = make_case(3, 0, perturb=0.1)
    coef = interpolate_solution(problem, mesh, topo, dm)
    u_v, q_c = sample_solution(coef, mesh, dm)
    assert u_v.shape == (mesh.num_vertices,)
    assert q_c.shape == (mesh.num_triangles, 2)
    # vertex values equal the exact solution there; centroid flux matches
    assert np.allclose(u_v, problem.exact_u(mesh.vertices[:, 0], mesh.vertices[:, 1]))
    centers = mesh.vertices[mesh.triangles].mean(axis=1)
    expect = -np.sqrt(problem.epsilon) * problem.exact_grad(centers[:, 0], centers[:, 1])
    assert np.abs(q_c - expect).max() < 1e-10
