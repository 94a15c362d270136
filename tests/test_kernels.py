"""Property test: the element kernels, which contract the (T, 2, 2) element
Jacobians and other 2- or 3-long axes by batched matmuls and unrolled
broadcasts, agree to round-off with the einsum forms they replaced. Those
forms stay here as the oracle."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsfem import assembly, fem
from lsfem.assembly import _scalar_field, face_weight
from lsfem.bench import error_norms, get_problem
from lsfem.bench.errors import _q_moments, region_elements
from lsfem.mesh import Mesh, build_topology, generate_structured


def map_points_einsum(geo, ref_pts):
    return geo.v0[:, None, :] + np.einsum("tdr,qr->tqd", geo.jac, ref_pts)


def piola_einsum(geo, ref_vals):
    return np.einsum("tdr,tqr->tqd", geo.jac, ref_vals) / geo.det[:, None, None]


def affine_block_einsum(F, scale, ref, weights):
    """sum_q w_q scale (F v_i).(F v_j) of reference fields v (n, nq, 2) on
    every element, with the mapped fields F v formed first."""
    mapped = np.einsum("tda,iqa->tiqd", F, ref)
    return np.einsum("tiqd,tjqd,q,t->tij", mapped, mapped, weights, scale)


def local_systems_einsum(problem, dm):
    """``assembly._local_systems`` with its contractions as einsums."""
    eps, se = problem.epsilon, np.sqrt(problem.epsilon)
    geo, sign = dm.geo, dm.q_sign
    tab = fem.reference_tables(dm.k, fem.assembly_degree(dm.k))
    X = map_points_einsum(geo, tab.xy)
    sqw = np.sqrt(tab.weights[None, :] * geo.det[:, None])
    beta_ref = np.einsum("tdr,tqd->tqr", geo.inv_t, problem.beta(X[..., 0], X[..., 1]))
    cval = _scalar_field(problem.c, X[..., 0], X[..., 1])
    coef = np.concatenate([beta_ref, cval[..., None]], axis=2) * sqw[..., None]
    w_tab = np.concatenate([tab.w_grads, tab.w_vals[..., None]], axis=2)
    nq = dm.nloc_q if eps > 0.0 else 0
    R = np.empty((len(geo.det), nq + dm.nloc_w, len(tab.weights)))
    np.einsum("tqr,iqr->tiq", coef, w_tab, out=R[:, nq:])
    np.einsum("tq,ti,iq->tiq", (se / geo.det)[:, None] * sqw, sign[:, :nq], tab.q_divs[:nq],
              out=R[:, :nq])
    a_loc = np.einsum("tiq,tjq->tij", R, R)
    b_loc = np.einsum("tiq,tq->ti", R, _scalar_field(problem.f, X[..., 0], X[..., 1]) * sqw)
    if nq:
        q_mass = affine_block_einsum(geo.jac, 1.0 / geo.det, tab.q_vals, tab.weights)
        a_loc[:, :nq, :nq] += q_mass * (sign[:, :, None] * sign[:, None, :])
        a_loc[:, nq:, nq:] += affine_block_einsum(geo.inv_t, eps * geo.det, tab.w_grads,
                                                  tab.weights)
        cross = np.einsum("iqd,jqd,q->ij", tab.q_vals, tab.w_grads, tab.weights)
        cross = se * sign[:, :, None] * cross[None]
        a_loc[:, :nq, nq:] += cross
        a_loc[:, nq:, :nq] += cross.swapaxes(1, 2)
    return a_loc, b_loc


def face_blocks_einsum(problem, topo, dm):
    """The weak boundary blocks of ``assembly._face_terms``, with beta.n as an einsum."""
    edges = topo.boundary_edges
    normals = topo.outward_normals(edges)
    _, pts, trace, weights, h = fem.edge_quadrature(topo, dm, edges, fem.assembly_degree(dm.k))
    trace = trace[:, :dm.nloc_w_skel]
    beta_n = np.einsum("eqd,ed->eq", problem.beta(pts[..., 0], pts[..., 1]), normals)
    scale = face_weight("weak", problem.epsilon, beta_n, h) * weights * h
    g = _scalar_field(problem.g, pts[..., 0], pts[..., 1])
    return (np.einsum("eaq,ebq,eq->eab", trace, trace, scale),
            np.einsum("eaq,eq->ea", trace, scale * g))


def error_norms_einsum(x, topo, dm, problem, sel):
    """The five norms of ``error_norms`` on the elements ``sel``, with the
    gradients, the streamline derivative, the Q values, the boundary traces
    and beta.n as einsums."""
    se = np.sqrt(problem.epsilon)
    transport = len(x) == dm.n_w
    coef_w = x if transport else x[dm.n_q:]
    tab = fem.reference_tables(dm.k, fem.error_degree(dm.k))
    geo = dm.geo
    X = map_points_einsum(geo, tab.xy)
    wq = (tab.weights[None, :] * geo.det[:, None])[sel]
    cw = coef_w[dm.w_index]
    grad_h = np.einsum("tdr,tqr->tqd", geo.inv_t, np.einsum("ti,iqr->tqr", cw, tab.w_grads))
    du = (_scalar_field(problem.exact_u, X[..., 0], X[..., 1]) - cw @ tab.w_vals)[sel]
    grad_ex = problem.exact_grad(X[..., 0], X[..., 1])
    dgrad = (grad_ex - grad_h)[sel]
    stream = np.einsum("tqd,tqd->tq", problem.beta(X[..., 0], X[..., 1])[sel], dgrad)
    out = {
        "e_L2": np.sqrt(np.einsum("tq,tq->", du**2, wq)),
        "e_grad": se * np.sqrt(np.einsum("tqd,tqd,tq->", dgrad, dgrad, wq)),
        "e_stream": np.sqrt(np.einsum("tq,tq->", stream**2, wq)),
        "e_q": 0.0,
    }
    if not transport:
        cq = dm.q_sign * x[dm.q_index]
        q_h = piola_einsum(geo, np.einsum("ti,iqr->tqr", cq, tab.q_vals))
        dq = (-se * grad_ex - q_h)[sel]
        out["e_q"] = np.sqrt(np.einsum("tqd,tqd,tq->", dq, dq, wq))

    edges = topo.boundary_edges[np.isin(topo.edge_to_tri[topo.boundary_edges, 0], sel)]
    normals = topo.outward_normals(edges)
    owners, pts, trace, weights, h = fem.edge_quadrature(topo, dm, edges, fem.error_degree(dm.k))
    u_h = np.einsum("eaq,ea->eq", trace, coef_w[dm.w_index[owners]])
    d = _scalar_field(problem.exact_u, pts[..., 0], pts[..., 1]) - u_h
    beta_n = np.einsum("eqd,ed->eq", problem.beta(pts[..., 0], pts[..., 1]), normals)
    total = np.sum(face_weight("weak", problem.epsilon, beta_n, h) * d**2 * weights * h)
    out["e_bdry"] = np.sqrt(total)
    return out


def q_moments_einsum(field, mesh, topo, dm):
    """The global vector DOFs on the mesh's own edges, as einsums: Legendre
    moments of f.n along each global low->high edge and interior moments of
    the pull-back. An oracle for ``errors._q_moments`` that shares neither
    ``rt_dofs`` nor the sign table."""
    m = dm.degree
    n_edge = fem.rt_edge_dofs(m)
    out = np.zeros(dm.n_q)
    erule = fem.edge_rule(2 * m + 4)
    t = erule.points[:, 0]
    lo, hi = mesh.vertices[topo.edges[:, 0]], mesh.vertices[topo.edges[:, 1]]
    pts = lo[:, None, :] + t[None, :, None] * (hi - lo)[:, None, :]
    fn = np.einsum("eqd,ed->eq", field(pts[..., 0], pts[..., 1]), topo.normals)
    for j in range(n_edge):
        leg = fem.basis.edge_moment_weight(j, t)
        out[np.arange(topo.num_edges) * n_edge + j] = np.einsum(
            "eq,q,e->e", fn, leg * erule.weights, topo.h_F)
    geo = dm.geo
    rule = fem.triangle_rule(2 * m + 4)
    X = map_points_einsum(geo, rule.xy)
    inv = np.swapaxes(geo.inv_t, 1, 2)
    fhat = np.einsum("trd,tqd->tqr", inv, field(X[..., 0], X[..., 1])) * geo.det[:, None, None]
    tests = fem.basis.rt_interior_tests(m, rule.xy)
    out[topo.num_edges * n_edge:] = np.einsum("tqd,iqd,q->ti", fhat, tests, rule.weights).ravel()
    return out


@st.composite
def jittered_cases(draw):
    """A crisscross mesh whose interior vertices move by up to ``perturb / n``
    per coordinate, drawn from a seed; a method index k and a problem."""
    n = draw(st.integers(1, 4))
    perturb = draw(st.floats(0.0, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = generate_structured(n, 0.0)
    verts = base.vertices.copy()
    interior = ((verts > 0.0) & (verts < 1.0)).all(axis=1)
    verts[interior] += rng.uniform(-1.0, 1.0, (int(interior.sum()), 2)) * (perturb / n)
    mesh = Mesh(verts, base.triangles, base.region_id)
    k = draw(st.integers(0, 2))
    name = draw(st.sampled_from(("smooth", "boundary-layer", "transport")))
    eps = None if name == "transport" else draw(st.sampled_from((1.0, 1e-3, 1e-9)))
    return mesh, k, get_problem(name, eps), rng


def _close(got, ref, rtol=1e-13):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jittered_cases())
def test_kernels_match_einsum_forms(case):
    mesh, k, problem, rng = case
    topo = build_topology(mesh)
    dm = fem.build_dofmap(mesh, topo, k)
    geo = dm.geo
    assert (geo.det > 0.0).all()
    tab = fem.reference_tables(k, fem.error_degree(k))

    _close(geo.map_points(tab.xy), map_points_einsum(geo, tab.xy), rtol=1e-15)
    ref_vals = np.tensordot(rng.standard_normal((mesh.num_triangles, dm.nloc_q)), tab.q_vals, 1)
    _close(geo.piola(ref_vals), piola_einsum(geo, ref_vals))

    a_loc, b_loc = assembly._local_systems(problem, dm)
    a_ref, b_ref = local_systems_einsum(problem, dm)
    _close(a_loc, a_ref)
    _close(b_loc, b_ref)
    _, a_face, b_face = assembly._face_terms(problem, topo, dm, "weak")
    a_face_ref, b_face_ref = face_blocks_einsum(problem, topo, dm)
    _close(a_face, a_face_ref)
    _close(b_face, b_face_ref)

    x = rng.standard_normal(dm.n_w if problem.epsilon == 0.0 else dm.n_total)
    for region in (None, (0.0, 0.6, 0.0, 0.6)):
        sel = region_elements(mesh, region)
        if not sel.size:  # the box holds no element of the n = 1 mesh
            with pytest.raises(ValueError, match="no element"):
                error_norms(x, mesh, topo, dm, problem, region=region)
            continue
        report = error_norms(x, mesh, topo, dm, problem, region=region)
        ref = error_norms_einsum(x, topo, dm, problem, sel)
        for name, value in ref.items():
            assert abs(getattr(report, name) - value) <= 1e-13 * value, name

    if problem.epsilon > 0.0:
        def field(x_, y_):
            return -np.sqrt(problem.epsilon) * problem.exact_grad(x_, y_)
        _close(_q_moments(field, dm), q_moments_einsum(field, mesh, topo, dm))
