import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from conftest import factor_solve, polynomial_problem, slit_oracle
from lsfem import assembly, fem
from lsfem.assembly import (
    BC_MODES,
    assemble_ls,
    assemble_transport,
    boundary_w_dofs,
    face_weight,
    mass_diagonal,
)
from lsfem.bench import get_problem
from lsfem.bench.errors import error_norms
from lsfem.bench.studies import build_case
from lsfem.mesh import MeshError, build_topology, generate_structured
from lsfem.solver import factorize
import scipy.linalg


def dense_form_oracle(problem, mesh, topo, dofmap, mode="weak"):
    """Brute-force matrix: evaluate every global basis function of the
    product space, push it through the trial-to-test map (vector residual,
    scalar residual, boundary trace with the penalty weight of ``mode``),
    and integrate all pairs directly. No element-local blocks, no symmetry
    shortcut."""
    eps = problem.epsilon
    se = np.sqrt(eps)
    n = dofmap.n_total
    geo = fem.element_geometry(mesh)
    m = dofmap.degree
    rule = fem.triangle_rule(fem.assembly_degree(dofmap.k))
    X = geo.map_points(rule.points)
    wq = (rule.weights[None, :] * geo.det[:, None]).ravel()
    beta = problem.beta(X[..., 0], X[..., 1])
    cval = np.broadcast_to(problem.c(X[..., 0], X[..., 1]), X.shape[:2])

    wvals, wgrads = fem.w_tables(m, rule.points, geo)
    qvals, qdivs = fem.q_tables(m, rule.points, geo)

    T = mesh.num_triangles
    npts = len(rule.weights)
    r_vec = np.zeros((n, T * npts, 2))
    r_scal = np.zeros((n, T * npts))
    for t in range(T):
        cols = slice(t * npts, (t + 1) * npts)
        for i in range(dofmap.nloc_q):
            g = dofmap.q_index[t, i]
            s = dofmap.q_sign[t, i]
            r_vec[g, cols] += s * qvals[t, i]
            r_scal[g, cols] += s * se * qdivs[t, i]
        for i in range(dofmap.nloc_w):
            g = dofmap.n_q + dofmap.w_index[t, i]
            r_vec[g, cols] += se * wgrads[t, i]
            r_scal[g, cols] += (beta[t] * wgrads[t, i]).sum(axis=1) + cval[t] * wvals[i]

    erule = fem.edge_rule(fem.assembly_degree(dofmap.k))
    te = erule.points[:, 0]
    bedges = topo.boundary_edges
    nbp = len(te)
    traces = np.zeros((n, len(bedges) * nbp))
    bweights = np.zeros(len(bedges) * nbp)
    for row, e in enumerate(bedges):
        tri = topo.edge_to_tri[e, 0]
        le = int(np.flatnonzero(topo.tri_to_edge[tri] == e)[0])
        ref = fem.edge_ref_points(le, te)
        pts = geo.v0[tri] + ref @ geo.jac[tri].T
        tv, _ = fem.lagrange_basis(m, ref)
        cols = slice(row * nbp, (row + 1) * nbp)
        for i in range(dofmap.nloc_w):
            traces[dofmap.n_q + dofmap.w_index[tri, i], cols] = tv[i]
        beta_n = problem.beta(pts[:, 0], pts[:, 1]) @ topo.outward_normals([e])[0]
        bweights[cols] = face_weight(mode, eps, beta_n, topo.h_F[e]) * erule.weights * topo.h_F[e]

    A = np.einsum("ipd,jpd,p->ij", r_vec, r_vec, wq)
    A += np.einsum("ip,jp,p->ij", r_scal, r_scal, wq)
    A += np.einsum("ip,jp,p->ij", traces, traces, bweights)
    return A


@pytest.mark.parametrize("k", [0, 1, 2, 3], ids=["P1", "P2", "P3", "P4"])
@pytest.mark.parametrize("mode", ["weak", "alt-weak"])
@pytest.mark.parametrize("n", [1, 2])
def test_oracle_equivalence_small_meshes(n, mode, k):
    # at n = 1 each of the two elements owns two boundary faces
    mesh, topo, dm = build_case(n, k, perturb=0.15 if n > 1 else 0.0)
    assert mesh.num_triangles <= 8
    problem = polynomial_problem(0.05, k)
    system = assemble_ls(problem, mesh, topo, dm, mode)
    direct = system.matrix.toarray()
    oracle = dense_form_oracle(problem, mesh, topo, dm, mode)
    scale = np.abs(oracle).max()
    assert np.abs(direct - oracle).max() <= 1e-10 * scale


@pytest.mark.parametrize("mode", ["weak", "strong", "alt-weak"])
@pytest.mark.parametrize("name,eps", [("smooth", 1e-3), ("boundary-layer", 1e-2)])
def test_numeric_symmetry(mode, name, eps):
    mesh, topo, dm = build_case(4, 0, perturb=0.2)
    system = assemble_ls(get_problem(name, eps), mesh, topo, dm, mode)
    A = system.matrix.to_scipy()
    gap = abs(A - A.T)
    bound = 1e-12 * np.abs(A.data).max()
    assert gap.nnz == 0 or gap.data.max() <= bound


@pytest.mark.parametrize("mode", ["weak", "alt-weak"])
def test_spd_small_meshes(mode):
    for name, eps in (("smooth", 1.0), ("smooth", 1e-9), ("interior-layer", 1e-3)):
        mesh, topo, dm = build_case(2, 0, perturb=0.1)
        system = assemble_ls(get_problem(name, eps), mesh, topo, dm, mode)
        eigs = scipy.linalg.eigvalsh(system.matrix.toarray())
        assert eigs[0] > 0


def test_system_dimension_single_triangle():
    from lsfem.mesh import Mesh, build_topology

    mesh = Mesh(
        np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
        np.array([[0, 1, 2]]),
        np.zeros(1, int),
    )
    topo = build_topology(mesh)
    dm = fem.build_dofmap(mesh, topo, 0)
    system = assemble_ls(polynomial_problem(0.5, 0), mesh, topo, dm, "weak")
    assert system.matrix.n == 11


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("mode", ["weak", "strong", "alt-weak"])
def test_polynomial_exactness(k, mode):
    problem = polynomial_problem(0.37, k)
    mesh, topo, dm = build_case(3, k, perturb=0.2)
    system = assemble_ls(problem, mesh, topo, dm, mode)
    # tol bounds the true residual b - Ax, whose rounding floor on the P3
    # systems lies near 2e-13
    x = factor_solve(system, tol=1e-12)
    report = error_norms(x, mesh, topo, dm, problem)
    assert report.e_L2 <= 1e-8
    assert report.e_q <= 1e-8
    assert report.e_grad <= 1e-8
    assert report.e_stream <= 1e-8
    assert report.e_bdry <= 1e-8


def test_ls_at_zero_epsilon_is_the_transport_system():
    # assemble_ls takes eps >= 0; at eps == 0 it builds assemble_transport's
    # system bit for bit, with the weak inflow penalty alone
    mesh, topo, dm = build_case(2, 2, perturb=0.0)
    problem = get_problem("transport")
    for condense in (False, True):
        ls = assemble_ls(problem, mesh, topo, dm, "weak", condense)
        ref = assemble_transport(problem, mesh, topo, dm, condense)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ls.matrix, name), getattr(ref.matrix, name))
        assert np.array_equal(ls.rhs, ref.rhs) and ls.norm_b == ref.norm_b
    for mode in ("strong", "alt-weak"):
        with pytest.raises(ValueError, match="transport .eps == 0. takes bc mode 'weak' only"):
            assemble_ls(problem, mesh, topo, dm, mode)
    negative = dataclasses.replace(polynomial_problem(0.1, 0), epsilon=-0.1)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        assemble_ls(negative, mesh, topo, dm)


def test_rejects_mismatched_dofmap():
    mesh, topo, dm = build_case(2, 0, perturb=0.0)
    other_mesh, other_topo, _ = build_case(3, 0, perturb=0.0)
    with pytest.raises(ValueError, match="different mesh"):
        assemble_ls(polynomial_problem(0.1, 0), other_mesh, other_topo, dm)


def test_boundary_weight_values():
    # beta = [1, 1]: the bottom edge is inflow with beta.n = -1, the right
    # edge outflow with beta.n = +1
    eps, h = 1e-3, 0.125
    assert face_weight("weak", eps, np.array([-1.0]), h)[0] == pytest.approx((eps + 1.0) / h)
    assert face_weight("weak", eps, np.array([1.0]), h)[0] == pytest.approx(eps / h)
    assert face_weight("alt-weak", eps, np.array([-1.0]), h)[0] == pytest.approx(eps / h + 1.0)
    assert face_weight("alt-weak", eps, np.array([1.0]), h)[0] == pytest.approx(eps / h)
    with pytest.raises(ValueError):
        face_weight("strong", eps, np.array([1.0]), h)


SLIT = get_problem("rotating").slit


@pytest.mark.parametrize(
    "slit,k",
    [pytest.param(None, 1, id="plain-P2"), pytest.param(SLIT, 0, id="slit-P1"),
     pytest.param(SLIT, 1, id="slit-P2")],
)
def test_strong_mode_records_eliminations(slit, k):
    if slit is None:
        mesh, topo, dm = build_case(2, k, perturb=0.1)
        problem = polynomial_problem(0.25, k)
    else:
        # the slit ends on the boundary node (0.5, 0), which strong mode eliminates
        mesh, topo, dm = build_case(8, k, perturb=0.0)
        problem = get_problem("rotating")
    system = assemble_ls(problem, mesh, topo, dm, "strong")
    wdofs = boundary_w_dofs(mesh, topo, dm)
    coords = dm.w_coords[wdofs]
    values = problem.g(coords[:, 0], coords[:, 1])
    # the eliminated rows are the identity rows, with the boundary value in
    # the rhs; their zeroed couplings may stay stored, so compare values
    idx = dm.n_q + wdofs
    rows = system.matrix.to_scipy()[idx].toarray()
    assert np.array_equal(rows, np.eye(dm.n_total)[idx])
    assert np.array_equal(system.rhs[idx], values)
    x = factor_solve(system)
    assert np.abs(x[idx] - values).max() <= 1e-10 * max(np.abs(values).max(), 1.0)


@pytest.mark.parametrize("condense", [False, True], ids=["full", "condensed"])
@pytest.mark.parametrize("k", [0, 1, 2, 3], ids=["P1", "P2", "P3", "P4"])
@pytest.mark.parametrize("slit", [None, SLIT], ids=["jittered", "slit"])
def test_bc_modes_share_one_pattern(slit, k, condense):
    # strong elimination keeps the zeroed couplings stored, so the pattern is
    # that of the DOF map whatever the BC mode
    if slit is None:
        mesh, topo, dm = build_case(3, k, perturb=0.1)
        problem = get_problem("boundary-layer", 1e-2)
    else:
        mesh, topo, dm = build_case(8, k, perturb=0.0)
        problem = get_problem("rotating")
    weak, alt, strong = (
        assemble_ls(problem, mesh, topo, dm, mode, condense).matrix.to_scipy()
        for mode in ("weak", "alt-weak", "strong")
    )
    for other in (alt, strong):
        assert np.array_equal(other.indptr, weak.indptr)
        assert np.array_equal(other.indices, weak.indices)


@pytest.mark.parametrize(
    "action, message",
    [
        pytest.param(lambda: assemble_ls(get_problem("smooth"), *build_case(2, 0, 0.0), "robin"),
                     r"bc_mode must be one of \('weak', 'strong', 'alt-weak'\), got 'robin'",
                     id="unknown-bc-mode"),
    ],
)
def test_rejection_names_its_cause(action, message):
    with pytest.raises(ValueError) as info:
        action()
    assert type(info.value) is ValueError
    assert re.fullmatch(message, str(info.value))


def test_transport_requires_zero_epsilon():
    mesh, topo, dm = build_case(2, 0, perturb=0.0)
    with pytest.raises(ValueError):
        assemble_transport(polynomial_problem(0.1, 0), mesh, topo, dm)


def test_transport_exact_linear_solution():
    # u = x + y lies in P1: the residual minimum is zero and the inflow
    # penalty pins the boundary values
    one = lambda x, y: np.ones(np.shape(x))
    from lsfem.assembly import ProblemSpec

    problem = ProblemSpec(
        name="linear-transport",
        epsilon=0.0,
        beta=lambda x, y: np.stack([one(x, y), one(x, y)], axis=-1),
        c=one,
        f=lambda x, y: 2.0 + x + y,
        g=lambda x, y: x + y,
        exact_u=lambda x, y: x + y,
        exact_grad=lambda x, y: np.stack([one(x, y), one(x, y)], axis=-1),
    )
    mesh, topo, dm = build_case(4, 0, perturb=0.15)
    system = assemble_transport(problem, mesh, topo, dm)
    assert system.matrix.n == dm.n_w
    x = factor_solve(system, tol=1e-12)
    report = error_norms(x, mesh, topo, dm, problem)
    assert report.e_L2 <= 1e-9
    assert report.e_stream <= 1e-9


def test_transport_outflow_rows_unweighted():
    # on the outflow edges (x=1, y=1 for beta=[1,1]) the inflow weight
    # vanishes, so the penalty contributes nothing there: compare against a
    # system assembled with the boundary term removed by hand
    problem = get_problem("transport")
    mesh, topo, dm = build_case(2, 0, perturb=0.0)
    full = assemble_transport(problem, mesh, topo, dm).matrix.toarray()

    mids = 0.5 * (
        mesh.vertices[topo.edges[:, 0]] + mesh.vertices[topo.edges[:, 1]]
    )
    outflow_dofs = set()
    inflow_dofs = set()
    for e in topo.boundary_edges:
        dofs = topo.edges[e]
        if mids[e, 0] > 1 - 1e-9 or mids[e, 1] > 1 - 1e-9:
            outflow_dofs.update(dofs.tolist())
        else:
            inflow_dofs.update(dofs.tolist())
    # volume-only assembly for comparison
    volume = _transport_volume_only(problem, mesh, topo, dm)
    pure_out = sorted(outflow_dofs - inflow_dofs)
    assert pure_out
    sub = np.ix_(pure_out, pure_out)
    assert np.allclose(full[sub], volume[sub], atol=1e-14)
    pure_in = sorted(inflow_dofs - outflow_dofs)
    assert not np.allclose(full[np.ix_(pure_in, pure_in)], volume[np.ix_(pure_in, pure_in)])


def _transport_volume_only(problem, mesh, topo, dm):
    geo = fem.element_geometry(mesh)
    rule = fem.triangle_rule(fem.assembly_degree(dm.k))
    wvals, wgrads = fem.w_tables(dm.degree, rule.points, geo)
    X = geo.map_points(rule.points)
    wq = rule.weights[None, :] * geo.det[:, None]
    beta = problem.beta(X[..., 0], X[..., 1])
    cval = np.broadcast_to(problem.c(X[..., 0], X[..., 1]), X.shape[:2])
    rscal = np.einsum("tiqd,tqd->tiq", wgrads, beta) + cval[:, None, :] * wvals[None, :, :]
    a_loc = np.einsum("tiq,tjq,tq->tij", rscal, rscal, wq)
    A = np.zeros((dm.n_w, dm.n_w))
    for t in range(mesh.num_triangles):
        idx = dm.w_index[t]
        A[np.ix_(idx, idx)] += a_loc[t]
    return A


@pytest.mark.parametrize("mode", BC_MODES)
def test_slit_data_needs_the_edges_of_its_slit(mode):
    # a mesh with no edges on the problem's segment fails to resolve it
    with pytest.raises(MeshError) as err:
        assemble_ls(get_problem("rotating"), *build_case(3, 0, 0.0), mode)
    assert str(err.value) == "slit not resolved by the mesh: no edge covers [0, 1] of the segment"
    # the same segment with its ends swapped resolves to the same edges
    a, b = SLIT
    problem = get_problem("rotating")
    forward = assemble_ls(problem, *build_case(8, 0, 0.0), mode)
    backward = assemble_ls(dataclasses.replace(problem, slit=(b, a)), *build_case(8, 0, 0.0), mode)
    assert np.array_equal(forward.matrix.data, backward.matrix.data)


@pytest.mark.parametrize("mode", BC_MODES)
def test_slit_system_does_not_depend_on_the_topology_slit(mode):
    # the assembly resolves the problem's own slit: a topology built with no
    # slit, or checked against another segment, gives the same system
    mesh = generate_structured(8, 0.0)
    problem = get_problem("rotating")

    def system(slit):
        topo = build_topology(mesh, slit=slit)
        return assemble_ls(problem, mesh, topo, fem.build_dofmap(mesh, topo, 0), mode)

    own = system(SLIT)
    for other in (system(None), system(((0.25, 0.0), (0.25, 0.5)))):
        assert np.array_equal(other.matrix.data, own.matrix.data)
        assert np.array_equal(other.rhs, own.rhs)


@pytest.mark.parametrize("missing", ["slit", "slit_g"])
def test_half_a_slit_is_refused(missing):
    # data without its segment, or a segment without data, names the problem
    with pytest.raises(ValueError) as err:
        dataclasses.replace(get_problem("rotating"), **{missing: None})
    assert str(err.value) == "problem 'rotating' needs both slit and slit_g, or neither"


def without_slit(problem):
    """``problem`` with neither slit nor slit data: its system has no slit terms."""
    return dataclasses.replace(problem, slit=None, slit_g=None)


def test_slit_penalty_nonnegative_shift():
    # zero slit data: rhs unchanged and the smallest eigenvalue cannot drop
    mesh, topo, dm = build_case(4, 0, perturb=0.0)
    zero_slit = dataclasses.replace(get_problem("rotating", 1e-6),
                                    slit_g=lambda x, y: np.zeros(np.shape(x)))
    without = assemble_ls(without_slit(zero_slit), mesh, topo, dm, "weak")
    with_slit = assemble_ls(zero_slit, mesh, topo, dm, "weak")
    assert np.allclose(with_slit.rhs, without.rhs)
    assert not np.allclose(with_slit.matrix.toarray(), without.matrix.toarray())
    lam_without = scipy.linalg.eigvalsh(without.matrix.toarray())[0]
    lam_with = scipy.linalg.eigvalsh(with_slit.matrix.toarray())[0]
    assert lam_with >= lam_without - 1e-12
    assert lam_without > 0


def test_slit_penalty_matches_edge_loop():
    # reference: the slit face integral of (eps + |beta.n|) / h_F, edge by edge
    mesh, topo, dm = build_case(4, 1, perturb=0.0)
    problem = get_problem("rotating", 1e-3)
    with_slit = assemble_ls(problem, mesh, topo, dm, "weak")
    without = assemble_ls(without_slit(problem), mesh, topo, dm, "weak")
    pen = with_slit.matrix.toarray() - without.matrix.toarray()
    pen_rhs = with_slit.rhs - without.rhs

    geo = fem.element_geometry(mesh)
    erule = fem.edge_rule(fem.assembly_degree(dm.k))
    te = erule.points[:, 0]
    ref, ref_rhs = np.zeros_like(pen), np.zeros_like(pen_rhs)
    for e in slit_oracle(mesh, topo, problem.slit):
        tri = topo.edge_to_tri[e, 0]
        le = int(np.flatnonzero(topo.tri_to_edge[tri] == e)[0])
        ref_pts = fem.edge_ref_points(le, te)
        pts = geo.v0[tri] + ref_pts @ geo.jac[tri].T
        tv, _ = fem.lagrange_basis(dm.degree, ref_pts)
        beta_n = problem.beta(pts[:, 0], pts[:, 1]) @ topo.normals[e]
        scale = (problem.epsilon + np.abs(beta_n)) * erule.weights
        g = dm.n_q + dm.w_index[tri]
        ref[np.ix_(g, g)] += np.einsum("aq,bq,q->ab", tv, tv, scale)
        ref_rhs[g] += tv @ (scale * problem.slit_g(pts[:, 0], pts[:, 1]))
    assert np.abs(pen - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(pen_rhs - ref_rhs).max() <= 1e-12 * np.abs(ref_rhs).max()


@pytest.mark.parametrize("condense", [False, True], ids=["full", "condensed"])
def test_matrix_owns_exactly_its_entries(condense):
    # the CSR arrays are compact, not views into the scatter's COO-sized
    # buffers, which a kept system would hold through the factor
    mesh, topo, dm = build_case(4, 2, perturb=0.1)
    matrix = assemble_ls(get_problem("smooth"), mesh, topo, dm, "weak", condense).matrix
    for arr in (matrix.indices, matrix.data):
        assert arr.base is None and arr.size == matrix.indptr[-1]


def test_symmetry_and_spd_at_2048_elements():
    # largest mesh the invariant names; SPD witnessed by the factor, which
    # raises NotSPDError unless every pivot is positive (the dense path is
    # out of reach here)
    mesh, topo, dm = build_case(32, 0, perturb=0.1)
    assert mesh.num_triangles == 2048
    system = assemble_ls(get_problem("smooth", 1e-3), mesh, topo, dm, "weak")
    A = system.matrix.to_scipy()
    gap = abs(A - A.T)
    assert gap.nnz == 0 or gap.data.max() <= 1e-12 * np.abs(A.data).max()
    factorize(system.matrix, system.order)


def test_mass_diagonal_positive_and_partitioned():
    mesh, topo, dm = build_case(3, 1, perturb=0.1)
    diag = mass_diagonal(mesh, dm)
    assert (diag > 0).all()
    # P2 basis on a triangle K: int phi^2 is |K|/30 at a vertex, 8|K|/45 at an edge midpoint
    p = mesh.vertices[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    expected = np.zeros(dm.n_w)
    np.add.at(expected, dm.w_index[:, :3].ravel(), np.repeat(area / 30.0, 3))
    np.add.at(expected, dm.w_index[:, 3:].ravel(), np.repeat(8.0 * area / 45.0, 3))
    assert np.allclose(diag[dm.n_q:], expected, rtol=1e-13, atol=0.0)


def _table_oracle(problem, dm, x):
    """The local systems, mass diagonal, volume error norms and centroid
    samples formed from the per-element physical tables ``w_tables`` and
    ``q_tables``, with no reference-element contraction."""
    geo = dm.geo
    eps, se = problem.epsilon, np.sqrt(problem.epsilon)
    sign = dm.q_sign

    def volume(rule):
        X = geo.map_points(rule.points)
        wvals, wgrads = fem.w_tables(dm.degree, rule.points, geo)
        qvals, qdivs = fem.q_tables(dm.degree, rule.points, geo)
        qvals *= sign[:, :, None, None]
        qdivs *= sign[:, :, None]
        return X, rule.weights[None, :] * geo.det[:, None], wvals, wgrads, qvals, qdivs

    X, wq, wvals, wgrads, qvals, qdivs = volume(fem.triangle_rule(fem.assembly_degree(dm.k)))
    beta = problem.beta(X[..., 0], X[..., 1])
    cval = np.broadcast_to(problem.c(X[..., 0], X[..., 1]), X.shape[:2])
    rscal = np.einsum("tiqd,tqd->tiq", wgrads, beta) + cval[:, None, :] * wvals[None]
    rvec = se * wgrads
    if eps > 0.0:
        rscal = np.concatenate([se * qdivs, rscal], axis=1)
        rvec = np.concatenate([qvals, rvec], axis=1)
    fval = np.broadcast_to(problem.f(X[..., 0], X[..., 1]), X.shape[:2])
    out = {
        "a_loc": np.einsum("tiq,tjq,tq->tij", rscal, rscal, wq)
        + np.einsum("tiqd,tjqd,tq->tij", rvec, rvec, wq),
        "b_loc": np.einsum("tq,tiq,tq->ti", fval, rscal, wq),
    }

    _, wq, wvals, _, qvals, _ = volume(fem.triangle_rule(2 * dm.degree + 2))
    diag = np.zeros(dm.n_total)
    np.add.at(diag, dm.n_q + dm.w_index.ravel(), np.einsum("iq,iq,tq->ti", wvals, wvals, wq).ravel())
    np.add.at(diag, dm.q_index.ravel(), np.einsum("tiqd,tiqd,tq->ti", qvals, qvals, wq).ravel())
    out["mass"] = diag

    qvals, _ = fem.q_tables(dm.degree, np.array([[1.0 / 3.0, 1.0 / 3.0]]), geo)
    out["q_cells"] = np.einsum("tiqd,ti->td", qvals, sign * x[dm.q_index])
    if problem.exact_u is None:
        return out

    X, wq, wvals, wgrads, qvals, _ = volume(fem.triangle_rule(fem.error_degree(dm.k)))
    cw = x[dm.n_q:][dm.w_index]
    du = problem.exact_u(X[..., 0], X[..., 1]) - np.einsum("iq,ti->tq", wvals, cw)
    dgrad = problem.exact_grad(X[..., 0], X[..., 1]) - np.einsum("tiqd,ti->tqd", wgrads, cw)
    dq = -se * problem.exact_grad(X[..., 0], X[..., 1]) - np.einsum(
        "tiqd,ti->tqd", qvals, x[dm.q_index])
    stream = np.einsum("tqd,tqd->tq", problem.beta(X[..., 0], X[..., 1]), dgrad)
    out["e_L2"] = np.sqrt(np.sum(du**2 * wq))
    out["e_grad"] = se * np.sqrt(np.sum(dgrad**2 * wq[..., None]))
    out["e_q"] = np.sqrt(np.sum(dq**2 * wq[..., None]))
    out["e_stream"] = np.sqrt(np.sum(stream**2 * wq))
    return out


def _needle_case(k):
    """Jittered crisscross mesh squeezed 1000-fold in y: every triangle has
    aspect ratio (longest edge over smallest height) of at least 1e2."""
    from lsfem.mesh import Mesh, build_topology

    base = build_case(6, k, perturb=0.1)[0]
    mesh = Mesh(base.vertices * [1.0, 1e-3], base.triangles, base.region_id)
    p = mesh.vertices[mesh.triangles]
    lengths = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2).max(axis=1)
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert (lengths**2 / (2.0 * area)).min() >= 1e2
    topo = build_topology(mesh)
    return mesh, topo, fem.build_dofmap(mesh, topo, k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_reference_contraction_matches_physical_tables(k):
    # local matrices from reference Gram matrices and 2x2 element factors,
    # and quantities contracted on the reference element before mapping,
    # agree with the same quantities formed from the physical tables
    from lsfem.bench.errors import sample_solution

    case = build_case(5, k, perturb=0.1)
    cases = [
        (get_problem("smooth", 1e-3), case),
        (get_problem("boundary-layer", 1e-2), case),
        (get_problem("rotating", 1e-6), build_case(6, k, perturb=0.0)),
        (get_problem("transport"), case),
        (get_problem("smooth", 1e-3), _needle_case(k)),
    ]
    rng = np.random.default_rng(k)

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    for problem, (mesh, topo, dm) in cases:
        x = rng.standard_normal(dm.n_total)
        ref = _table_oracle(problem, dm, x)
        a_loc, b_loc = assembly._local_systems(problem, dm)
        assert np.array_equal(a_loc, a_loc.swapaxes(1, 2))
        close(a_loc, ref["a_loc"])
        close(b_loc, ref["b_loc"])
        close(mass_diagonal(mesh, dm), ref["mass"])
        close(sample_solution(x, mesh, dm)[1], ref["q_cells"])
        if problem.exact_u is not None:
            rep = error_norms(x, mesh, topo, dm, problem)
            for name in ("e_L2", "e_grad", "e_q", "e_stream"):
                assert getattr(rep, name) == pytest.approx(ref[name], rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("k,n", [(1, 32), (2, 24)], ids=["P2-n32", "P3-n24"])
def test_local_systems_peak_memory(k, n):
    # the traced peak of the local systems stays within 2.5 times the bytes
    # they return (a_loc and b_loc): a (T, nloc, nq) table of the scalar
    # residual or an a_loc-sized temporary would take it past that
    _, _, dm = build_case(n, k)
    problem = get_problem("smooth", 1e-3)
    assembly._local_systems(problem, dm)  # the reference tables are cached
    tracemalloc.start()
    try:
        a_loc, b_loc = assembly._local_systems(problem, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (a_loc.nbytes + b_loc.nbytes)


@pytest.mark.parametrize("k,n", [(1, 32), (2, 24)], ids=["P2-n32", "P3-n24"])
def test_mass_diagonal_peak_memory(k, n):
    # the diagonal takes the Gram diagonals times the element factors, so
    # its traced peak stays within 4 times the bytes it returns: building
    # the (T, nloc_q, nloc_q) Q mass matrices takes it past 20
    mesh, _, dm = build_case(n, k)
    mass_diagonal(mesh, dm)  # the reference tables are cached
    tracemalloc.start()
    try:
        diag = mass_diagonal(mesh, dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * diag.nbytes
