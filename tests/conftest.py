"""Shared fixtures and evaluation helpers for the test suite."""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from lsfem import fem
from lsfem.assembly import ProblemSpec
from lsfem.mesh import Mesh, MeshError, Topology, build_topology, generate_structured
from lsfem.solver import SingularMatrixError, SparseSym, cg_solve, factorize

# largest system the dense oracle solves: O(n^3) work and n^2 storage
DENSE_ORACLE_MAX_N = 2000


@pytest.fixture(scope="session")
def two_triangle():
    mesh = generate_structured(1, 0.0)
    topo = build_topology(mesh)
    return mesh, topo


def from_dense(arr):
    """SparseSym of a dense array, validated as ``SparseSym.from_csr`` validates."""
    return SparseSym.from_csr(sp.csr_matrix(np.asarray(arr, dtype=float)))


def dense_oracle_solve(A, b):
    """Direct factorization solve used to cross-check CG on small systems."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle limited to n <= {DENSE_ORACLE_MAX_N}")
    try:
        x = np.linalg.solve(A, np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    if not np.isfinite(x).all():
        raise SingularMatrixError("factorization produced non-finite entries")
    return x


def factor_solve(system, tol=1e-10):
    """Coefficient vector of an assembled ``LinearSystem``, by CG
    preconditioned with the factor of its matrix, as the solves run."""
    solve = factorize(system.matrix, system.order)
    return cg_solve(system.matrix, system.rhs, solve, tol=tol)[0]


@st.composite
def jittered_relabelled_meshes(draw, sizes=st.integers(2, 3), fixed_x=None):
    """A crisscross mesh of n drawn from ``sizes`` whose interior vertices
    move by a drawn jitter of at most 0.25 / n per coordinate, with its
    vertices relabelled. Relabelling reverses edge orientations, so it
    changes the signs in q_sign. Vertices on the line x = ``fixed_x`` stay
    put, so a slit along it stays resolved."""
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitude = draw(st.floats(0.0, 0.25))
    mesh = generate_structured(n)
    inside = ((mesh.vertices > 0.0) & (mesh.vertices < 1.0)).all(axis=1)
    if fixed_x is not None:
        inside &= mesh.vertices[:, 0] != fixed_x
    shift = rng.uniform(-amplitude / n, amplitude / n, mesh.vertices.shape)
    vertices = mesh.vertices + inside[:, None] * shift
    vperm = rng.permutation(mesh.num_vertices)  # vertex i becomes vertex vperm[i]
    return Mesh(vertices[np.argsort(vperm)], vperm[mesh.triangles], mesh.region_id)


def make_case(n, k, perturb=0.0, slit=None):
    mesh = generate_structured(n, perturb)
    topo = build_topology(mesh, slit=slit)
    dofmap = fem.build_dofmap(mesh, topo, k)
    return mesh, topo, dofmap


def topology_oracle(mesh, slit=None):
    """Reference topology built with per-edge Python loops: the neighbour
    fill in (local edge, triangle) order, a dict from rounded coordinates to
    the last vertex there, another to all the vertices there, and a scan of
    every edge against the slit.
    ``build_topology`` must agree with it field for field and error for
    error."""
    t, V = mesh.triangles, mesh.vertices
    raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
    edges, inverse = np.unique(np.sort(raw, axis=1), axis=0, return_inverse=True)
    tri_to_edge = inverse.reshape(3, len(t)).T.copy()
    edge_to_tri = np.full((len(edges), 2), -1, dtype=np.int64)
    count = np.zeros(len(edges), dtype=np.int64)
    for local in range(3):
        for tri, e in enumerate(tri_to_edge[:, local]):
            if count[e] >= 2:
                raise MeshError(f"edge {edges[e].tolist()} is shared by more than 2 triangles")
            edge_to_tri[e, count[e]] = tri
            count[e] += 1
    is_boundary = count == 1

    vec = V[edges[:, 1]] - V[edges[:, 0]]
    h_F = np.linalg.norm(vec, axis=1)
    tang = vec / h_F[:, None]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]])
    mids = 0.5 * (V[edges[:, 0]] + V[edges[:, 1]])
    outward_sign = np.zeros(len(edges))
    b = np.flatnonzero(is_boundary)
    toward = mids[b] - V[t].mean(axis=1)[edge_to_tri[b, 0]]
    outward_sign[b] = np.where((normals[b] * toward).sum(axis=1) > 0, 1.0, -1.0)

    # coordinates rounded relative to the bounding box's corner and largest side
    lo = V.min(axis=0, initial=np.inf)
    extent = max((V.max(axis=0, initial=-np.inf) - lo).max(), np.finfo(float).tiny)
    rounded = np.round((V - lo) / extent, 12)
    lookup = {}
    for idx, v in enumerate(rounded):
        lookup[(v[0], v[1])] = idx
    for e, m in enumerate(np.round((mids - lo) / extent, 12)):
        hit = lookup.get((m[0], m[1]))
        if hit is not None and hit not in (edges[e, 0], edges[e, 1]):
            raise MeshError(
                f"non-conforming mesh: vertex {hit} hangs on an edge of triangle {edge_to_tri[e, 0]}"
            )
    sharing = {}
    for idx, v in enumerate(rounded):
        sharing.setdefault((v[0], v[1]), []).append(idx)
    twins = min((ids for ids in sharing.values() if len(ids) > 1), default=None)
    if twins is not None:
        x, y = V[twins[0]]
        raise MeshError(f"vertices {twins[0]} and {twins[1]} coincide at ({x:g}, {y:g})")
    held = set(t.ravel().tolist())
    for v in range(len(V)):
        if v not in held:
            raise MeshError(f"vertex {v} belongs to no triangle")

    slit_edges = np.empty(0, dtype=np.int64)
    if slit is not None:
        tol = 1e-12 * extent
        a = np.asarray(slit[0], dtype=float)
        length = np.linalg.norm(np.asarray(slit[1], dtype=float) - a)
        d = (np.asarray(slit[1], dtype=float) - a) / length

        def param(p):
            rel = p - a
            off = abs(rel[0] * d[1] - rel[1] * d[0])
            s = rel @ d
            if off > tol or s < -tol or s > length + tol:
                return None
            return s

        found = []
        for e in range(len(edges)):
            s0, s1 = param(V[edges[e, 0]]), param(V[edges[e, 1]])
            if s0 is not None and s1 is not None:
                if is_boundary[e]:
                    raise MeshError("slit segment touches a boundary edge; interior edges required")
                found.append((min(s0, s1), max(s0, s1), e))
        found.sort()
        cursor = 0.0
        for lo, hi, _ in found:
            if lo > cursor + tol:
                raise MeshError(
                    f"slit not resolved by the mesh: no edge covers "
                    f"[{cursor / length:.6g}, {lo / length:.6g}] of the segment"
                )
            cursor = max(cursor, hi)
        if cursor < length - tol:
            raise MeshError(
                f"slit not resolved by the mesh: no edge covers "
                f"[{cursor / length:.6g}, 1] of the segment"
            )
        slit_edges = np.array(sorted(e for _, _, e in found), dtype=np.int64)

    return Topology(
        edges=edges,
        edge_to_tri=edge_to_tri,
        tri_to_edge=tri_to_edge,
        is_boundary=is_boundary,
        normals=normals,
        outward_sign=outward_sign,
        h_K=np.sqrt(mesh.areas()),
        h_F=h_F,
        slit_edges=slit_edges,
    )


def polynomial_problem(eps, k, c_coeff=1.0):
    """Manufactured problem whose solution has degree exactly k+1, so the
    pair (q, u) lies in the discrete space and the residual minimum is 0."""
    if k == 0:
        u = lambda x, y: 1.0 + 2.0 * x - 3.0 * y
        grad = lambda x, y: np.stack(
            [np.full(np.shape(x), 2.0), np.full(np.shape(x), -3.0)], axis=-1
        )
        lap = lambda x, y: np.zeros(np.shape(x))
    elif k == 1:
        u = lambda x, y: x * x - 2.0 * x * y + 3.0 * y * y + x - y + 1.0
        grad = lambda x, y: np.stack(
            [2.0 * x - 2.0 * y + 1.0, -2.0 * x + 6.0 * y - 1.0], axis=-1
        )
        lap = lambda x, y: np.full(np.shape(x), 8.0)
    else:
        m = k + 1  # m = 3 gives x^3 - y^3 + 2xy^2 - x^2 + y + 2
        u = lambda x, y: x**m - y**m + 2.0 * x * y ** (m - 1) - x * x + y + 2.0
        grad = lambda x, y: np.stack(
            [m * x ** (m - 1) + 2.0 * y ** (m - 1) - 2.0 * x,
             -m * y ** (m - 1) + 2.0 * (m - 1) * x * y ** (m - 2) + 1.0], axis=-1
        )
        lap = lambda x, y: (m * (m - 1) * (x ** (m - 2) - y ** (m - 2))
                            + 2.0 * (m - 1) * (m - 2) * x * y ** (m - 3) - 2.0)
    c = lambda x, y: np.full(np.shape(x), c_coeff)
    zero = lambda x, y: np.zeros(np.shape(x))
    beta = lambda x, y: np.stack([np.ones(np.shape(x)), np.ones(np.shape(x))], axis=-1)

    def f(x, y):
        g = grad(x, y)
        return -eps * lap(x, y) + g[..., 0] + g[..., 1] + c_coeff * u(x, y)

    return ProblemSpec(
        name=f"poly-k{k}",
        epsilon=eps,
        beta=beta,
        div_beta=zero,
        c=c,
        f=f,
        g=u,
        exact_u=u,
        exact_grad=grad,
        exact_lap=lap,
    )


def edge_traces(mesh, topo, dofmap, edge, t):
    """Normal traces of every supported global vector dof on one edge,
    evaluated from each incident element against the edge's oriented normal
    at physical points lo + t (hi - lo). Returns {tri: {global: trace}}."""
    geo = fem.element_geometry(mesh)
    n_f = topo.normals[edge]
    out = {}
    for tri in topo.edge_to_tri[edge]:
        if tri < 0:
            continue
        le = int(np.flatnonzero(topo.tri_to_edge[tri] == edge)[0])
        a, b = fem.LOCAL_EDGES[le]
        ga, gb = mesh.triangles[tri, a], mesh.triangles[tri, b]
        t_local = t if ga < gb else 1.0 - t
        ref = fem.edge_ref_points(le, t_local)
        vals, _ = fem.q_tables(dofmap.degree, ref, geo)
        trace = vals[tri] @ n_f  # (nloc, npts)
        per_dof = {}
        for i in range(dofmap.nloc_q):
            g = int(dofmap.q_index[tri, i])
            per_dof[g] = per_dof.get(g, 0.0) + dofmap.q_sign[tri, i] * trace[i]
        out[int(tri)] = per_dof
    return out


def edge_w_values(mesh, topo, dofmap, edge, t):
    """Scalar basis traces per incident element, keyed by global W dof."""
    m = dofmap.degree
    out = {}
    for tri in topo.edge_to_tri[edge]:
        if tri < 0:
            continue
        le = int(np.flatnonzero(topo.tri_to_edge[tri] == edge)[0])
        a, b = fem.LOCAL_EDGES[le]
        ga, gb = mesh.triangles[tri, a], mesh.triangles[tri, b]
        t_local = t if ga < gb else 1.0 - t
        vals, _ = fem.lagrange_basis(m, fem.edge_ref_points(le, t_local))
        per_dof = {}
        for i in range(dofmap.nloc_w):
            g = int(dofmap.w_index[tri, i])
            per_dof[g] = per_dof.get(g, 0.0) + vals[i]
        out[int(tri)] = per_dof
    return out
