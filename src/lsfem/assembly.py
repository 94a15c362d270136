"""Assembly of the symmetric least-squares systems.

The bilinear form pairs the two first-order residuals (vector residual
q + sqrt(eps) grad u, scalar residual sqrt(eps) div q + beta.grad u + c u)
with themselves and adds a boundary penalty whose weight is

    weak:     (eps + max(-beta.n, 0)) / h_F
    alt-weak: eps / h_F + max(-beta.n, 0)

so outflow faces are constrained only at O(eps). The slit's edges get the
penalty (eps + |beta.n|) / h_F. Strong mode drops the boundary penalty and,
after the slit terms, eliminates boundary scalar DOFs symmetrically.
The pure-transport specialization keeps only the scalar residual and the
inflow part of the penalty.

The local matrices (``_local_systems``) tabulate the scalar residual for the
W basis alone; every Q term is a reference Gram matrix times an element
factor, or one product of the reference divergences with the W rows. Each
face term (boundary and slit, ``_face_terms``) is added into the W-trace
block of the element that owns the face, so there is one local system per
element (``_system_blocks``). Strong elimination ends there, so the
condensation and the scatter run once, on one array, blind to the BC mode,
and every mode has the pattern of the DOF map. The element interiors are
eliminated by a Cholesky factorization vectorized over the elements, with a
loop over the interior DOFs (``_condense``).

``assemble_ls`` builds every system, transport (eps == 0) included, through
one path and returns one type, ``LinearSystem``. With ``condense`` the
element-interior DOFs (the RT interior moments and the Lagrange bubbles) are
condensed out element by element, which is what the solves factor; the full
system is the one whose interior set is empty.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse import coo_matrix

from . import fem
from .mesh import Mesh, Topology, resolve_slit
from .solver import NotSPDError, SparseSym

BC_MODES = ("weak", "strong", "alt-weak")


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of -eps*lap(u) + beta.grad(u) + c*u = f.

    All coefficient callables take numpy arrays (x, y) and broadcast;
    ``beta`` and ``exact_grad`` return arrays with a trailing axis of 2.
    ``epsilon == 0`` marks pure transport. ``slit_g`` holds the data on the
    interior segment ``slit``, ((x0, y0), (x1, y1)); each needs the other.
    The stability bounds assume c - div(beta)/2 >= 0. Neither that nor an
    exact solution's fit to f is checked here; the catalogue's tests check both.
    """

    name: str
    epsilon: float
    beta: Callable
    c: Callable
    f: Callable
    g: Callable
    exact_u: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    slit_g: Optional[Callable] = None
    slit: Optional[tuple] = None
    notes: tuple = ()

    def __post_init__(self):
        if (self.slit is None) != (self.slit_g is None):
            raise ValueError(f"problem {self.name!r} needs both slit and slit_g, or neither")


@dataclass
class LinearSystem:
    """Sparse SPD least-squares system on the DOFs that are not condensed out.

    With the element-interior DOFs condensed out, the matrix is the Schur
    complement on the skeleton, numbered [Q edge moments | W vertex and edge
    nodes]: the leading DOFs of the two blocks of the full system, those in
    the first ``nloc_q_skel`` and ``nloc_w_skel`` columns of the index
    tables (see ``DofMap``). The full system is the one with no interiors.

    ``expand`` recovers the interiors element by element, so the full
    residual b - A x of ``expand(x)`` is g - S x on the skeleton and zero on
    the interiors; ``norm_b`` is ||b|| of the full system, against which
    that residual is relative. Without interiors ``expand`` copies x and
    ``norm_b`` is ||rhs||.

    ``order`` is the nested-dissection pre-order of the matrix that
    ``factorize`` takes (see ``_dissection_order``).
    """

    matrix: SparseSym
    rhs: np.ndarray
    norm_b: float
    on_skeleton: np.ndarray   # (n_total,) bool, the retained DOFs in the full numbering
    skeleton: np.ndarray      # (T, nb) retained indices of each element's retained DOFs
    interior: np.ndarray      # (T, ni) full indices of each element's interior DOFs
    chol: np.ndarray          # (T, ni, ni) Cholesky factors L of the interior blocks A_II
    coupling: np.ndarray      # (T, ni, nb) L^-1 A_IB
    interior_rhs: np.ndarray  # (T, ni) L^-1 b_I
    order: np.ndarray         # (n,) matrix indices, separators after the parts they separate

    @property
    def n_total(self) -> int:
        return len(self.on_skeleton)

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Full coefficient vector of the skeleton vector x, with the
        interiors x_I = A_II^-1 (b_I - A_IB x_B) of every element."""
        full = np.empty(self.n_total)
        full[self.on_skeleton] = x
        if self.interior.size:
            z = self.interior_rhs - np.einsum("tib,tb->ti", self.coupling, x[self.skeleton])
            # back substitution L^T x_I = z, vectorized over elements
            for j in reversed(range(z.shape[1])):
                z[:, j] -= np.einsum("ti,ti->t", self.chol[:, j + 1:, j], z[:, j + 1:])
                z[:, j] /= self.chol[:, j, j]
            full[self.interior] = z
        return full


def _scalar_field(fn, x, y) -> np.ndarray:
    """Evaluate a scalar coefficient, broadcasting constants to x's shape."""
    return np.broadcast_to(np.asarray(fn(x, y), dtype=float), np.shape(x))


def face_weight(mode: str, eps: float, beta_n: np.ndarray, h_f) -> np.ndarray:
    """Face penalty weight at quadrature points: boundary faces in weak or
    alt-weak mode, the slit's interior faces in slit mode."""
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
    condense: bool = False,
) -> LinearSystem:
    """Assemble the least-squares system, at eps == 0 the transport system on
    the W block alone. With ``condense`` each element's interior DOFs are
    eliminated through a batched Cholesky factor of its interior block;
    without, the interior set is empty and the local systems pass through.

    Interior DOFs couple only inside their element, and the face, slit and
    strong-BC terms, which the local systems already hold, touch only W
    traces, so the interior blocks are those of the volume form alone.
    """
    if problem.epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {problem.epsilon:g}")
    if problem.epsilon == 0.0:  # transport: the W block alone
        dofmap = dataclasses.replace(dofmap, n_q=0, q_index=dofmap.q_index[:, :0],
                                     q_sign=dofmap.q_sign[:, :0], nloc_q_skel=0)
    a_loc, b_loc, gidx = _system_blocks(problem, mesh, topo, dofmap, bc_mode)
    n = dofmap.n_total
    norm_b = float(np.linalg.norm(_rhs(b_loc, gidx, n)))
    local = np.arange(gidx.shape[1])
    keep = local
    if condense:  # the skeleton is a prefix of each block's local DOFs (see DofMap)
        keep = np.concatenate([local[:dofmap.nloc_q_skel],
                               local[dofmap.nloc_q:dofmap.nloc_q + dofmap.nloc_w_skel]])
    drop = np.setdiff1d(local, keep)
    on_skeleton = np.ones(n, dtype=bool)
    on_skeleton[gidx[:, drop]] = False
    renumber = np.cumsum(on_skeleton) - 1  # skeleton index of each skeleton DOF
    n_skel = int(np.count_nonzero(on_skeleton))

    s_loc, g_loc, (chol, coupling, interior_rhs) = _condense(a_loc, b_loc, keep, drop)
    del a_loc  # the full local matrices are not needed for the scatter
    skeleton = renumber[gidx[:, keep]]
    mat, rhs = _scatter(s_loc, g_loc, skeleton, n_skel)
    del s_loc  # summed into mat; without interiors s_loc is a_loc
    return LinearSystem(
        SparseSym.from_csr(mat), rhs,
        norm_b=norm_b, on_skeleton=on_skeleton, skeleton=skeleton, interior=gidx[:, drop],
        chol=chol, coupling=coupling, interior_rhs=interior_rhs,
        order=_dissection_order(dofmap.geo, skeleton, n_skel),
    )


def assemble_transport(problem: ProblemSpec, mesh: Mesh, topo: Topology, dofmap: fem.DofMap,
                       condense: bool = False) -> LinearSystem:
    """``assemble_ls`` at eps == 0 only; the benchmark's tracer names it."""
    if problem.epsilon != 0.0:
        raise ValueError("transport assembly requires epsilon == 0")
    return assemble_ls(problem, mesh, topo, dofmap, "weak", condense)


def _dissection_order(geo, skeleton, n):
    """Nested-dissection order of the n DOFs that ``skeleton`` (T, nb) lists
    per element, with separators taken from the mesh (George, SINUM 1973).

    Each element gets the Morton code of its centroid on a 2^b x 2^b grid
    over the centroids' bounding box, about one element per cell; the codes
    are the leaves of a binary tree that halves the box in x and y by turns.
    Each DOF goes to the least tree cell that holds all its elements: with
    lo, hi the least and greatest code among them, the cell has the 2^h
    codes that agree with hi above bit h = bit_length(lo ^ hi), and ``end``
    is its last code. Sorting by (end, h) is a postorder of the tree, so the
    DOFs on the edges and vertices that both halves of a cell share follow
    every DOF inside either half. Every matrix entry couples two DOFs of one
    element, whose cells are nested, and the one in the smaller cell comes
    first. lexsort is stable, so ties keep index order.
    """
    centroid = geo.v0 + geo.jac.sum(axis=2) / 3.0
    low, high = centroid.min(axis=0), centroid.max(axis=0)
    bits = np.arange(int(np.ceil(np.log2(len(centroid)) / 2)))
    side = 2 ** len(bits)
    cell = (centroid - low) / np.where(high > low, high - low, 1.0) * side
    cell = np.minimum(cell.astype(np.int64), side - 1)  # (T, 2) grid column and row
    code = (((cell[:, :, None] >> bits) & 1) << (2 * bits + [[1], [0]])).sum(axis=(1, 2))
    codes = np.broadcast_to(code[:, None], skeleton.shape).ravel()
    lo = np.full(n, np.iinfo(np.int64).max)
    hi = np.full(n, -1)
    np.minimum.at(lo, skeleton.ravel(), codes)
    np.maximum.at(hi, skeleton.ravel(), codes)
    h = np.frexp((lo ^ hi).astype(float))[1]  # bit_length, exact below 2^53
    end = hi | ((np.int64(1) << h) - 1)
    return np.lexsort((h, end))


def apply_slit(problem: ProblemSpec, mesh: Mesh, topo: Topology, dofmap: fem.DofMap):
    """Interior-face penalty enforcing ``problem.slit_g`` on the edges that
    resolve ``problem.slit``, for the least-squares system numbered by
    ``dofmap``; returns (CSR matrix, rhs). Nothing in the package or its
    tests calls it: the assembly adds the same face terms into the local
    systems of the elements that own the slit edges (``_system_blocks``). It
    stays only because ``perfbench/tracing.py`` names it, and goes with the
    benchmark change of ROADMAP item 1.

    The weight is (eps + |beta . n_F|) / h_F with n_F the stored oriented
    normal; the absolute value keeps the term symmetric and side-agnostic.
    """
    edges = resolve_slit(mesh, topo, problem.slit)
    owners, a, b = _face_terms(problem, topo, dofmap, "slit", edges)
    idx = dofmap.n_q + dofmap.w_index[owners, :dofmap.nloc_w_skel]
    return _scatter(a, b, idx, dofmap.n_total)


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
    """Squared L2 norms of the global basis functions, blockwise [Q | W]:
    the diagonal D of the kappa pencil A x = lambda D x, whose Rayleigh
    quotients mirror the function-space ones (``condition_study``). ``mesh``
    is not read: the DOF map carries the geometry.
    """
    tab = fem.reference_tables(dofmap.k, 2 * dofmap.degree + 2)
    geo = dofmap.geo
    diag = np.zeros(dofmap.n_total)
    w_sq = geo.det[:, None] * (tab.w_vals**2 @ tab.weights)[None, :]
    np.add.at(diag, dofmap.n_q + dofmap.w_index.ravel(), w_sq.ravel())
    # the diagonal of the Q mass J^T J / det J needs only the Gram diagonals
    factor, gram = _affine_factors(geo.jac, 1.0 / geo.det, tab.q_vals, tab.weights)
    q_sq = factor @ np.diagonal(gram, axis1=1, axis2=2)
    np.add.at(diag, dofmap.q_index.ravel(), q_sq.ravel())
    return diag


def _local_systems(problem, dofmap):
    """Local matrices (T, nloc, nloc) and vectors (T, nloc) of the
    least-squares form, [Q | W] for eps > 0 and W alone for transport.

    The scalar residual sqrt(eps) div q + beta.grad w + c w is tabulated
    for the W basis only: its values times sqrt(w det J) at the npts
    quadrature points are W (T, nloc_w, npts), one more row holds
    f sqrt(w det J), and the W-W part and b_W come from one product of that
    array with itself. The Q rows would be sqrt(eps) s_i (reference div q_i)
    sqrt(w) / sqrt(det J), with s the orientation signs, so the Q-Q div-div
    part is (eps / det J) times a reference Gram matrix, and the Q-W part
    and b_Q are one product of the sqrt(w)-weighted reference divergences
    with the rows of all elements. The vector residual q + sqrt(eps) grad w
    is affine in the element map: its blocks are reference Gram matrices
    times 2x2 element factors (``_affine_factors``).

    The signs are applied once per block. The diagonal blocks are averaged
    with their transposes and the W-Q block is the transpose of the Q-W
    block, so a_loc is exactly symmetric whatever order the products sum
    in. Each intermediate is dropped once used, which keeps the traced peak
    within 2.5 times the bytes returned.
    """
    eps, se = problem.epsilon, np.sqrt(problem.epsilon)
    geo, sign = dofmap.geo, dofmap.q_sign
    tab = fem.reference_tables(dofmap.k, fem.assembly_degree(dofmap.k))
    nq = dofmap.nloc_q if eps > 0.0 else 0
    nw = dofmap.nloc_w
    t = len(geo.det)
    a_loc = np.empty((t, nq + nw, nq + nw))
    b_loc = np.empty((t, nq + nw))

    X = geo.map_points(tab.xy)
    sqw = np.sqrt(tab.weights[None, :] * geo.det[:, None])          # (T, npts)
    # beta.grad w + c w = (J^{-1} beta, c) . (reference grad w, w)
    coef = np.empty(X.shape[:2] + (3,))
    np.matmul(problem.beta(X[..., 0], X[..., 1]), geo.inv_t, out=coef[..., :2])
    coef[..., 2] = _scalar_field(problem.c, X[..., 0], X[..., 1])
    coef *= sqw[..., None]
    w_rows = np.empty((t, nw + 1, len(tab.weights)))  # W, then f sqrt(w det J)
    np.multiply(_scalar_field(problem.f, X[..., 0], X[..., 1]), sqw, out=w_rows[:, nw])
    del X
    # the sum over the three components (reference grad w, w): one matrix
    # product per quadrature point, over all elements
    w_tab = np.concatenate([tab.w_grads, tab.w_vals[..., None]], axis=2)
    w = w_rows[:, :nw]
    w[...] = np.matmul(coef.transpose(1, 0, 2), w_tab.transpose(1, 2, 0)).transpose(1, 2, 0)
    del coef
    gram = np.matmul(w, w_rows.swapaxes(1, 2))                    # W (W | f)^T
    b_loc[:, nq:] = gram[:, :, nw]
    ww = gram[:, :, :nw]
    if nq:
        factor, gram = _affine_factors(geo.inv_t, eps * geo.det, tab.w_grads, tab.weights)
        ww += (factor @ gram.reshape(4, -1)).reshape(t, nw, nw)
    ww *= 0.5
    np.add(ww, ww.swapaxes(1, 2), out=a_loc[:, nq:, nq:])
    del gram, ww
    if not nq:
        return a_loc, b_loc

    sqw_divs = tab.q_divs * np.sqrt(tab.weights)                    # (nloc_q, npts)
    # (W | f) rows against the divergences: the W-Q block and b_Q, before
    # the factor sqrt(eps) s / sqrt(det J)
    wq = (w_rows.reshape(-1, len(tab.weights)) @ sqw_divs.T).reshape(t, nw + 1, nq)
    del w_rows, w
    wq /= np.sqrt(geo.det)[:, None, None]
    # q_i . sqrt(eps) grad w_j does not depend on the map: J and J^{-T} cancel
    wq[:, :nw] += np.einsum("iqd,jqd,q->ji", tab.q_vals, tab.w_grads, tab.weights)
    wq *= se * sign[:, None, :]
    a_loc[:, nq:, :nq] = wq[:, :nw]
    a_loc[:, :nq, nq:] = wq[:, :nw].swapaxes(1, 2)
    b_loc[:, :nq] = wq[:, nw]
    del wq
    # Q mass J^T J / det J and div-div eps / det J, one product over elements,
    # halved for the average with the transpose
    factor, gram = _affine_factors(geo.jac, 0.5 / geo.det, tab.q_vals, tab.weights)
    factor = np.concatenate([factor, (0.5 * eps / geo.det)[:, None]], axis=1)
    grams = np.concatenate([gram.reshape(4, -1), (sqw_divs @ sqw_divs.T).reshape(1, -1)])
    qq = (factor @ grams).reshape(t, nq, nq)
    qq *= sign[:, :, None]
    qq *= sign[:, None, :]
    np.add(qq, qq.swapaxes(1, 2), out=a_loc[:, :nq, :nq])
    return a_loc, b_loc


def _affine_factors(F, scale, ref, weights):
    """Element factors scale F^T F (T, 4) and reference Gram matrices
    sum_q w_q v_ia v_jb (4, n, n) of reference fields v (n, nq, 2), indexed
    by (a, b): over the axis of length 4 their product is
    sum_q w_q scale (F v_i).(F v_j) on every element."""
    factor = np.einsum("tda,tdb->tab", F, F).reshape(len(F), 4) * scale[:, None]
    gram = np.einsum("iqa,jqb,q->abij", ref, ref, weights).reshape(4, len(ref), len(ref))
    return factor, gram


def _system_blocks(problem, mesh, topo, dofmap, bc_mode):
    """One local system per element of the least-squares form, a (T, l, l),
    b (T, l) and idx (T, l) in the numbering of the full system, with the
    boundary and slit face terms (MeshError if the mesh does not resolve the
    slit) in the W-trace block of the element that owns each face. Strong
    mode fixes the boundary W DOFs to g: b holds b - A x_fixed, a and b are
    zero in the rows and columns of fixed DOFs, but for 1 on the diagonal
    and g in b of the first element holding each, so the summed row is e_i
    with rhs g. Transport (eps == 0) takes a DOF map without the Q block.
    """
    if dofmap.q_index.shape[0] != mesh.num_triangles:
        raise ValueError("dofmap was built for a different mesh")
    if bc_mode not in BC_MODES:
        raise ValueError(f"bc_mode must be one of {BC_MODES}, got {bc_mode!r}")
    if problem.epsilon == 0.0 and bc_mode != "weak":
        raise ValueError(f"transport (eps == 0) takes bc mode 'weak' only, got {bc_mode!r}")
    n_q = dofmap.n_q
    a, b = _local_systems(problem, dofmap)
    idx = np.concatenate([dofmap.q_index, n_q + dofmap.w_index], axis=1)
    faces = [] if bc_mode == "strong" else [(bc_mode, topo.boundary_edges)]
    # slit terms enter before strong elimination, so eliminated rows stay identity rows
    if problem.slit is not None:
        faces.append(("slit", resolve_slit(mesh, topo, problem.slit)))
    trace = dofmap.q_index.shape[1] + np.arange(dofmap.nloc_w_skel)  # local W-trace positions
    for mode, edges in faces:
        # a corner element owns two boundary faces, hence add.at
        owners, a_face, b_face = _face_terms(problem, topo, dofmap, mode, edges)
        np.add.at(a, (owners[:, None, None], trace[:, None], trace), a_face)
        np.add.at(b, (owners[:, None], trace), b_face)
    if bc_mode != "strong":
        return a, b, idx
    wdofs = boundary_w_dofs(mesh, topo, dofmap)
    x_fixed = np.zeros(dofmap.n_total)
    x_fixed[n_q + wdofs] = _scalar_field(problem.g, *dofmap.w_coords[wdofs].T)
    b -= np.einsum("eij,ej->ei", a, x_fixed[idx])
    on = np.isin(idx, n_q + wdofs)
    a[on[:, :, None] | on[:, None, :]] = 0.0
    b[on] = 0.0
    e, i = np.nonzero(on)  # element-major, so np.unique finds each DOF's first element
    first = np.unique(idx[e, i], return_index=True)[1]
    e, i = e[first], i[first]
    a[e, i, i] = 1.0
    b[e, i] = x_fixed[idx[e, i]]
    return a, b, idx


def _rhs(b, idx, n):
    """Sum of the local vectors b (E, l) at their global indices idx (E, l)."""
    return np.bincount(idx.ravel(), b.ravel(), minlength=n)


def _scatter(a, b, idx, n):
    """Sum local matrices a (E, l, l) and vectors b (E, l) at their global
    indices idx (E, l) into an n x n CSR matrix and a length-n vector.

    One COO holds every local matrix, so the pattern is structural, that of
    the DOF map in every BC mode: an entry whose terms cancel to 0.0 stays,
    as do the couplings that strong elimination zeroed (``_system_blocks``).
    """
    local = idx.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    l = idx.shape[1]  # rows[e, i, j] = idx[e, i] and cols[e, i, j] = idx[e, j]
    rows, cols = np.repeat(local, l, axis=1).ravel(), np.tile(local, l).ravel()
    mat = coo_matrix((a.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return mat, _rhs(b, idx, n)


def _condense(a, b, keep, drop):
    """Schur complements S = A_BB - A_BI A_II^-1 A_IB and g = b_B - A_BI A_II^-1 b_I
    of local systems a (T, n, n), b (T, n) on the local positions ``keep``,
    eliminating ``drop`` through a Cholesky factor L L^T = A_II.
    Returns S, g and (L, L^-1 A_IB, L^-1 b_I).

    The factor is row-oriented Cholesky on the interior rows of [A | b],
    vectorized over elements with a loop over the interior DOFs: row j
    becomes row j of [L^T | L^-1 A_IB | L^-1 b_I] once the rows above it
    are subtracted and it is divided by the square root of its pivot. A
    pivot that is not positive raises NotSPDError.
    """
    if not drop.size:
        t = len(a)
        return a, b, (np.empty((t, 0, 0)), np.empty((t, 0, len(keep))), np.empty((t, 0)))
    ni = len(drop)
    u = np.concatenate([_gather(a, drop, np.concatenate([drop, keep])), b[:, drop, None]], axis=2)
    for j in range(ni):
        u[:, j, :j] = 0.0
        u[:, j, j:] -= (u[:, None, :j, j] @ u[:, :j, j:])[:, 0]
        if not (u[:, j, j] > 0.0).all():
            raise NotSPDError("an element-interior block is not positive definite")
        u[:, j, j:] /= np.sqrt(u[:, j, j])[:, None]
    chol, coupling, interior_rhs = u[:, :, :ni].swapaxes(1, 2), u[:, :, ni:-1], u[:, :, -1]
    s = _gather(a, keep, keep)
    s -= np.matmul(coupling.swapaxes(1, 2), coupling)
    s += s.swapaxes(1, 2)  # exactly symmetric, as the local matrices are
    s *= 0.5
    g = b[:, keep] - (coupling.swapaxes(1, 2) @ interior_rhs[..., None])[..., 0]
    return s, g, (chol, coupling, interior_rhs)


def _gather(a, rows, cols):
    """a[:, rows[:, None], cols] of a (T, n, n) as a C-contiguous array, which
    that indexing does not return: its element axis would vary fastest."""
    flat = (rows[:, None] * a.shape[2] + cols).ravel()
    return np.take(a.reshape(len(a), -1), flat, axis=1).reshape(len(a), len(rows), len(cols))


def face_table(problem, topo, dofmap, mode, edges, degree):
    """``edge_quadrature``'s table (owners, pts, trace, weights, h) of the faces
    ``edges`` and w = face_weight(mode, eps, beta.n, h_F) at its points, with
    the slit's stored normals in slit mode and outward normals otherwise. The
    assembly's face terms and the boundary error norm both integrate on it."""
    normals = topo.normals[edges] if mode == "slit" else topo.outward_normals(edges)
    owners, pts, trace, weights, h = fem.edge_quadrature(topo, dofmap, edges, degree)
    beta_n = (problem.beta(pts[..., 0], pts[..., 1]) @ normals[:, :, None])[..., 0]
    return owners, pts, trace, weights, h, face_weight(mode, problem.epsilon, beta_n, h)


def _face_terms(problem, topo, dofmap, mode, edges):
    """Face penalty int_F w (u - d)^2 on the faces ``edges`` as local blocks on
    the W traces (vertex and edge nodes) of the element that owns each face:
    returns the owners (E,), a (E, l, l) and b (E, l), with l = nloc_w_skel,
    one row per face of the ``face_table``, in the order of ``edges``.
    Slit mode takes d = slit_g, the other modes d = g.
    """
    owners, pts, trace, weights, h, w = face_table(
        problem, topo, dofmap, mode, edges, fem.assembly_degree(dofmap.k)
    )
    # the traces are the local Lagrange basis, whose vertex and edge nodes
    # (the skeleton columns of w_index) come first; the bubbles vanish on F
    trace = trace[:, :dofmap.nloc_w_skel]
    scale = w * weights * h
    data = problem.slit_g if mode == "slit" else problem.g
    gval = _scalar_field(data, pts[..., 0], pts[..., 1])
    a = np.einsum("eaq,ebq,eq->eab", trace, trace, scale)
    return owners, a, np.einsum("eaq,eq->ea", trace, scale * gval)
