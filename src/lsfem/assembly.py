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

The local matrices (``_local_systems``) tabulate the scalar residual for the
W basis alone; every Q term is a reference Gram matrix times an element
factor, or one product of the reference divergences with the W rows. The
element interiors are eliminated by a Cholesky factorization vectorized over
the elements, with a loop over the interior DOFs (``_condense``).

``assemble_ls`` and ``assemble_transport`` build every system through one
path and return one type, ``LinearSystem``. With ``condense`` the
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
from .mesh import Mesh, Topology
from .solver import NotSPDError, SparseSym

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
    """Sparse SPD least-squares system on the DOFs that are not condensed out.

    With the element-interior DOFs condensed out, the matrix is the Schur
    complement on the skeleton, numbered [Q edge moments | W vertex and edge
    nodes]: the leading ``n_q_skel`` and ``n_w_skel`` DOFs of the two blocks
    of the full system (see ``DofMap``). The full system is the one with no
    interiors. Either way ``dirichlet`` lists (W-block index, value) pairs
    fixed by strong boundary imposition; in the matrix, indices are offset
    by the size of its Q block.

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
    dirichlet: list
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
    condense: bool = False,
) -> LinearSystem:
    """Assemble the least-squares system for the diffusive problem; with
    ``condense``, its element interiors condensed out."""
    if problem.epsilon <= 0.0:
        raise ValueError("epsilon must be positive; use assemble_transport for epsilon == 0")
    return _assemble(problem, mesh, topo, dofmap, bc_mode, condense)


def assemble_transport(
    problem: ProblemSpec,
    mesh: Mesh,
    topo: Topology,
    dofmap: fem.DofMap,
    condense: bool = False,
) -> LinearSystem:
    """Assemble the scalar-only transport-reaction system on W_h; with
    ``condense``, its element interiors condensed out, which leaves the full
    system unless the W space has bubbles (P3)."""
    if problem.epsilon != 0.0:
        raise ValueError("transport assembly requires epsilon == 0")
    return _assemble(problem, mesh, topo, dofmap, "weak", condense)


def _assemble(problem, mesh, topo, dofmap, bc_mode, condense):
    """The system, with ``condense`` every element's interior DOFs eliminated
    through a batched Cholesky factor of its interior block; without, the
    interior set is empty and the blocks pass through unchanged. eps == 0
    has no Q block, and bc_mode is not read.

    Interior DOFs couple only inside their element, and face, slit and
    strong-BC terms touch only W traces, so those go straight onto the
    skeleton.
    """
    if problem.epsilon == 0.0:  # transport: the W block alone
        dofmap = dataclasses.replace(dofmap, n_q=0, q_index=dofmap.q_index[:, :0],
                                     q_sign=dofmap.q_sign[:, :0], nloc_q_skel=0)
    blocks, n, fixed = _system_blocks(problem, mesh, topo, dofmap, bc_mode)
    norm_b = float(np.linalg.norm(_rhs(blocks, n, _offset(fixed, dofmap.n_q))))
    (a_loc, b_loc, gidx), faces = blocks[0], blocks[1:]
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
    n_q_skel = int(np.count_nonzero(on_skeleton[:dofmap.n_q]))

    s_loc, g_loc, (chol, coupling, interior_rhs) = _condense(a_loc, b_loc, keep, drop)
    del a_loc, blocks  # the full local matrices are not needed for the scatter
    skeleton = renumber[gidx[:, keep]]
    skel_blocks = [(s_loc, g_loc, skeleton)] + [(a, b, renumber[idx]) for a, b, idx in faces]
    # the fixed W-block indices are boundary nodes, so skeleton W-block indices too
    mat, rhs = _scatter(skel_blocks, n_skel, _offset(fixed, n_q_skel))
    del s_loc, skel_blocks  # summed into mat; without interiors s_loc is a_loc
    dirichlet = [] if fixed is None else list(zip(fixed[0].tolist(), fixed[1].tolist()))
    return LinearSystem(
        SparseSym.from_csr(mat), rhs, dirichlet,
        norm_b=norm_b, on_skeleton=on_skeleton, skeleton=skeleton, interior=gidx[:, drop],
        chol=chol, coupling=coupling, interior_rhs=interior_rhs,
        order=_dissection_order(dofmap.geo, skeleton, n_skel),
    )


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


def apply_slit(problem: ProblemSpec, topo: Topology, dofmap: fem.DofMap):
    """Interior-face penalty enforcing ``problem.slit_g`` on the flagged slit
    edges, for the least-squares system numbered by ``dofmap``; returns
    (CSR matrix, rhs). Nothing in the package or its tests calls it:
    ``_system_blocks`` adds the same blocks. It stays only because
    ``perfbench/tracing.py`` names it, and goes with the benchmark change of
    ROADMAP item 1.

    The weight is (eps + |beta . n_F|) / h_F with n_F the stored oriented
    normal; the absolute value keeps the term symmetric and side-agnostic.
    """
    return _scatter([_face_terms(problem, topo, dofmap, "slit", dofmap.n_q)], dofmap.n_total)


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
    times 2x2 element factors (``_affine_block``).

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
        ww += _affine_block(geo.inv_t, eps * geo.det, tab.w_grads, tab.weights)
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
    # Q mass J^T J / det J and div-div eps / det J, one product over elements
    factor = np.empty((t, 5))
    factor[:, :4] = np.einsum("tda,tdb->tab", geo.jac, geo.jac).reshape(t, 4)
    factor[:, 4] = eps
    factor /= 2.0 * geo.det[:, None]  # halved for the average with the transpose
    grams = np.concatenate([
        np.einsum("iqa,jqb,q->abij", tab.q_vals, tab.q_vals, tab.weights).reshape(4, -1),
        (sqw_divs @ sqw_divs.T).reshape(1, -1)])
    qq = (factor @ grams).reshape(t, nq, nq)
    qq *= sign[:, :, None]
    qq *= sign[:, None, :]
    np.add(qq, qq.swapaxes(1, 2), out=a_loc[:, :nq, :nq])
    return a_loc, b_loc


def _affine_block(F, scale, ref, weights):
    """Matrices sum_q w_q scale (F v_i).(F v_j) of reference fields v (n, nq, 2)
    on every element, as the element factors scale F^T F (T, 4) times the
    reference Gram matrices (4, n*n); returns (T, n, n)."""
    factor = np.einsum("tda,tdb->tab", F, F).reshape(len(F), 4) * scale[:, None]
    gram = np.einsum("iqa,jqb,q->abij", ref, ref, weights).reshape(4, -1)
    return (factor @ gram).reshape(len(F), len(ref), len(ref))


def _system_blocks(problem, mesh, topo, dofmap, bc_mode):
    """Local blocks (a (E, l, l), b (E, l), idx (E, l)) of the least-squares
    system in the numbering of the full system: the element block, then the
    boundary and slit face blocks. Returns them with the system size and the
    strongly fixed (W-block indices, values), or None. In strong mode the
    blocks are already eliminated: every b holds b - A x_fixed, and every a
    is zero in the rows and columns of fixed DOFs. Transport (eps == 0) takes
    a DOF map without the Q block and has the inflow penalty, whatever bc_mode.
    """
    if dofmap.q_index.shape[0] != mesh.num_triangles:
        raise ValueError("dofmap was built for a different mesh")
    if problem.epsilon == 0.0:
        bc_mode = "weak"  # with eps == 0 the weak boundary weight is the inflow weight alone
    elif bc_mode not in BC_MODES:
        raise ValueError(f"bc_mode must be one of {BC_MODES}, got {bc_mode!r}")
    n_q = dofmap.n_q
    a_loc, b_loc = _local_systems(problem, dofmap)
    gidx = np.concatenate([dofmap.q_index, n_q + dofmap.w_index], axis=1)
    blocks = [(a_loc, b_loc, gidx)]
    if bc_mode != "strong":
        blocks.append(_face_terms(problem, topo, dofmap, bc_mode, n_q))
    # slit terms enter before strong elimination, so eliminated rows stay identity rows
    if topo.slit_edges.size and problem.slit_g is not None:
        blocks.append(_face_terms(problem, topo, dofmap, "slit", n_q))
    n = n_q + dofmap.n_w
    if bc_mode != "strong":
        return blocks, n, None
    wdofs = boundary_w_dofs(mesh, topo, dofmap)
    coords = dofmap.w_coords[wdofs]
    values = _scalar_field(problem.g, coords[:, 0], coords[:, 1]).copy()
    x_fixed, is_fixed = np.zeros(n), np.zeros(n, dtype=bool)
    x_fixed[n_q + wdofs] = values
    is_fixed[n_q + wdofs] = True
    for a, b, idx in blocks:
        b -= np.einsum("eij,ej->ei", a, x_fixed[idx])
        on = is_fixed[idx]
        a[on[:, :, None] | on[:, None, :]] = 0.0
    return blocks, n, (wdofs, values)


def _offset(fixed, n_q):
    """Strongly fixed (W-block indices, values) as (system indices, values)."""
    return None if fixed is None else (n_q + fixed[0], fixed[1])


def _rhs(blocks, n, fixed):
    """Sum of the local vectors at their global indices; fixed rows hold their values."""
    rhs = np.bincount(np.concatenate([idx.ravel() for _, _, idx in blocks]),
                      np.concatenate([b.ravel() for _, b, _ in blocks]), minlength=n)
    if fixed is not None:
        rhs[fixed[0]] = fixed[1]
    return rhs


def _scatter(blocks, n, fixed=None):
    """Sum local blocks [(a (E, l, l), b (E, l), idx (E, l))] at their global
    indices into an n x n CSR matrix and a length-n vector.

    One COO holds every block, so the pattern is structural: an entry whose
    terms cancel to 0.0 stays. ``fixed`` = (indices, values) were eliminated
    in the blocks (``_system_blocks``); their couplings are dropped by index,
    and their rows become identity rows with the values as rhs.
    """
    size = sum(a.size for a, _, _ in blocks)
    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(size, dtype=index), np.empty(size, dtype=index)
    vals = np.empty(size)
    start = 0
    for a, _, idx in blocks:
        e, l = idx.shape
        part = slice(start, start + a.size)
        rows[part].reshape(e, l, l)[...] = idx[:, :, None]
        cols[part].reshape(e, l, l)[...] = idx[:, None, :]
        vals[part] = a.ravel()
        start += a.size
    if fixed is not None:
        free = np.ones(n, dtype=bool)
        free[fixed[0]] = False
        kept = free[rows] & free[cols]
        rows = np.concatenate([rows[kept], fixed[0].astype(index)])
        cols = np.concatenate([cols[kept], fixed[0].astype(index)])
        vals = np.concatenate([vals[kept], np.ones(len(fixed[0]))])
    mat = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return mat, _rhs(blocks, n, fixed)


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


def _face_terms(problem, topo, dofmap, mode, offset):
    """Face penalty int_F w (u - d)^2 as local blocks (a, b, idx) on the W
    traces (vertex and edge nodes), with the W block starting at ``offset``.

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
    # the traces are the local Lagrange basis, whose vertex and edge nodes
    # (the skeleton columns of w_index) come first; the bubbles vanish on F
    n_trace = dofmap.nloc_w_skel
    blocks, rhs_blocks, gidx = [], [], []
    for sel, tris, pts, trace, weights, h in fem.edge_quadrature(
        topo, dofmap, edges, fem.assembly_degree(dofmap.k)
    ):
        trace = trace[:n_trace]
        beta_n = (problem.beta(pts[..., 0], pts[..., 1]) @ normals[sel, :, None])[..., 0]
        scale = face_weight(mode, problem.epsilon, beta_n, h) * weights * h
        gval = _scalar_field(data, pts[..., 0], pts[..., 1])
        blocks.append(np.einsum("aq,bq,eq->eab", trace, trace, scale))
        rhs_blocks.append(np.einsum("aq,eq->ea", trace, scale * gval))
        gidx.append(offset + dofmap.w_index[tris, :n_trace])
    return np.concatenate(blocks), np.concatenate(rhs_blocks), np.concatenate(gidx)
