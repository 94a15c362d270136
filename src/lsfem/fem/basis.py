"""Reference-element bases.

Scalar part: nodal Lagrange bases P1..P3 on the equispaced lattice.
Vector part: the local space P_m(K; R^2) + x P_m(K) of dimension
(m+1)(m+3), dual to edge moments of the normal trace against shifted
Legendre polynomials plus interior moments against (P_{m-1})^2.

Local edge i is opposite vertex i and is traversed (1,2), (2,0), (0,1);
each of those traversals runs counterclockwise around the element.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import edge_rule, triangle_rule

MAX_ORDER = 3

# directed local edges and their outward unit normals on the reference triangle
LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))
REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_EDGE_NORMALS = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
REF_EDGE_NORMALS[0] /= np.sqrt(2.0)
REF_EDGE_LENGTHS = np.array([np.sqrt(2.0), 1.0, 1.0])


def shifted_legendre(j: int, t: np.ndarray) -> np.ndarray:
    """Legendre polynomial of degree j on [0, 1]."""
    x = 2.0 * np.asarray(t) - 1.0
    return np.polynomial.legendre.legval(x, np.eye(j + 1)[j])


def edge_moment_weight(j: int, t: np.ndarray) -> np.ndarray:
    """L2([0,1])-normalized Legendre weight defining the j-th edge moment.

    Normalization keeps the moment-dual basis well conditioned; reversing
    the argument still flips the sign of odd degrees only.
    """
    return np.sqrt(2.0 * j + 1.0) * shifted_legendre(j, t)


# ---------------------------------------------------------------------------
# Lagrange
# ---------------------------------------------------------------------------

def lagrange_nodes(degree: int) -> np.ndarray:
    """Equispaced reference nodes ordered vertices, edge nodes, interior."""
    _check_degree(degree)
    m = degree
    nodes = [REF_VERTS[0], REF_VERTS[1], REF_VERTS[2]]
    for a, b in LOCAL_EDGES:
        for i in range(1, m):
            nodes.append(REF_VERTS[a] + (i / m) * (REF_VERTS[b] - REF_VERTS[a]))
    for i in range(1, m):
        for j in range(1, m - i):
            nodes.append(np.array([i / m, j / m]))
    return np.array(nodes)


def lagrange_basis(degree: int, points: np.ndarray):
    """Nodal basis values and reference gradients at ``points``.

    Returns (values, grads) with shapes (nloc, npts) and (nloc, npts, 2).
    """
    _check_degree(degree)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    coeff = _lagrange_coefficients(degree)
    exps = _poly_exponents(degree)
    mono, dmono = _eval_monomials(exps, pts)
    values = coeff.T @ mono
    grads = np.einsum("si,sqd->iqd", coeff, dmono)
    return values, grads


@functools.cache
def _lagrange_coefficients(degree: int) -> np.ndarray:
    nodes = lagrange_nodes(degree)
    exps = _poly_exponents(degree)
    vand, _ = _eval_monomials(exps, nodes)
    return _read_only(np.linalg.inv(vand.T))  # column i: monomial coefficients of basis i


def _check_degree(degree: int):
    if not 1 <= degree <= MAX_ORDER:
        raise ValueError(f"polynomial degree must be in 1..{MAX_ORDER}, got {degree}")


def _poly_exponents(m: int):
    return [(a, b) for tot in range(m + 1) for a in range(tot, -1, -1) for b in [tot - a]]


def _eval_monomials(exps, pts):
    x, y = pts[:, 0], pts[:, 1]
    vals = np.empty((len(exps), len(pts)))
    grads = np.empty((len(exps), len(pts), 2))
    for s, (a, b) in enumerate(exps):
        vals[s] = x**a * y**b
        grads[s, :, 0] = a * x ** max(a - 1, 0) * y**b if a else 0.0
        grads[s, :, 1] = b * x**a * y ** max(b - 1, 0) if b else 0.0
    return vals, grads


# ---------------------------------------------------------------------------
# Vector space P_m^2 + x P_m
# ---------------------------------------------------------------------------

def rt_dimension(order: int) -> int:
    return (order + 1) * (order + 3)


def rt_edge_dofs(order: int) -> int:
    return order + 1


def rt_basis(order: int, points: np.ndarray):
    """Moment-dual vector basis values and divergences at ``points``.

    DOF order: edge 0 moments (Legendre degree 0..order along the directed
    local edge, normal trace against the outward normal), edge 1, edge 2,
    then interior moments. Returns (values, divs) with shapes
    (nloc, npts, 2) and (nloc, npts).
    """
    _check_degree(order)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    coeff = _rt_coefficients(order)
    vals, divs = _eval_vector_space(order, pts)
    values = np.einsum("si,sqd->iqd", coeff, vals)
    divergences = np.einsum("si,sq->iq", coeff, divs)
    return values, divergences


def rt_dof_matrix(order: int) -> np.ndarray:
    """DOF functionals applied to the moment-dual basis (identity by duality)."""
    coeff = _rt_coefficients(order)
    return _rt_moment_matrix(order) @ coeff


def rt_interior_tests(order: int, pts: np.ndarray) -> np.ndarray:
    """Interior moment test fields at reference points, in DOF order.

    Shape (order*(order+1), npts, 2); pairs with the reference pullback of a
    vector field to evaluate the interior DOFs. The scalar factors are an
    L2-orthonormal basis of P_{order-1} on the reference triangle.
    """
    scal = _interior_scalar_tests(order, pts)
    n = len(scal)
    out = np.zeros((2 * n, scal.shape[1], 2))
    for comp in (0, 1):
        out[comp * n: (comp + 1) * n, :, comp] = scal
    return out


def _interior_scalar_tests(order: int, pts: np.ndarray) -> np.ndarray:
    """Orthonormal basis of P_{order-1}(reference triangle) at ``pts``."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    u, v = pts[:, 0] - _CENTROID, pts[:, 1] - _CENTROID
    vals = np.array([u**a * v**b for a, b in _poly_exponents(order - 1)])
    return _interior_coefficients(order).T @ vals


@functools.cache
def _interior_coefficients(order: int) -> np.ndarray:
    """Monomial coefficients (columns) of the orthonormal basis of P_{order-1}."""
    rule = triangle_rule(2 * order + 2)
    u, v = rule.xy[:, 0] - _CENTROID, rule.xy[:, 1] - _CENTROID
    vals = np.array([u**a * v**b for a, b in _poly_exponents(order - 1)])
    gram = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
    return _read_only(np.linalg.inv(np.linalg.cholesky(gram)).T)


_CENTROID = 1.0 / 3.0


def _rt_space_exponents(order: int):
    """Spanning fields in centroid-centered monomials u^a v^b: the two
    component copies for a+b <= m plus x * u^a v^b for a+b == m. Centering
    keeps the moment matrix well conditioned through order 3."""
    m = order
    scalar = _poly_exponents(m)
    top = [(a, m - a) for a in range(m, -1, -1)]
    return scalar, top


def _eval_vector_space(order, pts):
    scalar, top = _rt_space_exponents(order)
    x, y = pts[:, 0], pts[:, 1]
    u, v = x - _CENTROID, y - _CENTROID
    n = 2 * len(scalar) + len(top)
    vals = np.zeros((n, len(pts), 2))
    divs = np.zeros((n, len(pts)))
    s = 0
    for comp in (0, 1):
        for a, b in scalar:
            vals[s, :, comp] = u**a * v**b
            if comp == 0 and a:
                divs[s] = a * u ** (a - 1) * v**b
            elif comp == 1 and b:
                divs[s] = b * u**a * v ** (b - 1)
            s += 1
    for a, b in top:
        q = u**a * v**b
        qx = a * u ** (a - 1) * v**b if a else 0.0
        qy = b * u**a * v ** (b - 1) if b else 0.0
        vals[s, :, 0] = x * q
        vals[s, :, 1] = y * q
        divs[s] = 2.0 * q + x * qx + y * qy
        s += 1
    return vals, divs


def _rt_moment_matrix(order: int) -> np.ndarray:
    """Rows: DOF functionals; columns: spanning fields of the local space."""
    m = order
    n = rt_dimension(m)
    erule = edge_rule(2 * m + 2)
    t = erule.points[:, 0]
    rows = []
    for e, (a, b) in enumerate(LOCAL_EDGES):
        pa, pb = REF_VERTS[a], REF_VERTS[b]
        pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
        vals, _ = _eval_vector_space(m, pts)
        ptrace = vals @ REF_EDGE_NORMALS[e]
        for j in range(m + 1):
            weight = edge_moment_weight(j, t) * erule.weights * REF_EDGE_LENGTHS[e]
            rows.append(ptrace @ weight)
    trule = triangle_rule(2 * m + 2)
    vals, _ = _eval_vector_space(m, trule.xy)
    tests = rt_interior_tests(m, trule.xy)
    for i in range(len(tests)):
        comp = 0 if i < len(tests) // 2 else 1
        rows.append(vals[:, :, comp] @ (tests[i, :, comp] * trule.weights))
    M = np.array(rows)
    assert M.shape == (n, n)
    return M


@functools.cache
def _rt_coefficients(order: int) -> np.ndarray:
    M = _rt_moment_matrix(order)
    got = np.linalg.inv(M)
    for _ in range(2):  # Newton refinement keeps duality at machine precision
        got = got @ (2.0 * np.eye(len(M)) - M @ got)
    return _read_only(got)


@dataclass(frozen=True)
class ReferenceTables:
    """Both bases at the points of one triangle rule on the reference
    triangle, as read-only arrays; ``geometry`` says how they map."""

    xy: np.ndarray       # (nq, 2) reference points
    weights: np.ndarray  # (nq,) reference weights
    w_vals: np.ndarray   # (nloc_w, nq)
    w_grads: np.ndarray  # (nloc_w, nq, 2) reference gradients
    q_vals: np.ndarray   # (nloc_q, nq, 2)
    q_divs: np.ndarray   # (nloc_q, nq) reference divergences


@functools.cache
def reference_tables(k: int, degree: int) -> ReferenceTables:
    """Tables of the method with index ``k`` (both spaces of degree k+1) at
    the points of ``triangle_rule(degree)``, built once per (k, degree)."""
    rule = triangle_rule(degree)
    w_vals, w_grads = lagrange_basis(k + 1, rule.xy)
    q_vals, q_divs = rt_basis(k + 1, rule.xy)
    arrays = (rule.xy, rule.weights, w_vals, w_grads, q_vals, q_divs)
    return ReferenceTables(*map(_read_only, arrays))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
