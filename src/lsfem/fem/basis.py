"""Reference-element bases.

Scalar part: nodal Lagrange bases P1..P3 on the equispaced lattice.
Vector part: the local space P_m(K; R^2) + x P_m(K) of dimension
(m+1)(m+3), dual to edge moments of the normal trace against shifted
Legendre polynomials plus interior moments against (P_{m-1})^2; ``rt_dofs``
is the one definition of those functionals.

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


def edge_moment_weight(j: int, t: np.ndarray) -> np.ndarray:
    """L2([0,1])-normalized Legendre weight defining the j-th edge moment.

    Normalization keeps the moment-dual basis well conditioned; reversing
    the argument still flips the sign of odd degrees only.
    """
    x = 2.0 * np.asarray(t) - 1.0
    return np.sqrt(2.0 * j + 1.0) * np.polynomial.legendre.legval(x, np.eye(j + 1)[j])


def edge_ref_points(local_edge: int, t: np.ndarray) -> np.ndarray:
    """Reference coordinates along a directed local edge at parameters t."""
    a, b = LOCAL_EDGES[local_edge]
    pa, pb = REF_VERTS[a], REF_VERTS[b]
    return pa[None, :] + t[:, None] * (pb - pa)[None, :]


# ---------------------------------------------------------------------------
# Lagrange
# ---------------------------------------------------------------------------

def lagrange_nodes(degree: int) -> np.ndarray:
    """Equispaced reference nodes ordered vertices, edge nodes, interior."""
    _check_degree(degree)
    m = degree
    nodes = list(REF_VERTS)
    for e in range(3):
        nodes.extend(edge_ref_points(e, np.arange(1, m) / m))
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


def rt_dofs(order: int, degree: int, field) -> np.ndarray:
    """The DOF functionals of the vector space applied to reference fields.

    ``field(pts)`` gives values (..., npts, 2) at reference points (npts, 2).
    Returns (..., nloc) in ``rt_basis``'s DOF order, each moment integrated
    by the edge and triangle rules of exact degree ``degree``. Normal-trace
    and interior moments are invariant under the contravariant Piola map,
    so the pull-back det(J) J^{-1} f of a physical field f gives its DOFs
    on that element.
    """
    erule = edge_rule(degree)
    t = erule.points[:, 0]
    dofs = []
    for e in range(3):
        ptrace = field(edge_ref_points(e, t)) @ REF_EDGE_NORMALS[e]
        for j in range(order + 1):
            dofs.append(ptrace @ (edge_moment_weight(j, t) * erule.weights * REF_EDGE_LENGTHS[e]))
    trule = triangle_rule(degree)
    vals = field(trule.xy)
    tests = rt_interior_tests(order, trule.xy)
    for i in range(len(tests)):
        comp = 0 if i < len(tests) // 2 else 1
        dofs.append(vals[..., comp] @ (tests[i, :, comp] * trule.weights))
    return np.stack(dofs, axis=-1)


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


@functools.cache
def _rt_coefficients(order: int) -> np.ndarray:
    # rows: DOF functionals; columns: spanning fields of the local space
    M = rt_dofs(order, 2 * order + 2, lambda pts: _eval_vector_space(order, pts)[0]).T
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
