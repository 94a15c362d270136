"""Sparse symmetric linear algebra: CSR storage with symmetry validation,
a sparse factorization, preconditioned conjugate gradients, and
extreme-eigenvalue estimation of a pencil with a diagonal right-hand side
(ARPACK on the matrix and on its inverse through one factor, at every size).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SYMMETRY_RTOL = 1e-12
# CG iterations a solve may take. Preconditioned with the factor of A, every
# catalogue solve takes one; a tol below the rounding floor meets the cap
CG_MAXIT = 10
# restarts of ARPACK's Lanczos (eigsh maxiter) per extreme eigenvalue: 20
# operator applications and about 10 more per restart. lambda_max of P2 with
# strong BCs at eps=1 takes about 56 at n=64, and 111 at n=128, which fails
ARPACK_RESTARTS = 100


class SolverError(RuntimeError):
    """Numerical failure in the sparse solver layer."""


class NotSymmetricError(SolverError):
    pass


class NotSPDError(SolverError):
    """The matrix is not symmetric positive definite: ``factorize`` found a
    pivot off the diagonal or a non-positive one, CG met a direction of
    non-positive curvature, or an element-interior block has no Cholesky
    factor."""


class ConvergenceError(SolverError):
    """An iteration cap reached before its tolerance; carries the last
    iterate and its stats when CG raises it."""

    def __init__(self, message, x=None, stats=None):
        super().__init__(message)
        self.x = x
        self.stats = stats


class SingularMatrixError(SolverError):
    pass


@dataclass(frozen=True)
class SparseSym:
    """Symmetric sparse matrix in CSR form, validated at construction."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_csr(cls, mat: sp.csr_matrix) -> "SparseSym":
        """``mat`` in canonical CSR form, once its largest entry of |A - A^T|
        is found at most SYMMETRY_RTOL times its largest |entry|. When the
        stored pattern is symmetric, the CSC arrays of A are the CSR arrays
        of A^T on that pattern, so the entries compare position by position;
        otherwise A - A^T is formed. The index and value arrays are copied
        last, as a conversion from COO leaves them views of COO-sized buffers."""
        mat = mat.tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        scale = np.abs(mat.data).max() if mat.nnz else 1.0
        csc = mat.tocsc()  # its indices come out sorted
        if np.array_equal(csc.indptr, mat.indptr) and np.array_equal(csc.indices, mat.indices):
            gap = np.abs(mat.data - csc.data)
        else:
            gap = abs(mat - mat.T).data
        if gap.size and gap.max() > SYMMETRY_RTOL * scale:
            raise NotSymmetricError(
                f"matrix asymmetry {gap.max():.3e} exceeds {SYMMETRY_RTOL:g} * {scale:.3e}"
            )
        del csc, gap  # freed first, so that the copies stay below the check's peak
        return cls(mat.shape[0], mat.indptr, mat.indices.copy(), mat.data.copy())

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def toarray(self) -> np.ndarray:
        return self.to_scipy().toarray()


@dataclass
class CgStats:
    iterations: int
    residual: float            # final true relative residual ||b - Ax|| / ||b||
    converged: bool
    residual_history: np.ndarray


@dataclass(frozen=True)
class SpectralEstimate:
    """Extreme eigenvalues of an SPD pencil A x = lambda D x, kappa =
    lambda_max / lambda_min, and at each end the residual bound
    ||Bv - theta v|| / theta on the relative error of the estimate, with
    S = D^-1/2, B = (S A S)^-1 for lambda_min and S A S for lambda_max
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998). The bounds
    leave out rounding: where one reads less than the rounding error of
    theta and of the residual, the estimate can be off by that rounding
    error instead (up to 2.6e-13 relative to a dense eigensolve on the
    small condition-study systems of the tests)."""

    lambda_min: float
    lambda_max: float
    kappa: float
    tol_min: float
    tol_max: float

    def __post_init__(self):
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")


def factorize(A: SparseSym, order: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Sparse factor of A; returns the map r -> A^-1 r.

    SuperLU with a minimum-degree ordering of A^T + A, symmetric mode and no
    pivoting, which on an SPD matrix is a Cholesky-like LU whose fill does
    not depend on the values. Raises SingularMatrixError on an exactly
    singular factor.

    ``order`` is a permutation of the indices: SuperLU factors P A P^T, row
    i of which is row order[i] of A. Minimum degree breaks its ties by
    index, so a nested-dissection pre-order (``LinearSystem.order``) decides
    them.

    With diagonal pivots only, P A P^T = L U with U = D L^T, so by
    Sylvester's law of inertia A is positive definite exactly when every
    pivot, U's diagonal, is positive. Raises NotSPDError otherwise, or when
    SuperLU had to pivot off the diagonal; CG's curvature test alone can
    miss an indefinite A, depending on b.
    """
    # rows gathered, transposed to CSC and columns gathered: sorted indices, no sort
    at = A.to_scipy()[order].tocsc()[:, order]
    try:
        lu = spla.splu(
            at,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports a zero pivot this way
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from None
    del at  # the permuted copy, before the pivots add L and U copies to the peak
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NotSPDError("the sparse factor pivoted off the diagonal")
    # reading U makes SciPy build CSC copies of L and U, which it caches on lu
    # for the factor's lifetime
    pivots = lu.U.diagonal()
    bad = ~(pivots > 0.0)
    if bad.any():
        raise NotSPDError(
            f"{np.count_nonzero(bad)} of {A.n} pivots of the sparse factor are not "
            f"positive (least {pivots.min():.3e})"
        )
    inverse = np.empty_like(order)
    inverse[order] = np.arange(A.n)
    return lambda r: lu.solve(r[order])[inverse]


def cg_solve(
    A: SparseSym,
    b: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    maxit: int = CG_MAXIT,
    norm_b: Optional[float] = None,
):
    """Preconditioned conjugate gradients; returns (x, CgStats).

    ``precond`` maps a residual r to M^-1 r for an SPD M; the solves pass
    the ``factorize`` of A, under which CG takes one iteration. ``norm_b``
    defaults to ||b||; a condensed system passes the norm of the rhs of the
    system it was condensed from, whose residual its own equals.

    CG stops when the true relative residual ||b - Ax|| / norm_b is at most
    tol. It computes b - Ax when the recursive residual r reaches tol, and
    goes on from it if it misses, since r drifts from b - Ax by rounding.
    Raises NotSPDError on non-positive curvature, and ConvergenceError, with
    the last iterate and its true residual, after maxit iterations, as at a
    tol below the rounding floor.
    """
    mat = A.to_scipy()
    b = np.asarray(b, dtype=float)
    if not b.any():
        return np.zeros(A.n), CgStats(0, 0.0, True, np.zeros(1))
    if norm_b is None:
        norm_b = np.linalg.norm(b)

    x = np.zeros(A.n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = r @ z
    history = [np.linalg.norm(r) / norm_b]

    for it in range(1, maxit + 1):
        Ap = mat @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise NotSPDError(f"non-positive curvature p^T A p = {pAp:.3e} at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = np.linalg.norm(r) / norm_b
        if rel <= tol:
            r = b - mat @ x
            rel = np.linalg.norm(r) / norm_b
            if rel <= tol:
                history.append(rel)
                return x, CgStats(it, rel, True, np.asarray(history))
        history.append(rel)
        z = precond(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new

    rel = np.linalg.norm(b - mat @ x) / norm_b
    raise ConvergenceError(
        f"CG did not reach tol {tol:g} in {maxit} iterations (residual {rel:.3e})",
        x=x, stats=CgStats(maxit, rel, False, np.asarray(history)),
    )


def estimate_extremes(A: SparseSym, d: np.ndarray, order: np.ndarray) -> SpectralEstimate:
    """Extreme eigenvalues and condition number of the SPD pencil
    A x = lambda diag(d) x, d > 0.

    The pencil's eigenvalues are those of S A S, S = diag(d)^-1/2, which is
    applied as x -> s (A (s x)) and never formed. ARPACK's implicitly
    restarted Lanczos (``eigsh``) on it gives lambda_max, and on its inverse
    x -> r A^-1 (r x), r = d^1/2, applied through one ``factorize`` of A in
    ``order``, 1/lambda_min; plain inverse power iteration stalls when the
    small eigenvalues cluster. Each end reports its residual bound (see
    ``SpectralEstimate``). Raises ConvergenceError when ARPACK does not
    converge within ``ARPACK_RESTARTS`` restarts.
    """
    mat, r = A.to_scipy(), np.sqrt(d)
    s = 1.0 / r
    lam_max, tol_max = _largest_eigenvalue(lambda x: s * (mat @ (s * x)), A.n, 1234, "lambda_max")
    solve = factorize(A, order)
    inv_top, tol_min = _largest_eigenvalue(lambda x: r * solve(r * x), A.n, 4321, "1/lambda_min")
    lam_min = 1.0 / inv_top
    return SpectralEstimate(lam_min, lam_max, lam_max / lam_min, tol_min=tol_min, tol_max=tol_max)


def _largest_eigenvalue(apply, n: int, seed: int, name: str):
    """Largest eigenvalue theta of the SPD operator ``apply`` from a seeded
    start vector, and ||apply(v) - theta v|| / theta for its unit Ritz
    vector v, which bounds the relative distance from theta to the nearest
    eigenvalue (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998)."""
    op = spla.LinearOperator((n, n), matvec=apply, dtype=float)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(op, k=1, which="LA", v0=v0, tol=1e-5, maxiter=ARPACK_RESTARTS)
    except spla.ArpackNoConvergence:
        raise ConvergenceError(
            f"ARPACK did not converge to {name} within ARPACK_RESTARTS = {ARPACK_RESTARTS} restarts"
        ) from None
    theta, v = float(vals[0]), vecs[:, 0]
    return theta, float(np.linalg.norm(apply(v) - theta * v) / theta)
