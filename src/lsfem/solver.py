"""Sparse symmetric linear algebra: CSR storage with symmetry validation,
preconditioned conjugate gradients, and extreme-eigenvalue estimation
(dense below a size cutoff, Lanczos plus inverse iteration above it).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DENSE_CUTOFF = 2000
SYMMETRY_RTOL = 1e-12


class SolverError(RuntimeError):
    """Numerical failure in the sparse solver layer."""


class NotSymmetricError(SolverError):
    pass


class NotSPDError(SolverError):
    """CG met a direction of non-positive curvature."""


class ConvergenceError(SolverError):
    """Iteration budget exhausted; carries the best iterate and stats."""

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
        mat = mat.tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        scale = np.abs(mat.data).max() if mat.nnz else 1.0
        gap = abs(mat - mat.T)
        if gap.nnz and gap.data.max() > SYMMETRY_RTOL * scale:
            raise NotSymmetricError(
                f"matrix asymmetry {gap.data.max():.3e} exceeds {SYMMETRY_RTOL:g} * {scale:.3e}"
            )
        return cls(mat.shape[0], mat.indptr, mat.indices, mat.data)

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SparseSym":
        return cls.from_csr(sp.csr_matrix(np.asarray(arr, dtype=float)))

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
    lambda_min: float
    lambda_max: float
    kappa: float
    method: str                # "dense" or "iterative"
    tol_min: float = 0.0       # relative tolerances achieved
    tol_max: float = 0.0

    def __post_init__(self):
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")


def cg_solve(
    A: SparseSym,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: Optional[int] = None,
):
    """Jacobi-preconditioned conjugate gradients; returns (x, CgStats).
    Converged means the true relative residual ||b - Ax|| / ||b|| is at most
    tol.

    Raises NotSPDError on non-positive curvature and ConvergenceError
    (with the last iterate attached) if maxit is exhausted.
    """
    mat = A.to_scipy()
    n = A.n
    b = np.asarray(b, dtype=float)
    if maxit is None:
        maxit = 20 * n
    d = mat.diagonal()
    if (d == 0).any():
        raise SolverError("zero diagonal entry; jacobi preconditioner unavailable")
    inv_d = 1.0 / d

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n), CgStats(0, 0.0, True, np.zeros(1))

    x = np.zeros(n)
    r = b.copy()
    z = inv_d * r
    p = z.copy()
    rz = r @ z
    history = [1.0]

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
            # the recursive r drifts from b - Ax by rounding; go on from the true one
            r = b - mat @ x
            rel = np.linalg.norm(r) / norm_b
        history.append(rel)
        if rel <= tol:
            return x, CgStats(it, rel, True, np.asarray(history))
        z = inv_d * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new

    rel = np.linalg.norm(b - mat @ x) / norm_b
    stats = CgStats(maxit, rel, False, np.asarray(history))
    raise ConvergenceError(
        f"CG did not reach tol {tol:g} in {maxit} iterations (residual {rel:.3e})",
        x=x,
        stats=stats,
    )


def dense_oracle_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct factorization solve used to cross-check CG on small systems."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] > DENSE_CUTOFF:
        raise ValueError(f"dense oracle limited to n <= {DENSE_CUTOFF}")
    try:
        x = np.linalg.solve(A, np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from None
    if not np.isfinite(x).all():
        raise SingularMatrixError("factorization produced non-finite entries")
    return x


def estimate_extremes(A: SparseSym, dense_cutoff: int = DENSE_CUTOFF) -> SpectralEstimate:
    """Extreme eigenvalues and condition number of an SPD matrix.

    Below the cutoff: dense symmetric eigensolve. Above it: Lanczos for the
    largest eigenvalue, and Krylov-accelerated inverse iteration (Lanczos on
    the inverse, applied through CG solves at 1e-8) for the smallest; plain
    inverse power iteration stalls when the small eigenvalues cluster.
    """
    if A.n <= dense_cutoff:
        eigs = scipy.linalg.eigvalsh(A.toarray())
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        return SpectralEstimate(lam_min, lam_max, lam_max / lam_min, "dense")
    mat = A.to_scipy()
    lam_max, tol_max = _lanczos_extreme(lambda v: mat @ v, A.n, seed=1234)
    inv_top, tol_min = _lanczos_extreme(
        lambda v: cg_solve(A, v, tol=1e-8)[0], A.n, seed=4321
    )
    lam_min = 1.0 / inv_top
    return SpectralEstimate(
        lam_min, lam_max, lam_max / lam_min, "iterative", tol_min=tol_min, tol_max=tol_max
    )


def _lanczos_extreme(matvec, n: int, seed: int, maxit: int = 200, rtol: float = 1e-5):
    """Largest eigenvalue of an SPD operator by Lanczos with full
    reorthogonalization and a deterministic start vector."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    maxit = min(maxit, n)
    Q = np.empty((maxit + 1, n))
    Q[0] = q
    alpha = np.zeros(maxit)
    beta = np.zeros(maxit)
    theta = None
    for k in range(maxit):
        w = matvec(Q[k])
        alpha[k] = Q[k] @ w
        w -= alpha[k] * Q[k]
        if k > 0:
            w -= beta[k - 1] * Q[k - 1]
        w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
        w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        theta_old = theta
        vals, vecs = scipy.linalg.eigh_tridiagonal(alpha[: k + 1], beta[:k])
        theta = vals[-1]
        resid = beta[k] * abs(vecs[-1, -1])
        if beta[k] <= 1e-14 * max(abs(theta), 1.0):
            return float(theta), 0.0  # exact invariant subspace
        if theta_old is not None and resid <= rtol * abs(theta):
            change = abs(theta - theta_old) / abs(theta)
            if change <= rtol:
                return float(theta), float(max(resid / abs(theta), change))
        Q[k + 1] = w / beta[k]
    raise ConvergenceError(
        f"Lanczos did not converge in {maxit} iterations (last estimate {theta:.6e})"
    )
