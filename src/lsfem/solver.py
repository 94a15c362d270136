"""Sparse symmetric linear algebra: CSR storage with symmetry validation,
a sparse factorization, preconditioned conjugate gradients, and
extreme-eigenvalue estimation (dense below a size cutoff, Lanczos plus
inverse iteration through one factor above it).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CUTOFF = 2000
SYMMETRY_RTOL = 1e-12
# stagnation: true-residual checks that fail in a row before CG gives up, the
# iterations without progress after which CG checks, and the growth of b - Ax
# over its least value that fails a check
STALL_CHECKS = 2
STALL_ITERS = 10
STALL_GROWTH = 100.0


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


def factorize(A: SparseSym) -> Callable[[np.ndarray], np.ndarray]:
    """Sparse factor of A; returns the map r -> A^-1 r.

    SuperLU with a minimum-degree ordering of A^T + A, symmetric mode and no
    pivoting, which on an SPD matrix is a Cholesky-like LU whose fill does
    not depend on the values. The CSR arrays are read as CSC, that is as
    A^T, which equals A to the symmetry tolerance of ``SparseSym``; this
    avoids a converted copy. Raises SingularMatrixError on an exactly
    singular factor.
    """
    at = sp.csc_matrix((A.data, A.indices, A.indptr), shape=(A.n, A.n))
    try:
        lu = spla.splu(
            at,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports a zero pivot this way
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from None
    return lu.solve


def cg_solve(
    A: SparseSym,
    b: np.ndarray,
    tol: float = 1e-10,
    maxit: Optional[int] = None,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    norm_b: Optional[float] = None,
):
    """Preconditioned conjugate gradients; returns (x, CgStats).

    ``precond`` maps a residual r to M^-1 r for an SPD M, such as the
    ``factorize`` of A; without it CG uses the Jacobi preconditioner
    diag(A)^-1, the reference path. Converged means the true relative
    residual ||b - Ax|| / norm_b is at most tol. ``norm_b`` defaults to
    ||b||; a condensed system passes the norm of the rhs of the system it
    was condensed from, whose residual its own equals.

    CG checks its recursive residual r against the true one b - Ax when r
    reaches tol, when r halves its least value so far, and when STALL_ITERS
    iterations pass without either. A check fails when it does not halve
    the least true residual and either shows b - Ax more than STALL_GROWTH
    times that least value, or shows r to be rounding noise (off b - Ax by
    more than half its norm); CG then goes on from b - Ax, as it does after
    a check at tol. Checks pass on a slow stretch, where r and b - Ax agree.

    Raises NotSPDError on non-positive curvature, and ConvergenceError if
    maxit is exhausted (with the last iterate) or on stagnation at the
    rounding floor, after STALL_CHECKS failed checks in a row (with the
    iterate of the least true residual, and that residual in its stats).
    """
    mat = A.to_scipy()
    n = A.n
    b = np.asarray(b, dtype=float)
    if maxit is None:
        maxit = 20 * n
    if precond is None:
        d = mat.diagonal()
        if (d == 0).any():
            raise SolverError("zero diagonal entry; jacobi preconditioner unavailable")
        inv_d = 1.0 / d

        def precond(r):
            return inv_d * r

    if not b.any():
        return np.zeros(n), CgStats(0, 0.0, True, np.zeros(1))
    if norm_b is None:
        norm_b = np.linalg.norm(b)

    x = np.zeros(n)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = r @ z
    rel = np.linalg.norm(r) / norm_b
    history = [rel]
    best_x, best_rel = x.copy(), rel  # least true residual checked, and its iterate
    mark_rel, mark_it = rel, 0  # r at its last halving, and the last check
    failed = 0

    for it in range(1, maxit + 1):
        Ap = mat @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise NotSPDError(f"non-positive curvature p^T A p = {pAp:.3e} at iteration {it}")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rel = np.linalg.norm(r) / norm_b
        halved = rel <= 0.5 * mark_rel
        if halved:
            mark_rel = rel
        if rel <= tol or halved or it - mark_it >= STALL_ITERS:
            mark_it = it
            true_r = b - mat @ x
            true_rel = np.linalg.norm(true_r) / norm_b
            if true_rel <= tol:
                history.append(true_rel)
                return x, CgStats(it, true_rel, True, np.asarray(history))
            noisy = not np.linalg.norm(true_r - r) <= 0.5 * np.linalg.norm(true_r)
            if true_rel <= 0.5 * best_rel:
                failed = 0
            elif noisy or true_rel > STALL_GROWTH * best_rel:
                failed += 1
            if true_rel < best_rel:
                best_rel = true_rel
                np.copyto(best_x, x)
            if failed >= STALL_CHECKS:
                history.append(true_rel)
                raise ConvergenceError(
                    f"CG stagnated at the rounding floor after {it} iterations: "
                    f"least true residual {best_rel:.3e} above tol {tol:g}",
                    x=best_x,
                    stats=CgStats(it, best_rel, False, np.asarray(history)),
                )
            if rel <= tol or noisy:
                # the recursive r drifted from b - Ax by rounding; go on from the true one
                r, rel = true_r, true_rel
        history.append(rel)
        z = precond(r)
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
    the inverse, applied through one ``factorize`` of A) for the smallest;
    plain inverse power iteration stalls when the small eigenvalues cluster.
    """
    if A.n <= dense_cutoff:
        eigs = scipy.linalg.eigvalsh(A.toarray())
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        return SpectralEstimate(lam_min, lam_max, lam_max / lam_min, "dense")
    mat = A.to_scipy()
    lam_max, tol_max = _lanczos_extreme(lambda v: mat @ v, A.n, seed=1234)
    inv_top, tol_min = _lanczos_extreme(factorize(A), A.n, seed=4321)
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
