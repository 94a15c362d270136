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
# stagnation: true-residual checks that fail in a row before CG gives up, the
# iterations without progress after which CG checks, and the growth of b - Ax
# over its least value that fails a check
STALL_CHECKS = 2
STALL_ITERS = 10
STALL_GROWTH = 100.0
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
        """``mat`` in canonical CSR form, once its largest entry of |A - A^T|
        is found at most SYMMETRY_RTOL times its largest |entry|. When the
        stored pattern is symmetric, the CSC arrays of A are the CSR arrays
        of A^T on that pattern, so the entries compare position by position;
        otherwise A - A^T is formed."""
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
        return cls(mat.shape[0], mat.indptr, mat.indices, mat.data)

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
