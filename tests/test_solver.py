import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import dense_oracle_solve, from_dense
from lsfem.solver import (
    CG_MAXIT,
    ConvergenceError,
    NotSPDError,
    NotSymmetricError,
    SingularMatrixError,
    SparseSym,
    SpectralEstimate,
    cg_solve,
    estimate_extremes,
    factorize,
)


def random_spd(n, seed, kappa=100.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, kappa, n)
    return Q @ np.diag(eigs) @ Q.T


def plain_cg(A, b, **options):
    """CG with the identity preconditioner, plain CG, which takes many
    iterations; capped at 20 n unless ``maxit`` is given."""
    options.setdefault("maxit", 20 * A.n)
    return cg_solve(A, b, lambda r: r, **options)


def test_sparse_sym_rejects_asymmetric():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(NotSymmetricError):
        SparseSym.from_csr(A)


def test_sparse_sym_rejects_asymmetric_values_on_a_symmetric_pattern():
    # the pattern is symmetric, so the values compare position by position
    dense = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 2.0]])
    SparseSym.from_csr(sp.csr_matrix(dense))
    dense[2, 1] += 1e-9
    with pytest.raises(NotSymmetricError, match="asymmetry 1.000e-09"):
        SparseSym.from_csr(sp.csr_matrix(dense))


def test_sparse_sym_checks_an_asymmetric_pattern_by_value():
    # (0, 1) is stored and (1, 0) is not: a stored 0.0 is symmetric, 1e-3 is not
    def matrix(value):
        return sp.csr_matrix(([1.0, value, 1.0], ([0, 0, 1], [0, 1, 1])), shape=(2, 2))

    assert SparseSym.from_csr(matrix(0.0)).toarray().tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(NotSymmetricError, match="asymmetry 1.000e-03"):
        SparseSym.from_csr(matrix(1e-3))


def test_identity_converges_in_one_iteration():
    A = from_dense(np.eye(5))
    b = np.arange(1.0, 6.0)
    x, stats = plain_cg(A, b)
    assert stats.iterations <= 1
    assert np.allclose(x, b, atol=1e-14)


def test_hand_solved_2x2():
    A = from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([1.0, 2.0])
    x, _ = plain_cg(A, b, tol=1e-14)
    assert np.abs(x - [1.0 / 11.0, 7.0 / 11.0]).max() < 1e-12
    xd = dense_oracle_solve(A.toarray(), b)
    assert np.abs(x - xd).max() < 1e-12


def test_indefinite_matrix_detected():
    A = from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(NotSPDError):
        plain_cg(A, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "kappa,seed", [pytest.param(1e2, 0, id="kappa1e2"), pytest.param(1e6, 2, id="kappa1e6")]
)
def test_reported_residual_is_true_residual(kappa, seed):
    # on ill-conditioned systems the recursive residual can reach tol while
    # b - Ax is still above it
    A = from_dense(random_spd(40, seed, kappa))
    b = np.random.default_rng(seed + 7).standard_normal(40)
    x, stats = plain_cg(A, b, tol=1e-10)
    true = np.linalg.norm(b - A.to_scipy() @ x) / np.linalg.norm(b)
    assert stats.converged
    assert stats.residual == true <= 1e-10


def test_residual_relative_to_given_norm():
    # a condensed system measures its residual against the full rhs norm
    A = from_dense(random_spd(40, 5, 1e4))
    b = np.random.default_rng(12).standard_normal(40)
    norm_b = 1e3 * np.linalg.norm(b)
    x, stats = plain_cg(A, b, tol=1e-12, norm_b=norm_b)
    assert stats.residual == np.linalg.norm(b - A.to_scipy() @ x) / norm_b <= 1e-12
    assert stats.residual_history[0] == pytest.approx(1e-3, rel=1e-15)
    with pytest.raises(ConvergenceError) as err:
        plain_cg(A, b, norm_b=norm_b, maxit=0)
    assert err.value.stats.residual == pytest.approx(1e-3, rel=1e-15)


def test_zero_rhs_short_circuits():
    A = from_dense(np.eye(3))
    x, stats = plain_cg(A, np.zeros(3))
    assert stats.iterations == 0 and stats.converged
    assert np.array_equal(x, np.zeros(3))


def test_maxit_reports_best_residual():
    # the error carries the last iterate, and the stats its true residual
    A = from_dense(random_spd(40, seed=3, kappa=1e6))
    b = np.ones(40)
    with pytest.raises(ConvergenceError, match="did not reach tol 1e-14 in 3 iterations") as err:
        plain_cg(A, b, tol=1e-14, maxit=3)
    stats, x = err.value.stats, err.value.x
    assert stats.iterations == 3 and not stats.converged
    assert stats.residual == np.linalg.norm(b - A.to_scipy() @ x) / np.linalg.norm(b) > 1e-14


def test_cg_matches_dense_oracle_on_random_spd():
    A = random_spd(50, seed=11)
    b = np.cos(np.arange(50.0))
    x_cg, _ = plain_cg(from_dense(A), b, tol=1e-12)
    x_dense = dense_oracle_solve(A, b)
    assert np.linalg.norm(x_cg - x_dense) / np.linalg.norm(x_dense) <= 1e-9


def _cg_iterate(A, b, k, tol):
    # CG is deterministic, so a run capped at k iterations stops at iterate k
    try:
        return plain_cg(A, b, tol=tol, maxit=k)[0]
    except ConvergenceError as exc:
        return exc.x


def test_cg_error_monotone_in_a_norm():
    A = random_spd(50, seed=5, kappa=1e4)
    b = np.sin(np.arange(50.0))
    x_star = dense_oracle_solve(A, b)
    S = from_dense(A)
    _, stats = plain_cg(S, b, tol=1e-12)
    iterates = [_cg_iterate(S, b, k, 1e-12) for k in range(stats.iterations + 1)]
    energy = [float((xk - x_star) @ A @ (xk - x_star)) for xk in iterates]
    diffs = np.diff(energy)
    assert (diffs <= 1e-12 * energy[0]).all()


def test_dense_oracle_rejects_singular():
    with pytest.raises(SingularMatrixError):
        dense_oracle_solve(np.zeros((3, 3)), np.ones(3))


def test_dense_oracle_size_guard():
    with pytest.raises(ValueError):
        dense_oracle_solve(np.eye(2001), np.ones(2001))


def test_estimate_extremes_diagonal():
    est = estimate_extremes(from_dense(np.diag([1.0, 100.0])), np.ones(2), np.arange(2))
    assert est.kappa == pytest.approx(100.0, abs=1e-12)
    assert est.lambda_min == pytest.approx(1.0)


def test_estimate_ordering_validated():
    with pytest.raises(ValueError):
        SpectralEstimate(2.0, 1.0, 0.5, 0.0, 0.0)


def test_iterative_path_matches_dense_within_two_percent():
    # ARPACK against a dense eigensolve of the same matrix
    A = random_spd(300, seed=21, kappa=1e5)
    iterative = estimate_extremes(from_dense(A), np.ones(300), np.arange(300))
    eigs = scipy.linalg.eigvalsh(A)
    dense_kappa = eigs[-1] / eigs[0]
    assert abs(iterative.lambda_max - eigs[-1]) <= 0.02 * eigs[-1]
    assert abs(iterative.lambda_min - eigs[0]) <= 0.02 * eigs[0]
    assert abs(iterative.kappa - dense_kappa) <= 0.02 * dense_kappa


def test_pencil_extremes_with_a_graded_diagonal():
    # A = D^1/2 Q diag(lam) Q^T D^1/2, so A x = lambda D x has the eigenvalues
    # lam; d spans 1e-4 .. 1, as mass diagonals mix h^2 and O(1) entries
    n = 60
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, 100.0, n)
    d = np.geomspace(1e-4, 1.0, n)[rng.permutation(n)]
    r = np.sqrt(d)
    A = r[:, None] * (Q * lam @ Q.T) * r[None, :]
    est = estimate_extremes(from_dense(0.5 * (A + A.T)), d, np.arange(n)[::-1].copy())
    ends = ((est.lambda_min, lam[0], est.tol_min), (est.lambda_max, lam[-1], est.tol_max))
    for got, ref, tol in ends:
        assert abs(got - ref) <= max(tol, 1e-12) * ref, (got, ref, tol)


def test_deterministic_results():
    A = from_dense(random_spd(80, seed=2))
    b = np.ones(80)
    x1, _ = plain_cg(A, b)
    x2, _ = plain_cg(A, b)
    assert np.array_equal(x1, x2)
    e1 = estimate_extremes(A, np.ones(80), np.arange(80))
    e2 = estimate_extremes(A, np.ones(80), np.arange(80))
    assert e1.kappa == e2.kappa


def test_factorize_inverts_spd():
    A = random_spd(60, seed=4, kappa=1e6)
    b = np.sin(np.arange(60.0))
    x = factorize(from_dense(A), np.arange(60))(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_factorize_rejects_singular():
    with pytest.raises(SingularMatrixError):
        factorize(from_dense(np.array([[1.0, 1.0], [1.0, 1.0]])), np.arange(2))


def test_indefinite_matrix_detected_under_factor():
    A = from_dense(np.diag([1.0, -1.0]))
    b = np.array([1.0, 1.0])
    with pytest.raises(NotSPDError):
        cg_solve(A, b, precond=factorize(A, np.arange(2)))
    # an SPD preconditioner does not hide the curvature of A either
    with pytest.raises(NotSPDError):
        cg_solve(A, b, precond=factorize(from_dense(np.eye(2)), np.arange(2)))


def test_indefinite_matrix_detected_by_factor_whatever_b():
    # with b = (2, 1), CG preconditioned by A^-1 meets p^T A p = 3 > 0 and
    # converges in one step; only the factor's negative pivot shows A indefinite
    A = from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(NotSPDError, match="pivots"):
        cg_solve(A, np.array([2.0, 1.0]), precond=factorize(A, np.arange(2)))
    # a zero diagonal forces a row exchange, a pivot off the diagonal
    with pytest.raises(NotSPDError, match="off the diagonal"):
        factorize(from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])), np.arange(2))


def test_factor_checks_hold_in_any_order():
    # the inertia of P A P^T is A's, so a pre-order changes no verdict
    reverse = np.array([1, 0])
    with pytest.raises(SingularMatrixError):
        factorize(from_dense(np.array([[1.0, 1.0], [1.0, 1.0]])), reverse)
    with pytest.raises(NotSPDError, match="pivots"):
        factorize(from_dense(np.diag([1.0, -1.0])), reverse)
    with pytest.raises(NotSPDError, match="off the diagonal"):
        factorize(from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])), reverse)
    A = random_spd(60, seed=4, kappa=1e6)
    b = np.sin(np.arange(60.0))
    x = factorize(from_dense(A), np.arange(60)[::-1].copy())(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10


def test_factor_preconditioned_cg_matches_plain_cg():
    S = from_dense(random_spd(50, seed=11, kappa=1e4))
    b = np.cos(np.arange(50.0))
    x_p, stats_p = plain_cg(S, b, tol=1e-12)
    x_f, stats_f = cg_solve(S, b, factorize(S, np.arange(S.n)), tol=1e-12)
    assert stats_f.converged and stats_f.iterations == 1 < stats_p.iterations
    assert np.linalg.norm(x_f - x_p) / np.linalg.norm(x_p) <= 1e-9


@pytest.mark.parametrize("factor", [False, True], ids=["plain", "factor"])
def test_stagnation_below_rounding_floor_is_bounded(factor):
    # no iterate of b - Ax in double precision reaches 1e-20: CG goes on from
    # b - Ax each time its recursive residual does, until the cap
    A, b = from_dense(random_spd(40, seed=3, kappa=1e6)), np.ones(40)
    with pytest.raises(ConvergenceError, match="did not reach tol") as err:
        if factor:
            cg_solve(A, b, factorize(A, np.arange(A.n)), tol=1e-20)
        else:
            plain_cg(A, b, tol=1e-20)
    stats, x = err.value.stats, err.value.x
    assert not stats.converged
    assert stats.iterations == (CG_MAXIT if factor else 20 * A.n)
    # the error carries the last iterate, and its residual is the reported one
    true = np.linalg.norm(b - A.to_scipy() @ x) / np.linalg.norm(b)
    assert stats.residual == true <= 1e-9


def test_repeated_factor_solves_identical():
    S = from_dense(random_spd(80, seed=2))
    b = np.ones(80)
    x1, _ = cg_solve(S, b, precond=factorize(S, np.arange(S.n)))
    x2, _ = cg_solve(S, b, precond=factorize(S, np.arange(S.n)))
    assert np.array_equal(x1, x2)
