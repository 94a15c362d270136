import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import dense_oracle_solve
from lsfem.assembly import assemble_ls, mass_diagonal
from lsfem.bench import (
    compare_bc_modes,
    condition_study,
    convergence_study,
    get_problem,
    nearest_generated_n,
    solve_problem,
)
from lsfem.bench import studies
from lsfem.bench.studies import build_case
from lsfem import solver
from lsfem.solver import ConvergenceError, cg_solve, estimate_extremes


def test_nearest_generated_sizes():
    # canonical benchmark element counts map to the closest 2 n^2
    assert nearest_generated_n(416) == 14     # 392 elements
    assert nearest_generated_n(592) == 17     # 578
    assert nearest_generated_n(704) == 19     # 722
    assert nearest_generated_n(1664) == 29    # 1682
    assert nearest_generated_n(2816) == 38    # 2888
    assert nearest_generated_n(11264) == 75   # 11250
    assert nearest_generated_n(2) == 1


def test_convergence_study_fills_eoc():
    reports = convergence_study("smooth", 0, "weak", levels=(4, 8), epsilon=1e-3)
    assert len(reports) == 2
    assert reports[0].eoc_L2 is None
    assert reports[1].eoc_L2 == pytest.approx(
        np.log2(reports[0].e_L2 / reports[1].e_L2)
    )
    assert reports[1].h < reports[0].h


def test_convergence_study_deterministic():
    a = convergence_study("smooth", 0, "weak", levels=(4, 8), epsilon=1e-3)
    b = convergence_study("smooth", 0, "weak", levels=(4, 8), epsilon=1e-3)
    assert [r.e_L2 for r in a] == [r.e_L2 for r in b]


def test_condition_study_rows_and_ratio():
    rows = condition_study("smooth", 0, "weak", levels=(2, 4), epsilons=(1e-3,))
    assert len(rows) == 2
    assert rows[0].kappa_ratio is None
    assert rows[1].kappa_ratio == pytest.approx(
        rows[1].estimate.kappa / rows[0].estimate.kappa
    )
    assert all(r.estimate.lambda_min > 0 for r in rows)


def test_condition_two_triangle_matches_direct_eigensolve():
    mesh, topo, dm = build_case(1, 0, perturb=0.0)
    problem = get_problem("smooth", 1e-3)
    system = assemble_ls(problem, mesh, topo, dm, "weak")
    mass = mass_diagonal(mesh, dm)
    scale = sp.diags(1.0 / np.sqrt(mass))
    scaled = scale @ system.matrix.to_scipy() @ scale
    est = estimate_extremes(system.matrix, mass, system.order)
    eigs = scipy.linalg.eigvalsh(scaled.toarray())
    assert est.lambda_min == pytest.approx(eigs[0], rel=1e-12)
    assert est.lambda_max == pytest.approx(eigs[-1], rel=1e-12)
    rows = condition_study("smooth", 0, "weak", levels=(1,), epsilons=(1e-3,))
    assert rows[0].estimate.kappa == pytest.approx(est.kappa, rel=1e-12)


def test_arpack_bounds_hold_up_to_2000_dofs():
    # assembled P1 and P2 systems of up to 2000 DOFs against a dense eigensolve
    for k, n in ((0, 13), (1, 8)):
        mesh, topo, dm = build_case(n, k, perturb=0.0)
        problem = get_problem("smooth", 1e-3)
        system = assemble_ls(problem, mesh, topo, dm, "weak")
        assert dm.n_total <= 2000
        mass = mass_diagonal(mesh, dm)
        scale = sp.diags(1.0 / np.sqrt(mass))
        scaled = scale @ system.matrix.to_scipy() @ scale
        est = estimate_extremes(system.matrix, mass, system.order)
        eigs = scipy.linalg.eigvalsh(scaled.toarray())
        assert abs(est.kappa - eigs[-1] / eigs[0]) <= 0.02 * eigs[-1] / eigs[0]
        # the reported residual bounds hold at both ends
        ends = ((est.lambda_min, eigs[0], est.tol_min), (est.lambda_max, eigs[-1], est.tol_max))
        for got, ref, tol in ends:
            assert 0.0 < tol and abs(got - ref) <= tol * got, (k, got, ref, tol)


@pytest.mark.parametrize("mode", ["weak", "strong", "alt-weak"])
@pytest.mark.parametrize("k", [0, 1, 2], ids=["P1", "P2", "P3"])
def test_condition_rows_converge_through_arpack(k, mode):
    # every (n, eps) row of the condition study on small meshes: each
    # extreme within its residual bound of a dense eigensolve, or within
    # 1e-12 relative where the bound reads less than the rounding error
    for n in (1, 2, 4, 8) if k == 0 else (1, 2, 4):
        mesh, topo, dm = build_case(n, k, 0.0)
        mass = mass_diagonal(mesh, dm)
        scale = sp.diags(1.0 / np.sqrt(mass))
        for eps in (1.0, 1e-3, 1e-9):
            system = assemble_ls(get_problem("smooth", eps), mesh, topo, dm, mode)
            scaled = scale @ system.matrix.to_scipy() @ scale
            est = estimate_extremes(system.matrix, mass, system.order)
            eigs = scipy.linalg.eigvalsh(scaled.toarray())
            ends = ((est.lambda_min, eigs[0], est.tol_min), (est.lambda_max, eigs[-1], est.tol_max))
            for got, ref, tol in ends:
                assert abs(got - ref) <= max(tol, 1e-12) * ref, (n, eps, got, ref, tol)


def test_spectral_estimate_has_a_fixed_budget(monkeypatch):
    # one restart of 20 Lanczos vectors does not reach 1/lambda_min of this
    # system, which converges with the default budget (test above)
    mesh, topo, dm = build_case(13, 0, perturb=0.0)
    system = assemble_ls(get_problem("smooth", 1e-3), mesh, topo, dm, "weak")
    mass = mass_diagonal(mesh, dm)
    monkeypatch.setattr(solver, "ARPACK_RESTARTS", 1)
    with pytest.raises(ConvergenceError, match="ARPACK_RESTARTS = 1 restarts"):
        estimate_extremes(system.matrix, mass, system.order)


def test_compare_modes_boundary_layer_no_layer_regime():
    # eps = 1: no boundary layer, both modes converge comparably
    comp = compare_bc_modes("boundary-layer", 0, mesh_n=8, epsilon=1.0)
    assert comp.weak is not None and comp.strong is not None
    assert 0.1 <= comp.error_ratio <= 10.0


def test_compare_modes_interior_layer_reports_overshoot():
    comp = compare_bc_modes("interior-layer", 0, mesh_n=8, epsilon=1e-3)
    assert comp.weak is None and comp.strong is None  # no exact solution
    assert comp.error_ratio is None
    assert comp.weak_overshoot >= 0.0
    assert comp.strong_overshoot >= 0.0


def test_compare_modes_rejects_other_problems():
    with pytest.raises(ValueError):
        compare_bc_modes("smooth", 0, mesh_n=4)


@pytest.mark.parametrize(
    "study",
    [
        lambda region: convergence_study("smooth", 0, levels=(4,), region=region),
        lambda region: compare_bc_modes("boundary-layer", 0, mesh_n=8, region=region),
    ],
    ids=["convergence", "compare"],
)
def test_empty_region_fails_before_any_solve(monkeypatch, study):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the region was checked")

    monkeypatch.setattr(studies, "solve_problem", no_solve)
    with pytest.raises(ValueError, match="contains no element"):
        study((0.5, 0.51, 0.0, 1.0))


@pytest.mark.parametrize("name", ["rotating", "interior-layer"])
def test_convergence_without_exact_solution_fails_before_any_solve(monkeypatch, name):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the exact solution was checked")

    monkeypatch.setattr(studies, "solve_problem", no_solve)
    with pytest.raises(ValueError, match="no exact solution"):
        convergence_study(name, 0, levels=(4,))


@pytest.mark.parametrize("mode", ["strong", "alt-weak"])
def test_transport_rejects_other_bc_modes(mode):
    # transport has only its inflow penalty: another mode would solve the
    # weak system under the other mode's name
    mesh, topo, dm = build_case(4, 0)
    with pytest.raises(ValueError, match="transport"):
        solve_problem(get_problem("transport"), mesh, topo, dm, mode)
    with pytest.raises(ValueError, match="transport"):
        convergence_study("transport", 0, mode, levels=(4,))


def test_condition_study_rejects_transport():
    with pytest.raises(ValueError, match="needs eps > 0"):
        condition_study("transport", 0, levels=(2,), epsilons=(1e-3,))


def test_solve_problem_matches_dense_oracle_and_jacobi():
    mesh, topo, dm = build_case(4, 1)
    problem = get_problem("smooth", 1e-3)
    system = assemble_ls(problem, mesh, topo, dm, "weak")
    x, stats = solve_problem(problem, mesh, topo, dm, "weak")
    x_dense = dense_oracle_solve(system.matrix.toarray(), system.rhs)
    x_jacobi, _ = cg_solve(system.matrix, system.rhs)
    assert stats.converged
    for ref in (x_dense, x_jacobi):
        assert np.linalg.norm(x - ref) / np.linalg.norm(ref) <= 1e-9


@pytest.mark.parametrize("k", [0, 1], ids=["P1", "P2"])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_factor_preconditioned_iterations_flat_in_h_and_eps(k, n):
    mesh, topo, dm = build_case(n, k)
    for eps in (1.0, 1e-3, 1e-9):
        _, stats = solve_problem(get_problem("smooth", eps), mesh, topo, dm, "weak")
        assert stats.converged and stats.iterations <= 2, (eps, stats.iterations)


def test_repeated_iterative_estimates_identical():
    mesh, topo, dm = build_case(4, 0)
    system = assemble_ls(get_problem("smooth", 1e-3), mesh, topo, dm, "weak")
    mass = mass_diagonal(mesh, dm)
    first = estimate_extremes(system.matrix, mass, system.order)
    again = estimate_extremes(system.matrix, mass, system.order)
    assert first == again


@pytest.mark.parametrize("k", [0, 1, 2], ids=["P1", "P2", "P3"])
def test_eps_to_zero_limit_is_the_transport_solution(k):
    # the least-squares solution tends to the transport one linearly in eps:
    # the max-norm gap of the W part falls by about 100 per factor 100 in eps
    mesh, topo, dm = build_case(16, k)
    transport = get_problem("transport")
    limit, _ = solve_problem(transport, mesh, topo, dm, "weak")
    gaps = []
    for eps in (1e-6, 1e-8, 1e-10):
        x, _ = solve_problem(dataclasses.replace(transport, epsilon=eps), mesh, topo, dm, "weak")
        gaps.append(np.abs(x[dm.n_q:] - limit).max() / np.abs(limit).max())
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 50.0 <= coarse / fine <= 200.0, gaps
