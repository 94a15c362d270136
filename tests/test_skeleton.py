"""The skeleton solve: element interiors condensed out, the edge and vertex
DOFs factored, the interiors recovered element by element. Every check is
against the full system that ``assemble_ls`` and ``assemble_transport``
build."""
import dataclasses

import numpy as np
import pytest

from conftest import make_case
from lsfem.assembly import assemble_ls, assemble_transport
from lsfem.bench import get_problem, solve_problem
from lsfem.bench.studies import build_case
from lsfem.solver import ConvergenceError, dense_oracle_solve

SLIT = ((0.5, 0.0), (0.5, 0.5))
MODES = ("weak", "alt-weak", "strong")
TOL = 1e-10


def full_system(problem, mesh, topo, dm, mode, condense=False):
    if problem.epsilon == 0.0:
        return assemble_transport(problem, mesh, topo, dm, condense)
    return assemble_ls(problem, mesh, topo, dm, mode, condense)


def full_residual(system, x):
    b = system.rhs
    return np.linalg.norm(b - system.matrix.to_scipy() @ x) / np.linalg.norm(b)


def case(kind, k):
    """(problem, mesh, topo, dofmap, bc mode) of one small system."""
    if kind == "slit":
        return (get_problem("rotating", 1e-3), *make_case(4, k, slit=SLIT), "weak")
    if kind == "transport":
        return (get_problem("transport"), *build_case(4, k), "weak")
    # nonzero boundary data, so that strong mode moves values into the rhs
    return (get_problem("boundary-layer", 1e-3), *build_case(3, k), kind)


CASES = [pytest.param(kind, k, id=f"{kind}-P{k + 1}")
         for kind in (*MODES, "slit", "transport") for k in (0, 1, 2)]


@pytest.mark.parametrize("k", [1, 2], ids=["P2", "P3"])
@pytest.mark.parametrize("mode", MODES)
def test_pattern_structural_across_eps(mode, k):
    # entries whose terms cancel to 0.0 at one eps stay in the pattern
    mesh, topo, dm = build_case(4, k)
    for assemble in (lambda p: assemble_ls(p, mesh, topo, dm, mode).matrix,
                     lambda p: assemble_ls(p, mesh, topo, dm, mode, condense=True).matrix):
        first, *rest = [assemble(get_problem("smooth", eps)) for eps in (1.0, 1e-3, 1e-9)]
        for other in rest:
            assert np.array_equal(other.indptr, first.indptr)
            assert np.array_equal(other.indices, first.indices)


@pytest.mark.parametrize("kind,k", CASES)
def test_skeleton_is_schur_complement_and_solve_matches_oracle(kind, k):
    problem, mesh, topo, dm, mode = case(kind, k)
    full = full_system(problem, mesh, topo, dm, mode)
    A, b = full.matrix.toarray(), full.rhs
    skel = full_system(problem, mesh, topo, dm, mode, condense=True)
    s, i = skel.on_skeleton, ~skel.on_skeleton
    schur = A[np.ix_(s, s)] - A[np.ix_(s, i)] @ np.linalg.solve(A[np.ix_(i, i)], A[np.ix_(i, s)])
    g = b[s] - A[np.ix_(s, i)] @ np.linalg.solve(A[np.ix_(i, i)], b[i])
    assert np.abs(skel.matrix.toarray() - schur).max() <= 1e-10 * np.abs(schur).max()
    assert np.abs(skel.rhs - g).max() <= 1e-10 * np.abs(g).max()
    assert skel.norm_b == pytest.approx(np.linalg.norm(b), rel=1e-14)

    x, stats = solve_problem(problem, mesh, topo, dm, mode, tol=TOL)
    ref = dense_oracle_solve(A, b)
    assert stats.converged
    assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("k", [0, 1], ids=["P1", "P2"])
def test_transport_without_bubbles_is_the_full_system(k):
    # no interior DOFs: the condensation is the identity, bit for bit
    problem, mesh, topo, dm, _ = case("transport", k)
    full = assemble_transport(problem, mesh, topo, dm)
    skel = assemble_transport(problem, mesh, topo, dm, condense=True)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(skel.matrix, name), getattr(full.matrix, name))
    assert np.array_equal(skel.rhs, full.rhs)


@pytest.mark.parametrize("kind,k", CASES)
def test_reported_residual_is_the_full_systems(kind, k):
    problem, mesh, topo, dm, mode = case(kind, k)
    full = full_system(problem, mesh, topo, dm, mode)
    x, stats = solve_problem(problem, mesh, topo, dm, mode, tol=TOL)
    assert stats.converged and stats.residual <= TOL
    assert full_residual(full, x) <= TOL
    # with no iteration the skeleton residual is g, far above rounding: it
    # must be the full residual of the full-length iterate, relative to ||b||
    with pytest.raises(ConvergenceError) as info:
        solve_problem(problem, mesh, topo, dm, mode, tol=TOL, maxit=0)
    err = info.value
    assert len(err.x) == full.matrix.n  # dm.n_total, or n_w for transport
    assert err.stats.residual == pytest.approx(full_residual(full, err.x), rel=1e-9)


def test_convergence_error_names_the_system():
    problem, mesh, topo, dm, mode = case("strong", 1)
    n_skel = assemble_ls(problem, mesh, topo, dm, mode, condense=True).matrix.n
    with pytest.raises(ConvergenceError) as info:
        solve_problem(problem, mesh, topo, dm, mode, maxit=0)
    message = str(info.value)
    assert "eps=0.001" in message and "strong" in message
    assert f"{dm.n_total} DOFs" in message and f"{n_skel} on the skeleton" in message
    assert n_skel == dm.n_q_skel + dm.n_w_skel < dm.n_total


def test_negative_epsilon_rejected():
    mesh, topo, dm = build_case(2, 0)
    problem = dataclasses.replace(get_problem("smooth", 1e-3), epsilon=-1e-3)
    with pytest.raises(ValueError, match="epsilon"):
        solve_problem(problem, mesh, topo, dm)
