"""The skeleton solve: element interiors condensed out, the edge and vertex
DOFs factored, the interiors recovered element by element. Every check is
against the full system that ``assemble_ls`` builds."""
import dataclasses
import functools
import re

import numpy as np
import pytest

from conftest import dense_oracle_solve
from lsfem import assembly, solver
from lsfem.assembly import LinearSystem, assemble_ls
from lsfem.bench import get_problem, solve_problem, studies
from lsfem.bench.studies import build_case
from lsfem.solver import ConvergenceError, NotSPDError

MODES = ("weak", "alt-weak", "strong")
TOL = 1e-10


def full_residual(system, x):
    b = system.rhs
    return np.linalg.norm(b - system.matrix.to_scipy() @ x) / np.linalg.norm(b)


def case(kind, k):
    """(problem, mesh, topo, dofmap, bc mode) of one small system."""
    if kind == "slit":
        return (get_problem("rotating", 1e-3), *build_case(4, k, perturb=0.0), "weak")
    if kind == "transport":
        return (get_problem("transport"), *build_case(4, k), "weak")
    # nonzero boundary data, so that strong mode moves values into the rhs
    return (get_problem("boundary-layer", 1e-3), *build_case(3, k), kind)


CASES = [pytest.param(kind, k, id=f"{kind}-P{k + 1}")
         for kind in (*MODES, "slit", "transport") for k in (0, 1, 2, 3)]


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
    full = assemble_ls(problem, mesh, topo, dm, mode)
    A, b = full.matrix.toarray(), full.rhs
    # the full system is the one with no interiors
    assert full.on_skeleton.all() and full.interior.size == 0
    assert full.norm_b == np.linalg.norm(b)
    skel = assemble_ls(problem, mesh, topo, dm, mode, condense=True)
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
    assert np.array_equal(full.expand(x), x)


@pytest.mark.parametrize("k", [0, 1], ids=["P1", "P2"])
def test_transport_without_bubbles_is_the_full_system(k):
    # no interior DOFs: the condensation is the identity, bit for bit
    problem, mesh, topo, dm, _ = case("transport", k)
    full = assemble_ls(problem, mesh, topo, dm)
    skel = assemble_ls(problem, mesh, topo, dm, condense=True)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(skel.matrix, name), getattr(full.matrix, name))
    assert np.array_equal(skel.rhs, full.rhs)


@pytest.mark.parametrize("kind,k", CASES)
def test_reported_residual_is_the_full_systems(kind, k, monkeypatch):
    problem, mesh, topo, dm, mode = case(kind, k)
    full = assemble_ls(problem, mesh, topo, dm, mode)
    x, stats = solve_problem(problem, mesh, topo, dm, mode, tol=TOL)
    assert stats.converged and stats.residual <= TOL
    assert full_residual(full, x) <= TOL
    # with no iteration the skeleton residual is g, far above rounding: it
    # must be the full residual of the full-length iterate, relative to ||b||
    monkeypatch.setattr(studies, "cg_solve", functools.partial(solver.cg_solve, maxit=0))
    with pytest.raises(ConvergenceError) as info:
        solve_problem(problem, mesh, topo, dm, mode, tol=TOL)
    err = info.value
    assert len(err.x) == full.matrix.n  # dm.n_total, or n_w for transport
    assert err.stats.residual == pytest.approx(full_residual(full, err.x), rel=1e-9)


def test_convergence_error_names_the_system(monkeypatch):
    problem, mesh, topo, dm, mode = case("strong", 1)
    n_skel = assemble_ls(problem, mesh, topo, dm, mode, condense=True).matrix.n
    monkeypatch.setattr(studies, "cg_solve", functools.partial(solver.cg_solve, maxit=0))
    with pytest.raises(ConvergenceError) as info:
        solve_problem(problem, mesh, topo, dm, mode)
    message = str(info.value)
    assert "eps=0.001" in message and "strong" in message
    assert f"{dm.n_total} DOFs" in message and f"{n_skel} on the skeleton" in message
    assert message.endswith("preconditioner: sparse factor of the skeleton matrix]")
    # the skeleton columns of the index tables hold the leading indices of each block
    q_skel = np.unique(dm.q_index[:, :dm.nloc_q_skel])
    w_skel = np.unique(dm.w_index[:, :dm.nloc_w_skel])
    assert np.array_equal(q_skel, np.arange(len(q_skel)))
    assert np.array_equal(w_skel, np.arange(len(w_skel)))
    assert n_skel == len(q_skel) + len(w_skel) < dm.n_total


def test_convergence_error_below_the_rounding_floor_names_the_true_residual():
    # no iterate reaches 1e-300; the one residual the message names is the
    # true one of the iterate the error carries, not a recursive one
    problem = get_problem("smooth", 1e-3)
    mesh, topo, dm = build_case(8, 0)
    full = assemble_ls(problem, mesh, topo, dm)
    with pytest.raises(ConvergenceError) as info:
        solve_problem(problem, mesh, topo, dm, tol=1e-300)
    err = info.value
    named = re.findall(r"\d\.\d{3}e[-+]\d+", str(err))
    assert named == [f"{err.stats.residual:.3e}"]
    assert err.stats.residual == pytest.approx(full_residual(full, err.x), rel=1e-9)


def test_factor_preconditioned_solve_has_a_fixed_budget(monkeypatch):
    # without the factor CG would need far more than the budget, which does
    # not grow with n
    monkeypatch.setattr(studies, "factorize", lambda A, order: lambda r: r)
    problem = get_problem("smooth", 1e-3)
    with pytest.raises(ConvergenceError, match="did not reach tol") as info:
        solve_problem(problem, *build_case(8, 0))
    assert info.value.stats.iterations == solver.CG_MAXIT


def test_negative_epsilon_rejected():
    mesh, topo, dm = build_case(2, 0)
    problem = dataclasses.replace(get_problem("smooth", 1e-3), epsilon=-1e-3)
    with pytest.raises(ValueError, match="epsilon"):
        solve_problem(problem, mesh, topo, dm)


def random_local_systems(ni, nb, seed, t=40):
    """t random SPD local matrices of size ni + nb, with the ni interior
    positions spread among the nb retained ones, and their local vectors."""
    rng = np.random.default_rng(seed)
    n = ni + nb
    m = rng.standard_normal((t, n, n))
    a = m @ m.swapaxes(1, 2) + n * np.eye(n)
    drop = np.sort(rng.permutation(n)[:ni])
    return a, rng.standard_normal((t, n)), np.setdiff1d(np.arange(n), drop), drop


# the interior and retained local sizes of P1, P2 and P3 ([Q | W])
LOCAL_SIZES = [pytest.param(2, 9, id="P1"), pytest.param(6, 15, id="P2"),
               pytest.param(13, 21, id="P3")]


@pytest.mark.parametrize("ni,nb", LOCAL_SIZES)
def test_condense_and_expand_match_dense_reference(ni, nb):
    a, b, keep, drop = random_local_systems(ni, nb, seed=ni)
    s, g, (chol, coupling, interior_rhs) = assembly._condense(a, b, keep, drop)
    a_ii, a_ib = a[:, drop[:, None], drop], a[:, drop[:, None], keep]
    ref_chol = np.linalg.cholesky(a_ii)
    ref_s = a[:, keep[:, None], keep] - a_ib.swapaxes(1, 2) @ np.linalg.solve(a_ii, a_ib)
    ref_g = b[:, keep] - (a_ib.swapaxes(1, 2) @ np.linalg.solve(a_ii, b[:, drop, None]))[..., 0]

    def close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    close(chol, ref_chol)
    close(coupling, np.linalg.solve(ref_chol, a_ib))
    close(interior_rhs, np.linalg.solve(ref_chol, b[:, drop, None])[..., 0])
    close(s, ref_s)
    assert np.array_equal(s, s.swapaxes(1, 2))
    close(g, ref_g)

    # every element its own DOFs, numbered element by element
    t, n = b.shape
    full = np.arange(t * n).reshape(t, n)
    on_skeleton = np.zeros(t * n, dtype=bool)
    on_skeleton[full[:, keep]] = True
    system = LinearSystem(
        matrix=None, rhs=None, norm_b=1.0, on_skeleton=on_skeleton,
        skeleton=np.arange(t * nb).reshape(t, nb), interior=full[:, drop], chol=chol,
        coupling=coupling, interior_rhs=interior_rhs, order=None)
    x = np.random.default_rng(ni + 1).standard_normal(t * nb)
    expanded = system.expand(x)
    x_b = x.reshape(t, nb)
    ref_i = np.linalg.solve(a_ii, b[:, drop, None] - a_ib @ x_b[..., None])[..., 0]
    assert np.array_equal(expanded[full[:, keep]], x_b)
    close(expanded[full[:, drop]], ref_i)


@pytest.mark.parametrize("ni,nb", LOCAL_SIZES)
def test_condense_rejects_an_indefinite_interior_block(ni, nb):
    a, b, keep, drop = random_local_systems(ni, nb, seed=ni)
    # one element's last interior pivot turns negative; the others stay SPD
    a[7, drop[-1], drop[-1]] -= 1e3 * np.abs(a).max()
    with pytest.raises(NotSPDError, match="element-interior block"):
        assembly._condense(a, b, keep, drop)
