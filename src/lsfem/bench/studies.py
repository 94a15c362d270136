"""Convergence-order and conditioning studies plus weak/strong comparisons.

Each level of a study is a crisscross mesh generated with deterministic
jitter, one independent draw per level (``build_case``), emulating
unstructured quasi-uniform families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import fem
from ..assembly import ProblemSpec, assemble_ls, assemble_transport, mass_diagonal
from ..mesh import Mesh, build_topology, generate_structured
from ..solver import (
    ConvergenceError,
    SpectralEstimate,
    cg_solve,
    estimate_extremes,
    factorize,
)
from .errors import ErrorReport, error_norms, nonempty_region
from .problems import get_problem

DEFAULT_PERTURB = 0.15
# CG iterations a factor-preconditioned solve may take when no maxit is given.
# It converges in one or two, whatever n; the cap sits above 3 * STALL_ITERS,
# so a stagnating run meets its failed checks, at most STALL_ITERS apart,
# before the cap
FACTOR_CG_MAXIT = 50


def nearest_generated_n(elements: int) -> int:
    """Cells-per-side n whose crisscross mesh size 2 n^2 is closest."""
    n = max(1, round(math.sqrt(elements / 2.0)))
    return min((abs(2 * m * m - elements), m) for m in range(max(1, n - 2), n + 3))[1]


@dataclass
class ConditionRow:
    level: int
    n: int
    epsilon: float
    n_dofs: int
    h: float
    estimate: SpectralEstimate
    kappa_ratio: Optional[float] = None  # vs previous level at the same epsilon


@dataclass
class ModeComparison:
    problem: str
    epsilon: float
    k: int
    mesh_n: int
    n_elements: int
    weak: Optional[ErrorReport]
    strong: Optional[ErrorReport]
    error_ratio: Optional[float]         # weak / strong subdomain L2
    weak_overshoot: float
    strong_overshoot: float
    notes: tuple = ()


def build_case(n: int, k: int, perturb: float = DEFAULT_PERTURB, slit=None):
    """Mesh, topology, and DOF map for one study cell or one level of a
    refinement study.

    Each level is generated directly; the coordinate-hashed jitter keeps
    lattice points shared between levels displaced consistently. Refining a
    jittered coarse mesh instead would freeze its coarse-scale distortion
    into every finer level, which visibly pollutes the L2 rate in the
    vanishing-diffusion regime.
    """
    mesh = generate_structured(n, perturb)
    topo = build_topology(mesh, slit=slit)
    dofmap = fem.build_dofmap(mesh, topo, k)
    return mesh, topo, dofmap


def solve_problem(
    problem: ProblemSpec,
    mesh: Mesh,
    topo,
    dofmap,
    bc_mode: str = "weak",
    tol: float = 1e-10,
    maxit: Optional[int] = None,
):
    """Condense the element interiors, factor the skeleton system in its
    nested-dissection order and solve it by CG preconditioned with the
    factor, which converges in one or two iterations whatever h and eps, so
    ``maxit`` defaults to FACTOR_CG_MAXIT; returns (full coefficient vector,
    CgStats).

    The stats' residual is the full system's ||b - Ax|| / ||b||. A
    ConvergenceError carries the full-length iterate, and its message names
    the system, the preconditioner and the last residuals CG recorded.
    Transport (eps == 0) has only its inflow penalty: another mode raises.
    """
    if problem.epsilon == 0.0:
        if bc_mode != "weak":
            raise ValueError(f"transport (eps == 0) takes bc mode 'weak' only, got {bc_mode!r}")
        skel = assemble_transport(problem, mesh, topo, dofmap, condense=True)
    else:
        skel = assemble_ls(problem, mesh, topo, dofmap, bc_mode, condense=True)
    matrix = skel.matrix
    if maxit is None:
        maxit = FACTOR_CG_MAXIT
    try:
        x, stats = cg_solve(matrix, skel.rhs, tol=tol, maxit=maxit,
                            precond=factorize(matrix, skel.order), norm_b=skel.norm_b)
    except ConvergenceError as err:
        mode = "transport" if problem.epsilon == 0.0 else bc_mode
        last = ", ".join(f"{r:.3e}" for r in err.stats.residual_history[-3:])
        raise ConvergenceError(
            f"{err} [eps={problem.epsilon:g}, {mode}, {skel.n_total} DOFs, "
            f"{matrix.n} on the skeleton; preconditioner: sparse factor of the "
            f"skeleton matrix; last residuals: {last}]",
            x=skel.expand(err.x),
            stats=err.stats,
        ) from err
    return skel.expand(x), stats


def convergence_study(
    problem_name: str,
    k: int,
    bc_mode: str = "weak",
    levels: Sequence[int] = (8, 16, 32),
    epsilon: Optional[float] = None,
    perturb: float = DEFAULT_PERTURB,
    region=None,
    tol: float = 1e-10,
) -> list[ErrorReport]:
    """Solve on each level and report norms with last-over-previous EOC."""
    problem = get_problem(problem_name, epsilon)
    if problem.exact_u is None:  # fail before the solves, not after the first
        raise ValueError(f"problem {problem_name!r} has no exact solution")
    reports = []
    for level, n in enumerate(levels):
        mesh, topo, dofmap = build_case(n, k, perturb)
        nonempty_region(mesh, region)  # fail before the solve, not after it
        solution, _ = solve_problem(problem, mesh, topo, dofmap, bc_mode, tol=tol)
        report = error_norms(solution, mesh, topo, dofmap, problem, region=region, level=level)
        if reports:
            _fill_eoc(report, reports[-1])
        reports.append(report)
    return reports


def condition_study(
    problem_name: str,
    k: int,
    bc_mode: str = "weak",
    levels: Sequence[int] = (4, 8),
    epsilons: Sequence[float] = (1.0, 1e-3, 1e-9),
) -> list[ConditionRow]:
    """Condition number per (level, epsilon) of the pencil A x = lambda D x.

    The raw nodal/moment coefficients mix h-scalings between the vector and
    scalar blocks, so kappa is taken relative to D, the diagonal of squared
    basis L2 norms (``mass_diagonal``); the pencil's Rayleigh quotients then
    mirror the function-space ones that the h^-2 bound concerns. Both
    extremes come from ARPACK at every level (``estimate_extremes``),
    lambda_min through one factor of the full system in its dissection
    order; each row's estimate carries its residual bounds.

    The meshes are not jittered: the kappa ratio per halving of h is checked
    in a band around 4, and on the uniform family it changes with h alone,
    not with a distortion that differs from level to level. A repeated
    epsilon raises ValueError: its second row would divide a kappa by itself.
    """
    if problem_name == "transport":
        raise ValueError("the condition study needs eps > 0; transport has eps == 0")
    for i, eps in enumerate(epsilons):
        if eps in epsilons[:i]:
            raise ValueError(f"eps {eps:g} is listed twice")
    rows = []
    prev: dict[float, float] = {}
    for level, n in enumerate(levels):
        mesh, topo, dofmap = build_case(n, k, 0.0)
        mass = mass_diagonal(mesh, dofmap)
        for eps in epsilons:
            problem = get_problem(problem_name, eps)
            system = assemble_ls(problem, mesh, topo, dofmap, bc_mode)
            est = estimate_extremes(system.matrix, mass, system.order)
            row = ConditionRow(
                level=level,
                n=n,
                epsilon=eps,
                n_dofs=dofmap.n_total,
                h=float(topo.h_K.max()),
                estimate=est,
                kappa_ratio=(est.kappa / prev[eps]) if eps in prev else None,
            )
            prev[eps] = est.kappa
            rows.append(row)
    return rows


def compare_bc_modes(
    problem_name: str,
    k: int,
    mesh_n: int,
    epsilon: Optional[float] = None,
    region=(0.0, 0.9, 0.0, 0.9),
    perturb: float = DEFAULT_PERTURB,
    tol: float = 1e-10,
) -> ModeComparison:
    """Weak vs strong imposition on one mesh.

    For problems with an exact solution the comparison reports subdomain
    errors and their ratio; the interior-layer case (no exact solution)
    reports over/undershoot of the scalar nodal values beyond the data
    range instead.
    """
    if problem_name not in ("boundary-layer", "interior-layer"):
        raise ValueError("mode comparison is defined for the layer problems")
    problem = get_problem(problem_name, epsilon)
    mesh, topo, dofmap = build_case(mesh_n, k, perturb)
    if problem.exact_u is not None:
        nonempty_region(mesh, region)  # fail before the solves, not after them
    reports = {}
    overshoot = {}
    for mode in ("weak", "strong"):
        solution, _ = solve_problem(problem, mesh, topo, dofmap, mode, tol=tol)
        coef_w = solution[dofmap.n_q:]
        overshoot[mode] = _overshoot(coef_w, lo=0.0, hi=1.0)
        if problem.exact_u is not None:
            reports[mode] = error_norms(
                solution, mesh, topo, dofmap, problem, region=region
            )
    ratio = reports["weak"].e_L2 / reports["strong"].e_L2 if reports else None
    return ModeComparison(
        problem=problem_name,
        epsilon=problem.epsilon,
        k=k,
        mesh_n=mesh_n,
        n_elements=mesh.num_triangles,
        weak=reports.get("weak"),
        strong=reports.get("strong"),
        error_ratio=ratio,
        weak_overshoot=overshoot["weak"],
        strong_overshoot=overshoot["strong"],
        notes=problem.notes,
    )


def _overshoot(values: np.ndarray, lo: float, hi: float) -> float:
    return float(max(values.max() - hi, 0.0) + max(lo - values.min(), 0.0))


def _fill_eoc(report: ErrorReport, previous: ErrorReport):
    for name in ("L2", "grad", "q", "stream"):
        prev = getattr(previous, f"e_{name}")
        cur = getattr(report, f"e_{name}")
        if prev > 0.0 and cur > 0.0:
            setattr(report, f"eoc_{name}", float(np.log2(prev / cur)))
