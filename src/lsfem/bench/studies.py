"""Convergence-order and conditioning studies plus weak/strong comparisons.

Mesh ladders are generated crisscross meshes with deterministic jitter,
one independent draw per level, emulating unstructured quasi-uniform
families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .. import fem
from ..assembly import ProblemSpec, assemble_ls, assemble_transport, mass_diagonal
from ..mesh import Mesh, build_topology, generate_structured
from ..solver import (
    ConvergenceError,
    SparseSym,
    SpectralEstimate,
    cg_solve,
    estimate_extremes,
    factorize,
)
from .errors import ErrorReport, error_norms
from .problems import get_problem

DEFAULT_PERTURB = 0.15


def nearest_generated_n(elements: int, even: bool = False) -> int:
    """Cells-per-side n whose crisscross mesh size 2 n^2 is closest.

    ``even`` restricts to even n, needed when a slit along a half-integer
    gridline must be resolved by the mesh.
    """
    n = max(1, round(math.sqrt(elements / 2.0)))
    candidates = range(max(1, n - 2), n + 3)
    if even:
        candidates = [m for m in candidates if m % 2 == 0]
    return min((abs(2 * m * m - elements), m) for m in candidates)[1]


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
    """Mesh, topology, and DOF map for one study cell."""
    mesh = generate_structured(n, perturb)
    topo = build_topology(mesh, slit=slit)
    dofmap = fem.build_dofmap(mesh, topo, k)
    return mesh, topo, dofmap


def mesh_ladder(levels: Sequence[int], perturb: float) -> list[Mesh]:
    """Quasi-uniform family for a refinement study, one mesh per level.

    Each level is generated directly; the coordinate-hashed jitter keeps
    lattice points shared between levels displaced consistently. Refining a
    jittered coarse mesh instead would freeze its coarse-scale distortion
    into every finer level, which visibly pollutes the L2 rate in the
    vanishing-diffusion regime.
    """
    return [generate_structured(n, perturb) for n in levels]


def solve_problem(
    problem: ProblemSpec,
    mesh: Mesh,
    topo,
    dofmap,
    bc_mode: str = "weak",
    tol: float = 1e-10,
    maxit: Optional[int] = None,
):
    """Condense the element interiors, factor the skeleton system and solve
    it by CG preconditioned with the factor, which converges in one or two
    iterations whatever h and eps; returns (full coefficient vector, CgStats).

    The stats' residual is the full system's ||b - Ax|| / ||b||. A
    ConvergenceError carries the full-length iterate.
    """
    if problem.epsilon == 0.0:
        skel = assemble_transport(problem, mesh, topo, dofmap, condense=True)
    else:
        skel = assemble_ls(problem, mesh, topo, dofmap, bc_mode, condense=True)
    matrix = skel.matrix
    try:
        x, stats = cg_solve(matrix, skel.rhs, tol=tol, maxit=maxit, precond=factorize(matrix),
                            norm_b=skel.norm_b)
    except ConvergenceError as err:
        mode = "transport" if problem.epsilon == 0.0 else bc_mode
        raise ConvergenceError(
            f"{err} [eps={problem.epsilon:g}, {mode}, {skel.n_total} DOFs, "
            f"{matrix.n} on the skeleton]",
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
    reports = []
    for level, mesh in enumerate(mesh_ladder(levels, perturb)):
        topo = build_topology(mesh)
        dofmap = fem.build_dofmap(mesh, topo, k)
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
    perturb: float = 0.0,
) -> list[ConditionRow]:
    """Condition number per (level, epsilon) on the mass-normalized system.

    The raw nodal/moment coefficients mix h-scalings between the vector and
    scalar blocks, so the matrix is symmetrically rescaled by the basis L2
    norms before the eigenvalue estimate; Rayleigh quotients then mirror the
    function-space ones that the h^-2 bound concerns.
    """
    rows = []
    prev: dict[float, float] = {}
    for level, (n, mesh) in enumerate(zip(levels, mesh_ladder(levels, perturb))):
        topo = build_topology(mesh)
        dofmap = fem.build_dofmap(mesh, topo, k)
        scale = 1.0 / np.sqrt(mass_diagonal(mesh, dofmap))
        for eps in epsilons:
            problem = get_problem(problem_name, eps)
            system = assemble_ls(problem, mesh, topo, dofmap, bc_mode)
            mat = system.matrix.to_scipy()
            d = sp.diags(scale)
            est = estimate_extremes(SparseSym.from_csr((d @ mat @ d).tocsr()))
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
    ratio = None
    if reports:
        ratio = reports["weak"].e_L2 / reports["strong"].e_L2
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
