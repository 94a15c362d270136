"""The benchmark's two workloads: inputs drawn from a seed, one timed pass
through the same public functions the ``lsfem`` command calls, and checks
of every output against independent computations or properties the
least-squares method must have.

A pass returns a ``Pass``; ``check(name, pass_)`` returns the list of
failed checks (empty when every output is correct). Checks run after the
timed pass and are not part of its time.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lsfem import fem
from lsfem.assembly import assemble_ls, mass_diagonal
from lsfem.bench import (
    condition_study,
    error_norms,
    get_problem,
    interpolate_solution,
    sample_solution,
    solve_problem,
    write_condition_csv,
    write_convergence_csv,
    write_vtk,
)
from lsfem.bench.errors import interpolate_scalar
from lsfem.cli import SLITS
from lsfem.mesh import Mesh, build_topology, generate_structured
from lsfem.solver import SolverError

JITTER = 0.15
TOL = 1e-10
SUBDOMAIN = (0.0, 0.9, 0.0, 0.9)
EPSILONS = (1.0, 1e-3, 1e-9)

# Problem sizes. "full" is what a run times. "smoke" keeps every check
# meaningful at a fraction of the cost; the benchmark's own tests run it.
SIZES = {
    "full": {
        "eps-sweep": {"p2_n": 32, "p3_n": 24},
        "layer-ladder": {"levels": (8, 16, 32), "condition_levels": (8, 16)},
    },
    "smoke": {
        "eps-sweep": {"p2_n": 4, "p3_n": 3},
        "layer-ladder": {"levels": (8, 16), "condition_levels": (4, 8)},
    },
    # touches every code path once before the first timed call; not checked
    "warm-up": {
        "eps-sweep": {"p2_n": 2, "p3_n": 2},
        "layer-ladder": {"levels": (2, 4), "condition_levels": (2, 4)},
    },
}


@dataclass
class Solve:
    """One solved system and what the pass made from it."""

    problem: object
    mesh: Mesh
    topo: object
    dofmap: object
    bc: str
    x: np.ndarray
    stats: object = None               # the solver's CgStats
    report: object = None
    vtk: str | None = None


@dataclass
class Pass:
    workload: str
    attempted: int = 0
    failed: int = 0
    dofs: int = 0                      # dofs of every system solved or estimated
    solves: list = field(default_factory=list)
    ladders: dict = field(default_factory=dict)   # label -> (reports, csv path)
    rows: list = field(default_factory=list)      # condition rows
    csv: str | None = None
    levels: tuple = ()                           # condition levels


# -- inputs -------------------------------------------------------------

def jittered_meshes(levels, seed: int, perturb: float = JITTER) -> list[Mesh]:
    """Crisscross meshes of the unit square with seeded vertex jitter.

    Interior vertices move by at most ``perturb / n`` per coordinate. A
    lattice point shared between levels gets the same unit displacement,
    as in the program's own coordinate-hashed jitter, so the family stays
    correlated across levels; the seed picks the realization.
    """
    top = max(levels)
    if any(top % n for n in levels):
        raise ValueError("every level must divide the finest one")
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(top + 1, top + 1, 2))
    meshes = []
    for n in levels:
        base = generate_structured(n, 0.0)
        ij = np.rint(base.vertices * n).astype(np.int64)
        interior = ((ij > 0) & (ij < n)).all(axis=1)
        verts = base.vertices.copy()
        step = top // n
        verts[interior] += noise[ij[interior, 0] * step, ij[interior, 1] * step] * (perturb / n)
        meshes.append(Mesh(verts, base.triangles, base.region_id))
    return meshes


def condition_epsilons(seed: int) -> list[float]:
    """The condition study's eps values, in an order drawn from the seed."""
    order = np.random.default_rng(seed).permutation(len(EPSILONS))
    return [EPSILONS[i] for i in order]


# -- passes -------------------------------------------------------------

def _solve(p: Pass, problem, mesh, topo, dofmap, bc, out_dir, label, region=None):
    """Solve, compute errors when an exact solution exists, write VTK."""
    p.attempted += 2  # the solve and its VTK file
    try:
        x, stats = solve_problem(problem, mesh, topo, dofmap, bc, tol=TOL)
    except SolverError:
        p.failed += 2
        return None
    p.dofs += len(x)
    s = Solve(problem, mesh, topo, dofmap, bc, x, stats)
    if problem.exact_u is not None:
        s.report = error_norms(x, mesh, topo, dofmap, problem, region=region)
    u_v, q_c = sample_solution(x, mesh, dofmap)
    s.vtk = os.path.join(out_dir, f"{label}.vtk")
    write_vtk(mesh, u_v, q_c, s.vtk, title=label)
    p.solves.append(s)
    return s


def eps_sweep(seed: int, out_dir: str, size: str = "full") -> Pass:
    """smooth, weak BCs: P2 on one jittered mesh for each eps, plus P3 at
    eps = 1e-3 on a mesh of similar dof count."""
    cfg = SIZES[size]["eps-sweep"]
    p = Pass("eps-sweep")
    cases = [(1, cfg["p2_n"], EPSILONS), (2, cfg["p3_n"], (1e-3,))]
    for i, (k, n, epsilons) in enumerate(cases):
        (mesh,) = jittered_meshes((n,), seed + i)
        topo = build_topology(mesh)
        dofmap = fem.build_dofmap(mesh, topo, k)
        for eps in epsilons:
            problem = get_problem("smooth", eps)
            _solve(p, problem, mesh, topo, dofmap, "weak", out_dir, f"smooth_P{k + 1}_eps{eps:g}")
    return p


def layer_ladder(seed: int, out_dir: str, size: str = "full") -> Pass:
    """The paper's layer experiments on P1/P2 ladders, to CSV and VTK, then
    the condition study of acceptance criterion 3."""
    levels = SIZES[size]["layer-ladder"]["levels"]
    p = Pass("layer-ladder")
    for k in (0, 1):
        problem = get_problem("boundary-layer", 1e-9)
        reports = {"weak": [], "strong": []}
        for n, mesh in zip(levels, jittered_meshes(levels, seed + k)):
            topo = build_topology(mesh)
            dofmap = fem.build_dofmap(mesh, topo, k)
            for bc in ("weak", "strong"):
                s = _solve(p, problem, mesh, topo, dofmap, bc, out_dir,
                           f"boundary-layer_P{k + 1}_{bc}_n{n}", region=SUBDOMAIN)
                reports[bc].append(s.report if s else None)
        for bc, reps in reports.items():
            _ladder_csv(p, f"boundary-layer_P{k + 1}_{bc}", reps, out_dir)
    for k in (0, 1):
        problem = get_problem("rotating", 1e-6)
        for n in levels:
            mesh = generate_structured(n, 0.0)  # the slit must lie on mesh edges
            topo = build_topology(mesh, slit=SLITS["rotating"])
            dofmap = fem.build_dofmap(mesh, topo, k)
            _solve(p, problem, mesh, topo, dofmap, "weak", out_dir, f"rotating_P{k + 1}_n{n}")
    problem = get_problem("transport")
    reps = []
    for n, mesh in zip(levels, jittered_meshes(levels, seed + 2)):
        topo = build_topology(mesh)
        dofmap = fem.build_dofmap(mesh, topo, 1)
        s = _solve(p, problem, mesh, topo, dofmap, "weak", out_dir, f"transport_P2_n{n}")
        reps.append(s.report if s else None)
    _ladder_csv(p, "transport_P2", reps, out_dir)
    _condition(p, seed, out_dir, SIZES[size]["layer-ladder"]["condition_levels"])
    return p


def _ladder_csv(p: Pass, label, reports, out_dir):
    p.attempted += 1
    if any(r is None for r in reports):
        p.failed += 1
        return
    for prev, cur in zip(reports, reports[1:]):
        for norm in ("L2", "grad", "q", "stream"):
            a, b = getattr(prev, f"e_{norm}"), getattr(cur, f"e_{norm}")
            if a > 0.0 and b > 0.0:
                setattr(cur, f"eoc_{norm}", math.log2(a / b))
    path = os.path.join(out_dir, f"convergence_{label}.csv")
    write_convergence_csv(reports, path)
    p.ladders[label] = (reports, path)


def _condition(p: Pass, seed: int, out_dir: str, levels):
    """Mass-normalized kappa of P1 smooth/weak over eps on two levels."""
    epsilons = condition_epsilons(seed)
    p.levels = levels
    attempted = len(levels) * len(epsilons) + 1  # estimates and the CSV
    p.attempted += attempted
    try:
        p.rows = condition_study("smooth", 0, "weak", levels=levels, epsilons=epsilons)
    except SolverError:
        p.failed += attempted
        return
    p.dofs += sum(r.n_dofs for r in p.rows)
    p.csv = os.path.join(out_dir, "condition_smooth_P1.csv")
    write_condition_csv(p.rows, p.csv)


PASSES = {"eps-sweep": eps_sweep, "layer-ladder": layer_ladder}


# -- checks -------------------------------------------------------------

def check(name: str, p: Pass) -> list[str]:
    """Failed checks of one pass; empty when every output is correct."""
    return CHECKS[name](p)


def residual_and_functional(s: Solve, others=()):
    """||b - A x|| / ||b|| on a freshly assembled system, the rounding
    allowance of that residual, and the least-squares functional
    y^T A y - 2 b^T y (up to a constant) at x and at each vector in
    ``others``.

    CG stops on its recursively updated residual, which drifts from the
    true one by rounding of order u ||A||x|| / ||b|| (the attainable
    accuracy of finite-precision CG). The allowance is the componentwise
    bound on the rounding of one evaluation of b - A x,
    gamma_m (||b| + |A||x||) / ||b|| with m the longest row plus one.
    """
    system = assemble_ls(s.problem, s.mesh, s.topo, s.dofmap, s.bc)
    mat, b = system.matrix.to_scipy(), system.rhs
    ax = mat @ s.x
    norm_b = np.linalg.norm(b)
    res = float(np.linalg.norm(b - ax) / norm_b)
    m = int(np.diff(mat.indptr).max()) + 1
    mu = m * np.finfo(float).eps / 2
    slack = float(mu / (1.0 - mu) * np.linalg.norm(np.abs(b) + abs(mat) @ np.abs(s.x)) / norm_b)
    functional = [float(s.x @ ax - 2.0 * b @ s.x)]
    functional += [float(y @ (mat @ y) - 2.0 * b @ y) for y in others]
    return res, slack, functional


def check_vtk(s: Solve) -> list[str]:
    """The file is complete and its u values are the solution's vertex values."""
    label = os.path.basename(s.vtk)
    V, T = s.mesh.num_vertices, s.mesh.num_triangles
    has_q = len(s.x) != s.dofmap.n_w
    u_start = 5 + V + 1 + T + 1 + T + 3
    expected = u_start + V + (2 + T if has_q else 0)
    try:
        with open(s.vtk, encoding="utf-8") as f:
            lines = f.read().split("\n")
        if lines.pop() != "" or len(lines) != expected:
            return [f"{label}: {len(lines)} lines, expected {expected}"]
        written = np.array([float(v) for v in lines[u_start:u_start + V]])
    except (OSError, ValueError) as exc:
        return [f"{label}: unreadable ({exc})"]
    coef_w = s.x[s.dofmap.n_q:] if has_q else s.x
    if not np.allclose(written, coef_w[:V], rtol=1e-11, atol=1e-300):
        return [f"{label}: vertex values differ from the solution"]
    return []


def check_csv(path: str, columns: dict, rows: int) -> list[str]:
    """Each named column holds the expected values, row for row."""
    label = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        lines = text.split("\n")
        header = lines[0].split(",")
        body = [line.split(",") for line in lines[1:] if line]
        if not text.endswith("\n") or len(body) != rows:
            return [f"{label}: {len(body)} rows, expected {rows}"]
        for col, expected in columns.items():
            got = [float(r[header.index(col)]) for r in body]
            if not np.allclose(got, expected, rtol=1e-11, atol=0.0):
                return [f"{label}: column {col} differs from the computed values"]
    except (OSError, ValueError, IndexError) as exc:
        return [f"{label}: unreadable ({exc})"]
    return []


def _check_eps_sweep(p: Pass) -> list[str]:
    bad = []
    for s in p.solves:
        tag = f"P{s.dofmap.degree} eps={s.problem.epsilon:g}"
        interp = interpolate_solution(s.problem, s.mesh, s.topo, s.dofmap)
        res, slack, (j_h, j_i) = residual_and_functional(s, [interp])
        if not (s.stats.converged and s.stats.residual <= TOL):
            bad.append(f"{tag}: CG reports residual {s.stats.residual:.3e} > {TOL:g}")
        if not res <= TOL + slack:
            bad.append(f"{tag}: relative residual {res:.3e} > {TOL:g} + rounding {slack:.2e}")
        if not j_h <= j_i:
            bad.append(f"{tag}: LS functional {j_h:.6e} above the interpolant's {j_i:.6e}")
        bad += check_vtk(s)
    return bad


def _eoc(reports, norm="L2"):
    return getattr(reports[-1], f"eoc_{norm}")


def _check_layer_ladder(p: Pass) -> list[str]:
    bad = []
    for s in p.solves:
        bad += check_vtk(s)
        if not np.isfinite(s.x).all():
            bad.append(f"{s.problem.name}: non-finite solution")
    for label, (reports, path) in p.ladders.items():
        bad += check_csv(path, {"e_L2": [r.e_L2 for r in reports],
                                "e_stream": [r.e_stream for r in reports]}, len(reports))
    for k in (0, 1):
        weak = p.ladders.get(f"boundary-layer_P{k + 1}_weak")
        strong = p.ladders.get(f"boundary-layer_P{k + 1}_strong")
        if weak is None or strong is None:
            continue
        for w, s in zip(weak[0], strong[0]):
            if not w.e_L2 < s.e_L2:
                bad.append(f"boundary-layer P{k + 1} h={w.h:.3g}: weak subdomain L2 "
                           f"{w.e_L2:.3e} not below strong {s.e_L2:.3e}")
        # floor k+1 of criteria 1 and 7 on the subdomain away from the layer;
        # the k+2 +- 0.25 target of criterion 1 is not asserted: on jittered
        # ladders the P1 EOC at 32/16 scatters over 1.77-2.16 between seeds
        eoc = _eoc(weak[0])
        if not eoc >= k + 1:
            bad.append(f"boundary-layer P{k + 1}: subdomain L2 EOC {eoc:.3f} < {k + 1}")
    if "transport_P2" in p.ladders:
        bad += _check_transport(p)
    return bad + _check_rotating(p) + _check_condition(p)


def _check_transport(p: Pass) -> list[str]:
    """Criterion 8 on the ladder: L2 floor k+1, streamline EOC k+1 +- 0.1,
    and e_stream(u_h) / e_stream(I_h u) not growing under refinement."""
    k = 1
    reports, _ = p.ladders["transport_P2"]
    solves = [s for s in p.solves if s.problem.name == "transport"]
    ratios = []
    for s, r in zip(solves, reports):
        coef = interpolate_scalar(s.problem.exact_u, s.dofmap)
        ratios.append(r.e_stream / error_norms(coef, s.mesh, s.topo, s.dofmap, s.problem).e_stream)
    bad = []
    if not _eoc(reports) >= k + 1:
        bad.append(f"transport P2: L2 EOC {_eoc(reports):.3f} < {k + 1}")
    if not abs(_eoc(reports, "stream") - (k + 1)) <= 0.1:
        bad.append(f"transport P2: streamline EOC {_eoc(reports, 'stream'):.3f} not {k + 1}+-0.1")
    if not ratios[-1] <= 1.1 * ratios[0]:
        bad.append(f"transport P2: e_stream(u_h)/e_stream(I_h u) grows {ratios[0]:.3f} -> {ratios[-1]:.3f}")
    return bad


def _check_rotating(p: Pass) -> list[str]:
    """Slit data transported around the centre: on y = 1/2 right of the
    slit the profile is a bump, low at both ends."""
    bad = []
    for s in p.solves:
        if s.problem.name != "rotating" or s.mesh.num_triangles < 2 * 16 * 16:
            continue
        u = s.x[s.dofmap.n_q:]
        v = s.mesh.vertices
        line = np.flatnonzero((np.abs(v[:, 1] - 0.5) < 1e-12) & (v[:, 0] >= 0.5))
        prof = u[line[np.argsort(v[line, 0])]]
        if not (prof.max() >= 0.5 and prof[0] <= 0.3 and prof[-1] <= 0.3):
            bad.append(f"rotating P{s.dofmap.degree} n={int(math.isqrt(s.mesh.num_triangles // 2))}: "
                       f"no bump on y=1/2 (peak {prof.max():.3f}, ends {prof[0]:.3f}/{prof[-1]:.3f})")
    return bad


def reference_extremes(row) -> tuple[float, float]:
    """Extreme eigenvalues of the row's mass-normalized matrix, computed
    apart from the program's estimator (numpy dense, or ARPACK)."""
    mesh = generate_structured(row.n, 0.0)
    topo = build_topology(mesh)
    dofmap = fem.build_dofmap(mesh, topo, 0)
    d = sp.diags(1.0 / np.sqrt(mass_diagonal(mesh, dofmap)))
    system = assemble_ls(get_problem("smooth", row.epsilon), mesh, topo, dofmap, "weak")
    mat = (d @ system.matrix.to_scipy() @ d).tocsc()
    if mat.shape[0] <= 2000:
        eigs = np.linalg.eigvalsh(mat.toarray())
        return float(eigs[0]), float(eigs[-1])
    lam_max = spla.eigsh(mat, k=1, which="LA", tol=1e-12, return_eigenvectors=False)[0]
    lam_min = spla.eigsh(mat, k=1, sigma=0.0, which="LM", tol=1e-12, return_eigenvectors=False)[0]
    return float(lam_min), float(lam_max)


def _check_condition(p: Pass) -> list[str]:
    bad = []
    if not p.rows:  # the study failed; counted in p.failed
        return bad
    for row in p.rows:
        est = row.estimate
        ref_min, ref_max = reference_extremes(row)
        tag = f"n={row.n} eps={row.epsilon:g}"
        for what, got, ref, tol in (("lambda_min", est.lambda_min, ref_min, est.tol_min),
                                    ("lambda_max", est.lambda_max, ref_max, est.tol_max)):
            allowed = max(tol, 1e-9) * abs(ref)
            if not abs(got - ref) <= allowed:
                bad.append(f"{tag}: {what} {got:.9e} vs reference {ref:.9e} (allowed {allowed:.2e})")
        kappa_ref = ref_max / ref_min
        # relative errors of a quotient add, to first order; 1 % for the rest
        allowed = (max(est.tol_min, 1e-9) + max(est.tol_max, 1e-9)) * 1.01
        if not abs(est.kappa / kappa_ref - 1.0) <= allowed:
            bad.append(f"{tag}: kappa {est.kappa:.6e} vs reference {kappa_ref:.6e}")
    coarse, fine = p.levels
    for eps in EPSILONS:
        by_n = {r.n: r.estimate.kappa for r in p.rows if r.epsilon == eps}
        ratio = by_n[fine] / by_n[coarse]
        if not 3.0 <= ratio <= 5.0:  # kappa ~ h^-2: 4 per halving, criterion-3 band
            bad.append(f"eps={eps:g}: kappa ratio n={fine}/n={coarse} {ratio:.3f} outside [3, 5]")
    bad += check_csv(p.csv, {"lambda_min": [r.estimate.lambda_min for r in p.rows],
                             "lambda_max": [r.estimate.lambda_max for r in p.rows],
                             "kappa": [r.estimate.kappa for r in p.rows]}, len(p.rows))
    return bad


def same_outputs(first: Pass, again: Pass) -> list[str]:
    """A repeated pass on the same seed must reproduce the first bit for bit."""
    same = (
        (first.attempted, first.failed, first.dofs) == (again.attempted, again.failed, again.dofs)
        and len(first.solves) == len(again.solves)
        and all(np.array_equal(a.x, b.x) for a, b in zip(first.solves, again.solves))
        and [r.estimate for r in first.rows] == [r.estimate for r in again.rows]
    )
    return [] if same else [f"{first.workload}: a repeated pass gave other outputs"]


CHECKS = {
    "eps-sweep": _check_eps_sweep,
    "layer-ladder": _check_layer_ladder,
}
