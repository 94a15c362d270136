"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 numerical failure (CG stagnation,
non-SPD or singular system, spectral breakdown). Identical arguments
produce identical stdout and output files; the RNG seeds behind mesh jitter
and eigenvalue start vectors are fixed.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import bench, fem
from .bench.studies import DEFAULT_PERTURB, build_case
from .mesh import MeshError, build_topology, load_mesh
from .solver import SolverError

OUTDIR_ENV = "LSFEM_OUTDIR"

SLITS = {"rotating": ((0.5, 0.0), (0.5, 0.5))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MeshError, ValueError, KeyError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"numerical failure [{args.command}]: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="lsfem", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        default=os.environ.get(OUTDIR_ENV, "."),
        help=f"output directory (default: ${OUTDIR_ENV} or current directory)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared options, each declared only by the commands that read it
    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--problem", required=True, choices=bench.PROBLEM_NAMES)
    case.add_argument("--k", type=int, default=0, choices=(0, 1, 2),
                      help="method index; polynomial degree is k+1 (P1..P3)")
    bc = argparse.ArgumentParser(add_help=False)
    bc.add_argument("--bc", default="weak", choices=("weak", "strong", "alt-weak"))
    solves = argparse.ArgumentParser(add_help=False)
    solves.add_argument("--perturb", type=float, default=DEFAULT_PERTURB,
                        help="vertex jitter fraction of the cell size")
    solves.add_argument("--tol", type=_bounded(float, 0.0, strict=True), default=1e-10,
                        help="CG relative residual")

    p = sub.add_parser("solve", parents=[case, bc, solves], help="single solve, VTK output")
    p.add_argument("--maxit", type=_bounded(int, 0), default=None, help="CG iteration cap")
    p.add_argument("--eps", type=float, default=None, help="diffusion coefficient")
    p.add_argument("--mesh-n", type=int, default=16, help="cells per side")
    p.add_argument("--mesh-file", default=None, help="load mesh instead of generating")
    p.add_argument("--mesh-format", default="native", choices=("native", "triangle"))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convergence", parents=[case, bc, solves], help="EOC study, CSV output")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--levels", type=_bounded(int, 1), default=4,
                   help="number of refinement levels")
    p.add_argument("--base-n", type=int, default=8, help="coarsest cells per side")
    p.add_argument("--region", default=None,
                   help="xmin,xmax,ymin,ymax subdomain filter")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("condition", parents=[case, bc], help="kappa study, CSV output")
    p.add_argument("--eps-list", default="1,1e-3,1e-9",
                   help="comma-separated diffusion coefficients")
    p.add_argument("--levels", type=_bounded(int, 1), default=2)
    p.add_argument("--base-n", type=int, default=4)
    p.set_defaults(func=_cmd_condition)

    p = sub.add_parser("compare", parents=[case, solves],
                       help="weak vs strong imposition on one mesh")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--mesh-n", type=int, default=None,
                   help="cells per side (default: nearest to the reference size)")
    p.add_argument("--region", default="0,0.9,0,0.9")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("list-problems", help="catalog entries and notes")
    p.set_defaults(func=_cmd_list)
    return parser


def _bounded(kind, low, strict=False):
    """Argument type: a ``kind`` value above ``low`` (strict) or at least ``low``."""
    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low):  # NaN fails both
            bound = f"{'>' if strict else '>='} {low:g}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its own errors
    return parse


def _parse_region(text):
    if text in (None, "", "full"):
        return None
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValueError("region must be xmin,xmax,ymin,ymax")
    xmin, xmax, ymin, ymax = parts
    if not (all(map(math.isfinite, parts)) and xmin < xmax and ymin < ymax):
        raise ValueError(f"region {text} must be finite with xmin < xmax and ymin < ymax")
    return tuple(parts)


def _cmd_solve(args) -> int:
    problem = bench.get_problem(args.problem, args.eps)
    slit = SLITS.get(args.problem)
    if args.mesh_file is not None:
        mesh = load_mesh(args.mesh_file, args.mesh_format)
        topo = build_topology(mesh, slit=slit)
        dofmap = fem.build_dofmap(mesh, topo, args.k)
    else:
        perturb = 0.0 if slit is not None else args.perturb
        mesh, topo, dofmap = build_case(args.mesh_n, args.k, perturb, slit=slit)
    for note in problem.notes:
        print(f"note: {note}")
    solution, stats = bench.solve_problem(
        problem, mesh, topo, dofmap, args.bc, tol=args.tol, maxit=args.maxit
    )
    u_v, q_c = bench.sample_solution(solution, mesh, dofmap)
    out = os.path.join(
        args.out_dir, f"{args.problem}_P{args.k + 1}_{args.bc}_{mesh.num_triangles}.vtk"
    )
    bench.write_vtk(mesh, u_v, q_c, out, title=f"{args.problem} P{args.k + 1} {args.bc}")
    print(
        f"solved {args.problem} eps={problem.epsilon:g} P{args.k + 1} {args.bc}: "
        f"{mesh.num_triangles} elements, {len(solution)} dofs, "
        f"cg {stats.iterations} iterations, residual {stats.residual:.2e}"
    )
    if problem.exact_u is not None:
        rep = bench.error_norms(solution, mesh, topo, dofmap, problem)
        print(f"errors: L2 {rep.e_L2:.4e}  grad {rep.e_grad:.4e}  "
              f"q {rep.e_q:.4e}  stream {rep.e_stream:.4e}")
    print(f"wrote {out}")
    return 0


def _cmd_convergence(args) -> int:
    levels = [args.base_n * 2**i for i in range(args.levels)]
    region = _parse_region(args.region)
    reports = bench.convergence_study(
        args.problem,
        args.k,
        args.bc,
        levels=levels,
        epsilon=args.eps,
        perturb=args.perturb,
        region=region,
        tol=args.tol,
    )
    out = os.path.join(args.out_dir, f"convergence_{args.problem}_P{args.k + 1}_{args.bc}.csv")
    bench.write_convergence_csv(reports, out)
    print(f"{'level':>5} {'h':>10} {'ndofs':>8} {'e_L2':>12} {'eoc':>6} "
          f"{'e_grad':>12} {'e_stream':>12} {'e_bdry':>12}")
    for r in reports:
        eoc = f"{r.eoc_L2:6.2f}" if r.eoc_L2 is not None else "     -"
        print(f"{r.level:>5} {r.h:>10.4e} {r.n_dofs:>8} {r.e_L2:>12.4e} {eoc} "
              f"{r.e_grad:>12.4e} {r.e_stream:>12.4e} {r.e_bdry:>12.4e}")
    print(f"wrote {out}")
    return 0


def _cmd_condition(args) -> int:
    epsilons = [float(v) for v in args.eps_list.split(",")]
    levels = [args.base_n * 2**i for i in range(args.levels)]
    rows = bench.condition_study(args.problem, args.k, args.bc, levels, epsilons)
    out = os.path.join(args.out_dir, f"condition_{args.problem}_P{args.k + 1}_{args.bc}.csv")
    bench.write_condition_csv(rows, out)
    print(f"{'level':>5} {'n':>4} {'eps':>8} {'ndofs':>8} {'kappa':>12} {'ratio':>8}")
    for r in rows:
        ratio = f"{r.kappa_ratio:8.2f}" if r.kappa_ratio is not None else "       -"
        print(f"{r.level:>5} {r.n:>4} {r.epsilon:>8.1e} {r.n_dofs:>8} "
              f"{r.estimate.kappa:>12.4e} {ratio}")
    print(f"wrote {out}")
    return 0


def _cmd_compare(args) -> int:
    mesh_n = args.mesh_n
    if mesh_n is None:
        mesh_n = bench.nearest_generated_n(416)
        print(f"using nearest generated mesh: n={mesh_n} ({2 * mesh_n**2} elements)")
    comp = bench.compare_bc_modes(
        args.problem, args.k, mesh_n, epsilon=args.eps,
        region=_parse_region(args.region), perturb=args.perturb, tol=args.tol,
    )
    for note in comp.notes:
        print(f"note: {note}")
    print(f"{comp.problem} eps={comp.epsilon:g} P{comp.k + 1}, "
          f"{comp.n_elements} elements")
    if comp.weak is not None:
        print(f"subdomain {comp.weak.region} L2: weak {comp.weak.e_L2:.4e} "
              f"strong {comp.strong.e_L2:.4e} ratio {comp.error_ratio:.3e}")
    print(f"overshoot beyond data range: weak {comp.weak_overshoot:.4e} "
          f"strong {comp.strong_overshoot:.4e}")
    return 0


def _cmd_list(args) -> int:
    for name in bench.PROBLEM_NAMES:
        problem = bench.get_problem(name)
        exact = "exact solution" if problem.exact_u is not None else "no exact solution"
        print(f"{name}: eps={problem.epsilon:g}, {exact}")
        for note in problem.notes:
            print(f"    note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
