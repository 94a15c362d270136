import numpy as np
import pytest

from lsfem.bench import (
    convergence_study,
    sample_solution,
    write_convergence_csv,
    write_vtk,
)
from lsfem.bench.errors import interpolate_solution
from lsfem.bench.problems import get_problem
from lsfem.bench.reports import CONVERGENCE_HEADER, write_condition_csv
from lsfem.bench.studies import build_case, condition_study


def test_convergence_csv_columns(tmp_path):
    reports = convergence_study("smooth", 0, "weak", levels=(2, 4), epsilon=1e-3)
    path = tmp_path / "conv.csv"
    write_convergence_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "level,h,ndofs,e_L2,eoc_L2,e_grad,eoc_grad,e_stream,e_bdry"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[4] == ""  # no EOC on the first level
    assert len(first) == len(CONVERGENCE_HEADER.split(","))


def test_condition_csv(tmp_path):
    rows = condition_study("smooth", 0, "weak", levels=(1, 2), epsilons=(1e-3,))
    path = tmp_path / "cond.csv"
    write_condition_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "level,n,eps,ndofs,h,lambda_min,lambda_max,kappa,kappa_ratio"
    assert lines[1].endswith(",")  # no kappa ratio on the first level
    assert len(lines[2].split(",")) == 9 and float(lines[2].split(",")[-1]) > 0


def test_vtk_two_triangle_contract(tmp_path):
    mesh, topo, dm = build_case(1, 0, perturb=0.0)
    problem = get_problem("smooth", 1e-3)
    coef = interpolate_solution(problem, mesh, topo, dm)
    u_v, q_c = sample_solution(coef, mesh, dm)
    path = tmp_path / "two.vtk"
    write_vtk(mesh, u_v, q_c, str(path))
    text = path.read_text()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINTS 4 double" in text
    assert "CELLS 2 8" in text
    assert "POINT_DATA 4" in text
    assert "SCALARS u double" in text
    assert "CELL_DATA 2" in text
    assert "VECTORS q double" in text
    # every cell is a linear triangle
    assert text.count("\n5") >= 2


def test_outputs_are_byte_identical_across_runs(tmp_path):
    for name in ("a", "b"):
        reports = convergence_study("smooth", 0, "weak", levels=(2, 4), epsilon=1e-3)
        write_convergence_csv(reports, str(tmp_path / f"{name}.csv"))
        mesh, topo, dm = build_case(2, 0, perturb=0.2)
        coef = interpolate_solution(get_problem("smooth", 1e-3), mesh, topo, dm)
        u_v, q_c = sample_solution(coef, mesh, dm)
        write_vtk(mesh, u_v, q_c, str(tmp_path / f"{name}.vtk"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.vtk").read_bytes() == (tmp_path / "b.vtk").read_bytes()


def _per_line_vtk(mesh, u_at_vertices, q_at_cells, title="lsfem solution"):
    """The VTK text written one f-string per line: the reference that
    ``write_vtk`` must reproduce byte for byte."""
    V, T = mesh.num_vertices, mesh.num_triangles
    lines = ["# vtk DataFile Version 2.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {V} double"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.12e} {y:.12e} 0.0")
    lines.append(f"CELLS {T} {4 * T}")
    for i, j, k in mesh.triangles:
        lines.append(f"3 {i} {j} {k}")
    lines.append(f"CELL_TYPES {T}")
    lines.extend(["5"] * T)
    lines += [f"POINT_DATA {V}", "SCALARS u double", "LOOKUP_TABLE default"]
    for v in u_at_vertices:
        lines.append(f"{v:.12e}")
    if q_at_cells is not None:
        lines += [f"CELL_DATA {T}", "VECTORS q double"]
        for qx, qy in q_at_cells:
            lines.append(f"{qx:.12e} {qy:.12e} 0.0")
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("with_q", [True, False], ids=["q", "no-q"])
@pytest.mark.parametrize("n", [1, 3, 17])
def test_vtk_matches_per_line_writer(tmp_path, n, with_q):
    mesh, topo, dm = build_case(n, 1, perturb=0.2)
    coef = interpolate_solution(get_problem("smooth", 1e-3), mesh, topo, dm)
    u_v, q_c = sample_solution(coef, mesh, dm)
    # signed zero, extreme exponents and a rounding carry in the last digit
    special = [-0.0, 1e-300, -1e300, 9.9999999999995e-1]
    u_v[: len(special)] = special
    q_c[0] = special[:2]
    q_c[-1] = special[2:]
    q_c = q_c if with_q else None
    path = tmp_path / "out.vtk"
    write_vtk(mesh, u_v, q_c, str(path))
    assert path.read_bytes() == _per_line_vtk(mesh, u_v, q_c)
