"""CSV and VTK emission. Output bytes are deterministic for fixed inputs:
fixed float formatting, fixed row order, no timestamps.
"""
from __future__ import annotations

import os

import numpy as np

from ..mesh import Mesh

CONVERGENCE_HEADER = "level,h,ndofs,e_L2,eoc_L2,e_grad,eoc_grad,e_stream,e_bdry"
CONDITION_HEADER = "level,n,eps,ndofs,h,lambda_min,lambda_max,kappa,kappa_ratio"


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12e}"


def write_convergence_csv(reports, path: str) -> None:
    """One row per mesh level; EOC columns empty on the first level."""
    _ensure_dir(path)
    lines = [CONVERGENCE_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    str(r.level),
                    _fmt(r.h),
                    str(r.n_dofs),
                    _fmt(r.e_L2),
                    _fmt(r.eoc_L2),
                    _fmt(r.e_grad),
                    _fmt(r.eoc_grad),
                    _fmt(r.e_stream),
                    _fmt(r.e_bdry),
                ]
            )
        )
    _write_text(path, lines)


def write_condition_csv(rows, path: str) -> None:
    _ensure_dir(path)
    lines = [CONDITION_HEADER]
    for r in rows:
        est = r.estimate
        lines.append(
            ",".join(
                [
                    str(r.level),
                    str(r.n),
                    _fmt(r.epsilon),
                    str(r.n_dofs),
                    _fmt(r.h),
                    _fmt(est.lambda_min),
                    _fmt(est.lambda_max),
                    _fmt(est.kappa),
                    _fmt(r.kappa_ratio),
                ]
            )
        )
    _write_text(path, lines)


def write_vtk(
    mesh: Mesh,
    u_at_vertices: np.ndarray,
    q_at_cells,
    path: str,
    title: str = "lsfem solution",
) -> None:
    """Legacy ASCII unstructured grid: scalar "u" on points, vector "q" on cells."""
    _ensure_dir(path)
    V, T = mesh.num_vertices, mesh.num_triangles
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {V} double",
        *_block("%.12e %.12e 0.0", mesh.vertices),
        f"CELLS {T} {4 * T}",
        *_block("3 %d %d %d", mesh.triangles),
        f"CELL_TYPES {T}",
        *["5"] * T,
        f"POINT_DATA {V}",
        "SCALARS u double",
        "LOOKUP_TABLE default",
        *_block("%.12e", np.reshape(u_at_vertices, (-1, 1))),
    ]
    if q_at_cells is not None:
        lines += [f"CELL_DATA {T}", "VECTORS q double", *_block("%.12e %.12e 0.0", q_at_cells)]
    _write_text(path, lines)


def _block(row_format: str, rows) -> list:
    """Rows of a 2-D array formatted as lines, joined into one string (none
    for no rows): one ``%`` operation on Python numbers, which formats them
    as the per-value f-strings ``f"{x:.12e}"`` and ``f"{i}"`` do."""
    rows = np.asarray(rows)
    if not len(rows):
        return []
    return ["\n".join([row_format] * len(rows)) % tuple(rows.ravel().tolist())]


def _ensure_dir(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _write_text(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
