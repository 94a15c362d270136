"""CSV and VTK emission. Output bytes are deterministic for fixed inputs:
fixed float formatting, fixed row order, no timestamps.
"""
from __future__ import annotations

import os

import numpy as np

from ..mesh import Mesh

CONVERGENCE_HEADER = "level,h,ndofs,e_L2,eoc_L2,e_grad,eoc_grad,e_stream,e_bdry"
CONDITION_HEADER = "level,n,eps,ndofs,h,lambda_min,lambda_max,kappa,kappa_ratio"
# columns written with str; the others are floats, "%.12e" or empty for None
_INTEGER_COLUMNS = {"level", "n", "ndofs"}


def write_convergence_csv(reports, path: str) -> None:
    """One row per mesh level; EOC columns empty on the first level."""
    _write_csv(path, CONVERGENCE_HEADER, [
        (r.level, r.h, r.n_dofs, r.e_L2, r.eoc_L2, r.e_grad, r.eoc_grad, r.e_stream, r.e_bdry)
        for r in reports
    ])


def write_condition_csv(rows, path: str) -> None:
    """One row per (level, eps); the kappa ratio empty on the first level."""
    _write_csv(path, CONDITION_HEADER, [
        (r.level, r.n, r.epsilon, r.n_dofs, r.h, r.estimate.lambda_min,
         r.estimate.lambda_max, r.estimate.kappa, r.kappa_ratio)
        for r in rows
    ])


def _write_csv(path: str, header: str, rows) -> None:
    """The header line and one line per row, each value formatted by its column."""
    _ensure_dir(path)
    ints = [name in _INTEGER_COLUMNS for name in header.split(",")]
    _write_text(path, [header] + [
        ",".join(str(x) if i else "" if x is None else f"{x:.12e}" for x, i in zip(row, ints))
        for row in rows
    ])


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
