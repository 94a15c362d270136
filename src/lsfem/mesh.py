"""Conforming triangulations of planar domains: generation, file I/O,
uniform refinement, and edge topology with the geometric quantities the
assembly loops need (element sizes, face sizes, boundary normals).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (parse failure, inverted or non-conforming element)."""


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with counterclockwise elements.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array of vertex indices, CCW after construction
    region_id : (T,) int array of element labels
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_id: np.ndarray

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError("vertices must be a (V, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            rows = (tris < 0).any(axis=1) | (tris >= len(verts)).any(axis=1)
            bad = int(np.argmax(rows))
            culprit = tris[bad][(tris[bad] < 0) | (tris[bad] >= len(verts))][0]
            raise MeshError(
                f"triangle {bad} references vertex {culprit} outside 0..{len(verts) - 1}"
            )
        # a NaN area would pass both area checks below
        finite = np.isfinite(verts).all(axis=1)
        if not finite.all():
            raise MeshError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
        # canonical orientation: flip clockwise triangles, then reject degenerates
        areas = _signed_areas(verts, tris)
        flip = areas < 0
        if flip.any():
            tris = tris.copy()
            tris[flip] = tris[flip][:, [0, 2, 1]]
            areas = np.abs(areas)
        if (areas <= 0).any():
            bad = int(np.argmax(areas <= 0))
            raise MeshError(f"triangle {bad} has non-positive area {areas[bad]:.3e}")
        # equal vertex sets sort next to each other, lowest index first
        key = np.sort(tris, axis=1)
        order = np.lexsort(key.T[::-1])
        repeat = (key[order[1:]] == key[order[:-1]]).all(axis=1)
        if repeat.any():
            raise MeshError(f"duplicate triangle at index {order[1:][repeat].min()}")
        region = np.asarray(self.region_id, dtype=np.int64)
        if region.shape != (len(tris),):
            raise MeshError("region_id must have one entry per triangle")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "region_id", np.ascontiguousarray(region))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        return _signed_areas(self.vertices, self.triangles)

    def bounding_box(self):
        """Lower corner and largest side (at least the smallest normal float) of
        the box around the vertices: the length that tolerances scale with."""
        lo = self.vertices.min(axis=0, initial=np.inf)
        extent = max((self.vertices.max(axis=0, initial=-np.inf) - lo).max(), np.finfo(float).tiny)
        return lo, extent

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in radians."""
        p = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosv = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angles.append(np.arccos(np.clip(cosv, -1.0, 1.0)))
        return float(np.min(angles))


@dataclass(frozen=True)
class Topology:
    """Edge-level connectivity derived from a Mesh, and nothing of a problem.

    Edges are stored with global orientation: lower vertex index first.
    ``normals[e]`` is the unit normal obtained by rotating the oriented edge
    tangent by -90 degrees; ``outward_sign`` is +-1 on boundary edges (so
    that sign * normal points out of the incident triangle) and 0 inside.
    """

    edges: np.ndarray            # (E, 2) int, edges[e, 0] < edges[e, 1]
    edge_to_tri: np.ndarray      # (E, 2) int, second entry -1 on the boundary
    tri_to_edge: np.ndarray      # (T, 3) int, local edge i opposite vertex i
    is_boundary: np.ndarray      # (E,) bool
    normals: np.ndarray          # (E, 2) float, oriented-tangent rotated by -90
    outward_sign: np.ndarray     # (E,) float
    h_K: np.ndarray              # (T,) float, sqrt of triangle area
    h_F: np.ndarray              # (E,) float, edge length

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.is_boundary)

    def outward_normals(self, edge_ids) -> np.ndarray:
        """Outward unit normals for the given boundary edge ids."""
        sign = self.outward_sign[edge_ids]
        if (sign == 0).any():
            raise ValueError("outward normal requested for an interior edge")
        return self.normals[edge_ids] * sign[:, None]


def generate_structured(n: int, perturb: float = 0.0) -> Mesh:
    """Crisscross triangulation of the unit square with 2*n*n triangles.

    Cells are split along alternating diagonals. With ``perturb`` > 0 the
    interior vertices are displaced by at most ``perturb / n`` per coordinate
    using a fixed pseudo-random sequence, emulating an unstructured
    quasi-uniform family; boundary vertices stay put.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= perturb < 0.3:
        raise ValueError("perturb must lie in [0, 0.3)")
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    verts = np.column_stack([ii.ravel() / n, jj.ravel() / n]).astype(float)
    if perturb > 0.0 and n > 1:
        # coordinate-hashed draws: a vertex shared between refinement levels
        # gets the same unit displacement (scaled by 1/n), which keeps the
        # mesh family correlated across levels
        shift = _coordinate_noise(verts) * (perturb / n)
        interior = (ii.ravel() != 0) & (ii.ravel() != n) & (jj.ravel() != 0) & (jj.ravel() != n)
        verts[interior] += shift[interior]
    # cell (i, j), in row-major order, yields two triangles from its corners
    i, j = np.divmod(np.arange(n * n), n)
    v00 = i * (n + 1) + j
    v10, v01, v11 = v00 + n + 1, v00 + 1, v00 + n + 2
    even = ((i + j) % 2 == 0)[:, None]
    first = np.where(even, np.column_stack([v00, v10, v11]), np.column_stack([v00, v10, v01]))
    second = np.where(even, np.column_stack([v00, v11, v01]), np.column_stack([v10, v11, v01]))
    tris = np.stack([first, second], axis=1).reshape(-1, 3)
    areas = _signed_areas(verts, tris)
    if (areas <= 0).any():
        raise MeshError(
            f"perturb={perturb} inverted triangle {int(np.argmax(areas <= 0))}; reduce the jitter"
        )
    return Mesh(verts, tris, np.zeros(len(tris), dtype=np.int64))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children through edge midpoints."""
    topo = build_topology(mesh)
    midpoints = 0.5 * (mesh.vertices[topo.edges[:, 0]] + mesh.vertices[topo.edges[:, 1]])
    verts = np.vstack([mesh.vertices, midpoints])
    V = mesh.num_vertices
    t = mesh.triangles
    m = V + topo.tri_to_edge  # midpoint vertex of local edge i (opposite vertex i)
    children = np.concatenate(
        [
            np.stack([t[:, 0], m[:, 2], m[:, 1]], axis=1),
            np.stack([t[:, 1], m[:, 0], m[:, 2]], axis=1),
            np.stack([t[:, 2], m[:, 1], m[:, 0]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ]
    )
    region = np.concatenate([mesh.region_id] * 4)
    return Mesh(verts, children, region)


def build_topology(mesh: Mesh, slit=None) -> Topology:
    """Deduplicate edges, orient them low->high, and attach geometry.

    ``slit``, a segment ((x0, y0), (x1, y1)), is only checked to be a union of
    interior mesh edges (``resolve_slit``); only the benchmark passes it.
    """
    t = mesh.triangles
    V, T = mesh.num_vertices, mesh.num_triangles
    # local edge i is opposite local vertex i; row local*T + tri of the stack
    raw = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]]), axis=1)
    # lo*V + hi sorts like the pair (lo, hi)
    keys, inverse = np.unique(raw[:, 0] * V + raw[:, 1], return_inverse=True)
    edges = np.column_stack([keys // V, keys % V])
    E = len(edges)
    tri_to_edge = inverse.reshape(3, T).T.copy()

    # the rows of each edge, in stack order: (local edge, triangle) ascending
    count = np.bincount(inverse, minlength=E)
    rows = np.argsort(inverse, kind="stable")
    first = np.cumsum(count) - count
    crowded = np.flatnonzero(count > 2)
    if crowded.size:
        e = crowded[np.argmin(rows[first[crowded] + 2])]  # first to gain a third
        raise MeshError(f"edge {edges[e].tolist()} is shared by more than 2 triangles")
    is_boundary = count == 1
    edge_to_tri = np.full((E, 2), -1, dtype=np.int64)
    edge_to_tri[:, 0] = rows[first] % T
    edge_to_tri[~is_boundary, 1] = rows[first[~is_boundary] + 1] % T

    vec = mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]]
    h_F = np.linalg.norm(vec, axis=1)
    if (h_F <= 0).any():
        raise MeshError("zero-length edge")
    tang = vec / h_F[:, None]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]])

    centroids = mesh.vertices[t].mean(axis=1)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    outward_sign = np.zeros(E)
    b = np.flatnonzero(is_boundary)
    toward = midpoints[b] - centroids[edge_to_tri[b, 0]]
    outward_sign[b] = np.where((normals[b] * toward).sum(axis=1) > 0, 1.0, -1.0)

    # hanging-node guard: an edge midpoint at a vertex other than its ends
    # means the neighbour was refined. Points are compared as complex numbers
    # relative to the bounding box; coincident vertices resolve to the last.
    lo, extent = mesh.bounding_box()
    points = np.round((np.concatenate([mesh.vertices, midpoints]) - lo) / extent, 12)
    _, place = np.unique(points[:, 0] + 1j * points[:, 1], return_inverse=True)
    vertex_at = np.full(V + E, -1)
    np.maximum.at(vertex_at, place[:V], np.arange(V))
    hit = vertex_at[place[V:]]
    hanging = (hit >= 0) & (hit != edges[:, 0]) & (hit != edges[:, 1])
    if hanging.any():
        e = np.argmax(hanging)
        raise MeshError(
            f"non-conforming mesh: vertex {hit[e]} hangs on an edge of triangle {edge_to_tri[e, 0]}"
        )
    # triangles that hold different indices of one point share no edge
    # through it: the domain would be cut open along those edges
    twin = np.flatnonzero(vertex_at[place[:V]] != np.arange(V))
    if twin.size:
        i, j = np.flatnonzero(place[:V] == place[twin[0]])[:2]
        x, y = mesh.vertices[i]
        raise MeshError(f"vertices {i} and {j} coincide at ({x:g}, {y:g})")

    # a vertex that no triangle holds would carry a W DOF with a zero row
    stray = np.setdiff1d(np.arange(V), t)
    if stray.size:
        raise MeshError(f"vertex {stray[0]} belongs to no triangle")

    areas = _signed_areas(mesh.vertices, t)
    h_K = np.sqrt(areas)

    topo = Topology(
        edges=edges,
        edge_to_tri=edge_to_tri,
        tri_to_edge=tri_to_edge,
        is_boundary=is_boundary,
        normals=normals,
        outward_sign=outward_sign,
        h_K=h_K,
        h_F=h_F,
    )
    if slit is not None:
        resolve_slit(mesh, topo, slit)
    return topo


def load_mesh(path: str) -> Mesh:
    """Read a mesh file: a Triangle .node/.ele pair (1-based; either file of
    the pair) if the path ends in .node or .ele, else native lsfem-mesh text
    (0-based)."""
    base = _triangle_base(path)
    return _load_native(path) if base is None else _load_triangle(base)


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write a mesh file, in the format that ``load_mesh`` reads from the
    path; a .node or .ele path writes both files of the pair."""
    base = _triangle_base(path)
    if base is None:
        with open(path, "w") as f:
            f.write("lsfem-mesh 1\n")
            f.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
            for x, y in mesh.vertices:
                f.write(f"{x:.17g} {y:.17g}\n")
            for (i, j, k), r in zip(mesh.triangles, mesh.region_id):
                f.write(f"{i} {j} {k} {r}\n")
        return
    with open(base + ".node", "w") as f:
        f.write(f"{mesh.num_vertices} 2 0 0\n")
        for idx, (x, y) in enumerate(mesh.vertices, start=1):
            f.write(f"{idx} {x:.17g} {y:.17g}\n")
    with open(base + ".ele", "w") as f:
        f.write(f"{mesh.num_triangles} 3 0\n")
        for idx, (i, j, k) in enumerate(mesh.triangles, start=1):
            f.write(f"{idx} {i + 1} {j + 1} {k + 1}\n")


def _triangle_base(path: str):
    """The path without its .node or .ele extension, or None for any other path."""
    root, ext = os.path.splitext(path)
    return root if ext in (".node", ".ele") else None


def _coordinate_noise(pts: np.ndarray) -> np.ndarray:
    """Deterministic pseudo-random values in [-1, 1] hashed from coordinates."""
    x, y = pts[:, 0], pts[:, 1]
    u = np.modf(np.sin(127.1 * x + 311.7 * y + 0.137) * 43758.5453)[0]
    v = np.modf(np.sin(269.5 * x + 183.3 * y + 0.731) * 19173.1927)[0]
    return np.column_stack([2.0 * np.abs(u) - 1.0, 2.0 * np.abs(v) - 1.0])


def _signed_areas(verts, tris):
    p = verts[tris]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


class _Rows:
    """The lines of a mesh file, '#' comments stripped. ``read`` parses the
    next non-blank line; a missing or malformed line raises MeshError naming
    the file and line."""

    def __init__(self, path):
        self.path = path
        self.lineno = 0
        self._lines = self._split(path)

    @staticmethod
    def _split(path):
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                yield lineno, line.split("#", 1)[0].split()

    def read(self, what, parse):
        for self.lineno, tok in self._lines:
            if tok:
                try:
                    return parse(tok)
                except (ValueError, IndexError, OverflowError):
                    raise MeshError(f"{self.path}:{self.lineno}: bad {what}") from None
        raise MeshError(f"{self.path}:{self.lineno + 1}: expected {what}, found end of file")


def _count(tok):
    n = int(tok)
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


def _ints(tok, *cols):
    return tuple(np.int64(tok[c]) for c in cols)


def _coords(tok, *cols):
    xy = tuple(float(tok[c]) for c in cols)
    if not np.isfinite(xy).all():
        raise ValueError("non-finite coordinate")
    return xy


def _load_native(path: str) -> Mesh:
    rows = _Rows(path)
    if rows.read("header 'lsfem-mesh 1'", lambda tok: tok[:2]) != ["lsfem-mesh", "1"]:
        raise MeshError(f"{path}:{rows.lineno}: expected header 'lsfem-mesh 1'")
    nv, nt = rows.read("'V T' count line", lambda tok: (_count(tok[0]), _count(tok[1])))
    # rows go to lists, not arrays sized by the counts: a count beyond the
    # file's length ends at its last line instead of in a huge allocation
    verts = [
        rows.read(f"vertex line {i}", lambda tok: _coords(tok, 0, 1)) for i in range(nv)
    ]
    # the region id in the fourth column defaults to 0
    tris = [
        rows.read(f"triangle line {i}", lambda tok: _ints(tok + ["0"], 0, 1, 2, 3))
        for i in range(nt)
    ]
    tris = np.array(tris, dtype=np.int64).reshape(nt, 4)
    try:
        return Mesh(np.array(verts, dtype=float).reshape(nv, 2), tris[:, :3], tris[:, 3])
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


def _load_triangle(base: str) -> Mesh:
    node_path, ele_path = base + ".node", base + ".ele"
    for p in (node_path, ele_path):
        if not os.path.exists(p):
            raise MeshError(f"missing file {p}")
    rows = _Rows(node_path)
    nv = rows.read("node count line", lambda tok: _count(tok[0]))
    nodes = [
        rows.read(f"node line {i}", lambda tok: (np.int64(tok[0]), *_coords(tok, 1, 2)))
        for i in range(nv)
    ]
    ids = np.array([node[0] for node in nodes], dtype=np.int64)
    verts = np.array([node[1:] for node in nodes], dtype=float).reshape(nv, 2)
    rows = _Rows(ele_path)
    nt = rows.read("element count line", lambda tok: _count(tok[0]))
    # (line, node, node, node); trailing attribute columns are ignored
    elements = [
        rows.read(f"element line {i}", lambda tok: (rows.lineno, *_ints(tok, 1, 2, 3)))
        for i in range(nt)
    ]
    elements = np.array(elements, dtype=np.int64).reshape(nt, 4)
    lines, refs = elements[:, 0], elements[:, 1:]
    unknown = ~np.isin(refs, ids)
    if unknown.any():
        row = np.argmax(unknown.any(axis=1))
        raise MeshError(
            f"{ele_path}:{lines[row]}: element references unknown node {refs[row][unknown[row]][0]}"
        )
    # node ids may be any integers; a repeated id names its last node
    order = np.argsort(ids, kind="stable")
    tris = order[np.searchsorted(ids[order], refs, side="right") - 1]
    try:
        return Mesh(verts, tris, np.zeros(nt, dtype=np.int64))
    except MeshError as exc:
        raise MeshError(f"{ele_path}: {exc}") from None


def resolve_slit(mesh: Mesh, topo: Topology, slit) -> np.ndarray:
    """Ascending indices of the interior edges of ``topo`` that make up ``slit``."""
    tol = 1e-12 * mesh.bounding_box()[1]
    (x0, y0), (x1, y1) = slit
    a = np.array([x0, y0], dtype=float)
    d = np.array([x1, y1], dtype=float) - a
    length = np.linalg.norm(d)
    if length <= 0:
        raise ValueError("slit segment has zero length")
    d = d / length

    # arc length s of every vertex along the segment, and which lie on it
    rel = mesh.vertices - a
    s = rel @ d
    on = (np.abs(rel[:, 0] * d[1] - rel[:, 1] * d[0]) <= tol) & (s >= -tol) & (s <= length + tol)
    found = np.flatnonzero(on[topo.edges[:, 0]] & on[topo.edges[:, 1]])
    if topo.is_boundary[found].any():
        raise MeshError("slit segment touches a boundary edge; interior edges required")
    ends = np.sort(s[topo.edges[found]], axis=1)
    lo, hi = ends[np.argsort(ends[:, 0])].T
    # reach[i]: how far the edges before the i-th cover the segment from 0
    reach = np.maximum.accumulate(np.concatenate([[0.0], hi]))
    gap = np.flatnonzero(lo > reach[:-1] + tol)
    if gap.size or reach[-1] < length - tol:
        start, stop = (reach[gap[0]], lo[gap[0]]) if gap.size else (reach[-1], length)
        raise MeshError(
            f"slit not resolved by the mesh: no edge covers "
            f"[{start / length:.6g}, {stop / length:.6g}] of the segment"
        )
    return found
