import os
import re

import numpy as np
import pytest

from conftest import slit_oracle, topology_oracle
from lsfem.mesh import (
    Mesh,
    MeshError,
    build_topology,
    generate_structured,
    load_mesh,
    refine_uniform,
    resolve_slit,
    save_mesh,
)

SLIT = ((0.5, 0.0), (0.5, 0.5))


def test_unit_square_split():
    mesh = generate_structured(1, 0.0)
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 4
    topo = build_topology(mesh)
    assert topo.num_edges == 5
    assert topo.is_boundary.sum() == 4
    assert (~topo.is_boundary).sum() == 1


def test_euler_count_structured():
    # Euler oracle on the n=4 grid: V=(n+1)^2, T=2n^2, E from V - E + T = 1
    mesh = generate_structured(4, 0.0)
    assert mesh.num_vertices == 25
    assert mesh.num_triangles == 32
    topo = build_topology(mesh)
    assert mesh.num_vertices - topo.num_edges + mesh.num_triangles == 1
    assert topo.num_edges == 56


@pytest.mark.parametrize("n,perturb", [(4, 0.2), (8, 0.15), (3, 0.29)])
def test_perturbed_keeps_connectivity_and_positivity(n, perturb):
    base = generate_structured(n, 0.0)
    jittered = generate_structured(n, perturb)
    assert np.array_equal(base.triangles, jittered.triangles)
    assert (jittered.areas() > 0).all()
    # boundary vertices unmoved
    on_bdry = (
        (base.vertices[:, 0] == 0) | (base.vertices[:, 0] == 1)
        | (base.vertices[:, 1] == 0) | (base.vertices[:, 1] == 1)
    )
    assert np.array_equal(base.vertices[on_bdry], jittered.vertices[on_bdry])
    # displacement bounded by perturb / n per coordinate
    delta = np.abs(jittered.vertices - base.vertices).max()
    assert delta <= perturb / n + 1e-15


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_structured(0)
    with pytest.raises(ValueError):
        generate_structured(4, 0.3)
    with pytest.raises(ValueError):
        generate_structured(4, -0.1)


@pytest.mark.parametrize("n,perturb", [(1, 0.0), (4, 0.0), (4, 0.2), (6, 0.15)])
def test_area_sum_is_one(n, perturb):
    mesh = generate_structured(n, perturb)
    assert abs(mesh.areas().sum() - 1.0) < 1e-12
    fine = refine_uniform(mesh)
    assert abs(fine.areas().sum() - 1.0) < 1e-12


def test_refine_counts_and_similarity():
    mesh = generate_structured(1, 0.0)
    fine = refine_uniform(mesh)
    assert fine.num_triangles == 8
    assert fine.num_vertices == 9
    # 4x elements per level
    mesh32 = generate_structured(4, 0.0)
    twice = refine_uniform(refine_uniform(mesh32))
    assert twice.num_triangles == 512
    # children are similar with ratio exactly 1/2 in h_K
    mesh = generate_structured(3, 0.2)
    topo = build_topology(mesh)
    fine = refine_uniform(mesh)
    ftopo = build_topology(fine)
    parent = np.repeat(topo.h_K, 1)
    child = ftopo.h_K.reshape(4, -1)
    for quarter in child:
        assert np.allclose(quarter / parent, 0.5, rtol=1e-12)


def test_refine_preserves_min_angle():
    mesh = generate_structured(3, 0.25)
    fine = refine_uniform(mesh)
    assert abs(mesh.min_angle() - fine.min_angle()) < 1e-12


def test_refine_vertex_count_is_v_plus_e():
    mesh = generate_structured(3, 0.1)
    topo = build_topology(mesh)
    fine = refine_uniform(mesh)
    assert fine.num_vertices == mesh.num_vertices + topo.num_edges


def test_interior_edges_have_opposite_orientations():
    mesh = generate_structured(4, 0.2)
    topo = build_topology(mesh)
    # collect directed boundary edges of every triangle (CCW traversal)
    directed = set()
    for tri in mesh.triangles:
        for a, b in ((tri[1], tri[2]), (tri[2], tri[0]), (tri[0], tri[1])):
            directed.add((int(a), int(b)))
    for e in np.flatnonzero(~topo.is_boundary):
        a, b = topo.edges[e]
        assert (int(a), int(b)) in directed and (int(b), int(a)) in directed


def test_boundary_normals_point_outward():
    mesh = generate_structured(2, 0.0)
    topo = build_topology(mesh)
    b = topo.boundary_edges
    nrm = topo.outward_normals(b)
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0, atol=1e-14)
    mids = 0.5 * (mesh.vertices[topo.edges[b, 0]] + mesh.vertices[topo.edges[b, 1]])
    # outward from the unit square center
    assert ((mids - 0.5) * nrm).sum(axis=1).min() > 0
    # bottom edge normal is (0, -1)
    bottom = b[np.abs(mids[:, 1]) < 1e-12]
    assert np.allclose(topo.outward_normals(bottom), [0.0, -1.0], atol=1e-14)


def test_native_roundtrip(tmp_path):
    mesh = generate_structured(1, 0.0)
    path = str(tmp_path / "square.mesh")
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.allclose(back.vertices, mesh.vertices)


def test_triangle_format_roundtrip(tmp_path):
    # a .node or .ele path names a Triangle pair, whichever file it ends in
    mesh = generate_structured(4, 0.0)
    base = str(tmp_path / "grid")
    save_mesh(mesh, base + ".ele")
    assert sorted(os.listdir(tmp_path)) == ["grid.ele", "grid.node"]
    assert open(base + ".node").readline() == "25 2 0 0\n"
    for ext in (".node", ".ele"):
        back = load_mesh(base + ext)
        assert back.num_vertices == 25
        assert back.num_triangles == 32
        assert np.array_equal(back.triangles, mesh.triangles)


def test_load_rejects_out_of_range_vertex(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("lsfem-mesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 99\n")
    with pytest.raises(MeshError, match="99"):
        load_mesh(str(path))


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("lsfem-mesh 1\n2 1\n0 0\nnot-a-number 0\n0 1 2\n")
    with pytest.raises(MeshError, match=":4"):
        load_mesh(str(path))


def test_duplicate_triangle_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(MeshError, match="duplicate"):
        Mesh(np.array(verts, float), np.array([[0, 1, 2], [2, 1, 0]]), np.zeros(2, int))


def test_degenerate_triangle_rejected():
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(MeshError, match="area"):
        Mesh(verts, np.array([[0, 1, 2]]), np.zeros(1, int))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_rejected(bad):
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (bad, 1.0)])
    with pytest.raises(MeshError, match="vertex 2 has a non-finite coordinate"):
        Mesh(verts, np.array([[0, 1, 2]]), np.zeros(1, int))


def test_hanging_node_detected():
    # vertex 3 sits in the middle of the bottom triangle's edge (0, 1)
    verts = np.array([(0, 0), (1, 0), (0, 1), (0.5, 0.0), (0.5, -0.5)], dtype=float)
    tris = np.array([[0, 3, 2], [3, 1, 2], [1, 0, 4]])
    with pytest.raises(MeshError, match="non-conforming"):
        build_topology(Mesh(verts, tris, np.zeros(3, int)))


def test_edge_shared_by_three_triangles_rejected():
    # triangles above, below and again above the edge (0, 1)
    verts = np.array([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.3, 0.5)], dtype=float)
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"edge \[0, 1\] is shared by more than 2 triangles"):
        build_topology(Mesh(verts, tris, np.zeros(3, int)))


def test_cw_input_is_reoriented():
    verts = np.array([(0, 0), (1, 0), (0, 1)], dtype=float)
    mesh = Mesh(verts, np.array([[0, 2, 1]]), np.zeros(1, int))
    assert mesh.areas()[0] > 0


def test_slit_flags_edges():
    mesh = generate_structured(8, 0.0)
    topo = build_topology(mesh)
    slit_edges = resolve_slit(mesh, topo, SLIT)
    assert np.array_equal(slit_edges, slit_oracle(mesh, topology_oracle(mesh), SLIT))
    assert len(slit_edges) == 4
    for e in slit_edges:
        assert not topo.is_boundary[e]
        va, vb = mesh.vertices[topo.edges[e]]
        assert abs(va[0] - 0.5) < 1e-12 and abs(vb[0] - 0.5) < 1e-12


def test_slit_unresolved_reports_gap():
    # build_topology's slit keyword still checks the segment, storing nothing
    mesh = generate_structured(8, 0.0)
    with pytest.raises(MeshError, match="slit not resolved"):
        build_topology(mesh, slit=((0.55, 0.0), (0.55, 0.5)))
    with pytest.raises(MeshError, match="slit not resolved"):
        resolve_slit(mesh, build_topology(mesh), ((0.55, 0.0), (0.55, 0.5)))


def test_h_sizes():
    mesh = generate_structured(2, 0.0)
    topo = build_topology(mesh)
    assert np.allclose(topo.h_K, np.sqrt(mesh.areas()))
    lengths = np.linalg.norm(
        mesh.vertices[topo.edges[:, 1]] - mesh.vertices[topo.edges[:, 0]], axis=1
    )
    assert np.allclose(topo.h_F, lengths)


@pytest.mark.parametrize(
    "scale, shift, slit",
    [(1e-13, 0.0, None), (1e13, 0.0, None), (1.0, 1e6, None),
     (1e-13, 0.0, SLIT), (1.0, 0.0, SLIT), (1e13, 0.0, SLIT)],
    ids=["scaled-1e-13", "scaled-1e13", "shifted-1e6",
         "slit-scaled-1e-13", "slit-unscaled", "slit-scaled-1e13"],
)
def test_topology_does_not_depend_on_units(scale, shift, slit):
    # the conformity checks and the slit search compare points relative to
    # the mesh's extent; the slit needs the unjittered x = 1/2 gridline
    mesh = generate_structured(4, 0.0 if slit else 0.1)
    ref = build_topology(mesh)
    ref_slit = None if slit is None else resolve_slit(mesh, ref, slit)
    assert slit is None or ref_slit.size == 2
    moved = Mesh(mesh.vertices * scale + shift, mesh.triangles, mesh.region_id)
    moved_slit = None if slit is None else np.asarray(slit) * scale + shift
    for build, resolve in ((build_topology, resolve_slit), (topology_oracle, slit_oracle)):
        topo = build(moved)
        for name in ("edges", "edge_to_tri", "is_boundary"):
            assert np.array_equal(getattr(topo, name), getattr(ref, name))
        if slit is not None:
            assert np.array_equal(resolve(moved, topo, moved_slit), ref_slit)


@pytest.mark.parametrize(
    "verts, tris, message",
    [
        pytest.param([(0, 0), (1, 0), (0, 1), (0.5, 0.0), (0.5, -0.5)],
                     [[0, 3, 2], [3, 1, 2], [1, 0, 4]],
                     "non-conforming mesh: vertex 3 hangs on an edge of triangle 2",
                     id="hanging-node"),
        pytest.param([(0, 0), (1, 0), (1, 1), (0, 1), (1, 1)], [[0, 1, 2], [0, 4, 3]],
                     r"vertices 2 and 4 coincide at \(1e-13, 1e-13\)", id="crack"),
    ],
)
def test_small_non_conforming_mesh_rejected(verts, tris, message):
    mesh = Mesh(np.array(verts, dtype=float) * 1e-13, np.array(tris), np.zeros(len(tris), int))
    for build in (build_topology, topology_oracle):
        with pytest.raises(MeshError, match=message):
            build(mesh)


def _triangle_pair(tmp_path, node, ele=None):
    (tmp_path / "m.node").write_text(node)
    if ele is not None:
        (tmp_path / "m.ele").write_text(ele)
    return load_mesh(str(tmp_path / "m.node"))


def _native(tmp_path, text):
    (tmp_path / "m.mesh").write_text(text)
    return load_mesh(str(tmp_path / "m.mesh"))


SQUARE_NODE = "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n"


def _resolve_on_grid(slit):
    mesh = generate_structured(2, 0.0)
    return resolve_slit(mesh, build_topology(mesh), slit)


def _interior_normal():
    topo = build_topology(generate_structured(2, 0.0))
    return topo.outward_normals(np.flatnonzero(~topo.is_boundary)[:1])


# (action on tmp_path, error type, message with {dir} standing for tmp_path)
REJECTIONS = [
    pytest.param(lambda tmp: Mesh(np.zeros((3, 3)), [[0, 1, 2]], [0]), MeshError,
                 r"vertices must be a \(V, 2\) array", id="vertices-not-V-by-2"),
    pytest.param(lambda tmp: Mesh(np.eye(3, 2), [[0, 1]], [0]), MeshError,
                 r"triangles must be a \(T, 3\) array", id="triangles-not-T-by-3"),
    pytest.param(lambda tmp: Mesh(np.eye(3, 2), [[0, 1, 2]], [0, 0]), MeshError,
                 "region_id must have one entry per triangle", id="region-id-length"),
    pytest.param(lambda tmp: _interior_normal(), ValueError,
                 "outward normal requested for an interior edge", id="interior-edge-normal"),
    pytest.param(lambda tmp: _native(tmp, "lsfem-mesh 1\n-1 0\n"), MeshError,
                 r"{dir}/m\.mesh:2: bad 'V T' count line", id="negative-count"),
    pytest.param(lambda tmp: _native(tmp, "lsfem-mesh 2\n0 0\n"), MeshError,
                 r"{dir}/m\.mesh:1: expected header 'lsfem-mesh 1'", id="native-header"),
    pytest.param(lambda tmp: _triangle_pair(tmp, SQUARE_NODE), MeshError,
                 r"missing file {dir}/m\.ele", id="missing-ele"),
    pytest.param(lambda tmp: _triangle_pair(tmp, SQUARE_NODE, "1 3 0\n1 1 2 9\n"), MeshError,
                 r"{dir}/m\.ele:2: element references unknown node 9", id="unknown-node"),
    pytest.param(lambda tmp: _triangle_pair(tmp, "3 2 0 0\n1 0 0\n2 1 0\n3 2 0\n",
                                            "1 3 0\n1 1 2 3\n"), MeshError,
                 r"{dir}/m\.ele: triangle 0 has non-positive area 0\.000e\+00",
                 id="degenerate-element"),
    pytest.param(lambda tmp: _resolve_on_grid(((0.5, 0.0), (0.5, 0.0))), ValueError,
                 "slit segment has zero length", id="zero-length-slit"),
    pytest.param(lambda tmp: _resolve_on_grid(((0.0, 0.0), (0.5, 0.0))), MeshError,
                 "slit segment touches a boundary edge; interior edges required",
                 id="slit-on-boundary"),
]


@pytest.mark.parametrize("action, error, message", REJECTIONS)
def test_rejection_names_its_cause(tmp_path, action, error, message):
    with pytest.raises(ValueError) as info:
        action(tmp_path)
    assert type(info.value) is error
    assert re.fullmatch(message.format(dir=re.escape(str(tmp_path))), str(info.value))
