"""Property tests of the mesh layer: topology against a loop-based oracle,
and mesh files that read back what was written."""
import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def meshes(draw):
    """A crisscross mesh, maybe refined once, with its vertices relabelled,
    its triangles permuted and random region ids."""
    n = draw(st.integers(1, 8))
    mesh = generate_structured(n, draw(st.sampled_from((0.0, 0.1, 0.15, 0.2))))
    if draw(st.booleans()):
        mesh = refine_uniform(mesh)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vperm = rng.permutation(mesh.num_vertices)
    tperm = rng.permutation(mesh.num_triangles)
    return Mesh(
        vertices=mesh.vertices[np.argsort(vperm)],
        triangles=vperm[mesh.triangles][tperm],
        region_id=rng.integers(-3, 4, size=mesh.num_triangles),
    )


def _glued(mesh):
    """The mesh next to its own refinement, shifted by 1 in x. The shared
    side has coincident vertices, and the fine ones hang on coarse edges."""
    fine = refine_uniform(mesh)
    return Mesh(
        vertices=np.vstack([mesh.vertices, fine.vertices + [1.0, 0.0]]),
        triangles=np.vstack([mesh.triangles, fine.triangles + mesh.num_vertices]),
        region_id=np.concatenate([mesh.region_id, fine.region_id]),
    )


def _topology_or_error(build, mesh, resolve=None, slit=None):
    """The topology and the edges ``resolve`` finds for ``slit`` (None
    without one), or the message of the MeshError raised on the way."""
    try:
        topo = build(mesh)
        return topo, None if slit is None else resolve(mesh, topo, slit)
    except MeshError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(meshes(), st.booleans(), st.booleans())
def test_topology_matches_loop_oracle(mesh, with_slit, glue):
    # the slit resolves only where mesh lines run along x = 1/2; elsewhere
    # both must fail with the same message, as must the glued meshes
    if glue:
        mesh = _glued(mesh)
    slit = SLIT if with_slit else None
    ref = _topology_or_error(topology_oracle, mesh, slit_oracle, slit)
    new = _topology_or_error(build_topology, mesh, resolve_slit, slit)
    if isinstance(ref, str):
        assert new == ref
        return
    (ref, ref_slit), (new, new_slit) = ref, new
    if slit is not None:
        assert ref_slit.dtype == new_slit.dtype and np.array_equal(ref_slit, new_slit)
    for field in dataclasses.fields(ref):
        a, b = getattr(ref, field.name), getattr(new, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


@pytest.mark.parametrize(
    "extra, message",
    [
        pytest.param([(5.0, 5.0)], "belongs to no triangle", id="far"),
        pytest.param([(5.0, 5.0), (-1.0, 2.0)], "belongs to no triangle", id="two-far"),
        pytest.param([(0.5 / 3, 0.0)], "non-conforming", id="on-an-edge"),
        pytest.param([(5.0, 5.0), (0.5 / 3, 0.0)], "non-conforming", id="far-and-on-an-edge"),
    ],
)
def test_vertices_in_no_triangle_match_loop_oracle(extra, message):
    # stray vertices, relabelled among the others: a midpoint hangs, any
    # other names the lowest stray index, in both implementations
    mesh = generate_structured(3, 0.0)
    verts = np.vstack([mesh.vertices, extra])
    perm = np.random.default_rng(len(extra)).permutation(len(verts))
    stray = Mesh(verts[np.argsort(perm)], perm[mesh.triangles], mesh.region_id)
    ref = _topology_or_error(topology_oracle, stray)
    assert isinstance(ref, str) and message in ref
    assert _topology_or_error(build_topology, stray) == ref


@pytest.mark.parametrize(
    "copies",
    [
        pytest.param([(4, 0)], id="crack"),
        pytest.param([(4, 0), (9, 1)], id="two-cracks"),
        pytest.param([(4, 0), (4, 1)], id="three-at-a-point"),
        pytest.param([(4, None)], id="unused-copy"),
    ],
)
def test_coincident_vertices_match_loop_oracle(copies):
    # each copy of a vertex takes its place in one of the triangles that
    # hold it, or in none; after a relabelling, both implementations name
    # the lowest coincident pair
    mesh = generate_structured(3, 0.1)
    verts, tris = list(mesh.vertices), mesh.triangles.copy()
    for v, holder in copies:
        if holder is not None:
            row = np.flatnonzero((mesh.triangles == v).any(axis=1))[holder]
            tris[row, tris[row] == v] = len(verts)
        verts.append(mesh.vertices[v])
    perm = np.random.default_rng(len(copies)).permutation(len(verts))
    cracked = Mesh(np.array(verts)[np.argsort(perm)], perm[tris], mesh.region_id)
    ref = _topology_or_error(topology_oracle, cracked)
    assert isinstance(ref, str) and "coincide" in ref
    assert _topology_or_error(build_topology, cracked) == ref


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(meshes(), st.sampled_from((".node", ".ele", ".txt", ".node.txt", "")))
def test_mesh_file_round_trip(mesh, ext):
    # the extension picks the format: .node and .ele a Triangle pair, any
    # other the native one, the only one that keeps the region ids
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh" + ext)
        save_mesh(mesh, path)
        back = load_mesh(path)
    assert back.vertices.dtype == mesh.vertices.dtype
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    if ext not in (".node", ".ele"):
        assert np.array_equal(back.region_id, mesh.region_id)
