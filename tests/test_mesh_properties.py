"""Property tests of the mesh layer: topology against a loop-based oracle,
and mesh files that read back what was written."""
import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import topology_oracle
from lsfem.mesh import (
    Mesh,
    MeshError,
    build_topology,
    generate_structured,
    load_mesh,
    refine_uniform,
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


def _topology_or_error(build, mesh, slit):
    try:
        return build(mesh, slit=slit)
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
    ref = _topology_or_error(topology_oracle, mesh, slit)
    new = _topology_or_error(build_topology, mesh, slit)
    if isinstance(ref, str):
        assert new == ref
        return
    for field in dataclasses.fields(ref):
        a, b = getattr(ref, field.name), getattr(new, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(meshes(), st.sampled_from(("native", "triangle")))
def test_mesh_file_round_trip(mesh, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.node" if fmt == "triangle" else "mesh.txt")
        save_mesh(mesh, path, format=fmt)
        back = load_mesh(path, format=fmt)
    assert back.vertices.dtype == mesh.vertices.dtype
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    if fmt == "native":
        assert np.array_equal(back.region_id, mesh.region_id)
