"""Property tests: the discrete solution does not depend on how the mesh is
numbered, and mirrors a mirrored mesh."""
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import dense_oracle_solve
from lsfem import fem
from lsfem.assembly import assemble_ls
from lsfem.bench import error_norms, get_problem, sample_solution
from lsfem.bench.problems import _manufactured
from lsfem.bench.studies import DEFAULT_PERTURB
from lsfem.mesh import Mesh, build_topology, generate_structured


def _solve(mesh, k, mode, problem):
    topo = build_topology(mesh)
    dm = fem.build_dofmap(mesh, topo, k)
    system = assemble_ls(problem, mesh, topo, dm, mode)
    x = dense_oracle_solve(system.matrix.toarray(), system.rhs)
    u_v, _ = sample_solution(x, mesh, dm)
    reports = [
        error_norms(x, mesh, topo, dm, problem, region=region)
        for region in (None, (0.0, 0.75, 0.0, 0.75))
    ]
    return u_v, reports


def _renumbered(n, k, mode, seed):
    rng = np.random.default_rng(seed)
    mesh = generate_structured(n, DEFAULT_PERTURB)
    return mesh, k, mode, rng.permutation(mesh.num_vertices), rng.permutation(mesh.num_triangles)


@st.composite
def renumbered_cases(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, 2))
    mode = draw(st.sampled_from(("weak", "strong", "alt-weak")))
    return _renumbered(n, k, mode, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(renumbered_cases())
@example(_renumbered(3, 3, "strong", 0))
def test_solution_invariant_under_renumbering(case):
    # vertex i becomes vertex vperm[i] and triangle tperm[j] becomes triangle j.
    # This reverses edge orientations, so q_sign and the DOF numbering change.
    # Each triangle keeps its local vertex order: rotating it moves the
    # collapsed-Gauss points, which changes u_h at the level of the
    # quadrature error.
    mesh, k, mode, vperm, tperm = case
    relabelled = Mesh(
        vertices=mesh.vertices[np.argsort(vperm)],
        triangles=vperm[mesh.triangles][tperm],
        region_id=mesh.region_id[tperm],
    )
    problem = get_problem("smooth", 1e-2)
    u_ref, reports_ref = _solve(mesh, k, mode, problem)
    u_new, reports_new = _solve(relabelled, k, mode, problem)
    _assert_agree(u_ref, reports_ref, u_new[vperm], reports_new)


def _symmetric_problem(k, eps=1e-2):
    """beta = (1, 1), c = 1 and u = s^p + t^p + x y, with s, t = 2x - 1, 2y - 1
    and p = k + 2: the problem is symmetric in x and y, and every integrand
    a polynomial that the assembly, face and error rules integrate exactly."""
    p = k + 2
    return _manufactured(
        "symmetric", eps,
        lambda x, y: (2 * x - 1) ** p + (2 * y - 1) ** p + x * y,
        lambda x, y: np.stack([2 * p * (2 * x - 1) ** (p - 1) + y,
                               2 * p * (2 * y - 1) ** (p - 1) + x], axis=-1),
        lambda x, y: 4 * p * (p - 1) * ((2 * x - 1) ** (p - 2) + (2 * y - 1) ** (p - 2)),
        c=lambda x, y: np.ones(np.shape(x)),
    )


@pytest.mark.parametrize("mode", ["weak", "strong", "alt-weak"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_solution_mirrors_under_reflection(k, mode):
    # (x, y) -> (y, x) maps the problem and both regions to themselves. Mesh
    # turns the mirrored triangles counterclockwise by swapping their local
    # vertices 1 and 2, which moves the quadrature points in each element;
    # with exact integrals only round-off differs.
    mesh = generate_structured(3, DEFAULT_PERTURB)
    mirror = Mesh(mesh.vertices[:, ::-1], mesh.triangles, mesh.region_id)
    problem = _symmetric_problem(k)
    _assert_agree(*_solve(mesh, k, mode, problem), *_solve(mirror, k, mode, problem))


def _assert_agree(u_ref, reports_ref, u_new, reports_new):
    """Vertex values and every ErrorReport field agree to 1e-10, relative."""
    scale = np.abs(u_ref).max()
    assert np.abs(u_new - u_ref).max() <= 1e-10 * scale
    for ref, new in zip(reports_ref, reports_new):
        for field in dataclasses.fields(ref):
            a, b = getattr(ref, field.name), getattr(new, field.name)
            if isinstance(a, float):
                assert abs(b - a) <= 1e-10 * abs(a), field.name
            else:
                assert a == b, field.name
