"""Property tests: the discrete solution does not depend on how the mesh is
numbered."""
import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dense_oracle_solve
from lsfem import fem
from lsfem.assembly import assemble_ls
from lsfem.bench import error_norms, get_problem, sample_solution
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


@st.composite
def renumbered_cases(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, 2))
    mode = draw(st.sampled_from(("weak", "strong", "alt-weak")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mesh = generate_structured(n, DEFAULT_PERTURB)
    return mesh, k, mode, rng.permutation(mesh.num_vertices), rng.permutation(mesh.num_triangles)


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(renumbered_cases())
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

    scale = np.abs(u_ref).max()
    assert np.abs(u_new[vperm] - u_ref).max() <= 1e-10 * scale
    for ref, new in zip(reports_ref, reports_new):
        for field in dataclasses.fields(ref):
            a, b = getattr(ref, field.name), getattr(new, field.name)
            if isinstance(a, float):
                assert abs(b - a) <= 1e-10 * abs(a), field.name
            else:
                assert a == b, field.name
