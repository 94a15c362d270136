"""The nested-dissection pre-order that ``LinearSystem.order`` gives the
factor, checked against Morton codes and tree cells computed element by
element in Python integers."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered_relabelled_meshes
from lsfem import fem
from lsfem.assembly import assemble_ls, assemble_transport
from lsfem.bench import get_problem
from lsfem.mesh import build_topology
from lsfem.solver import factorize

SLIT = ((0.5, 0.0), (0.5, 0.5))
KINDS = ("weak", "strong", "slit", "transport")


def system(kind, mesh, k, condense):
    topo = build_topology(mesh, slit=SLIT if kind == "slit" else None)
    dm = fem.build_dofmap(mesh, topo, k)
    if kind == "transport":
        return assemble_transport(get_problem("transport"), mesh, topo, dm, condense), dm
    problem = get_problem("rotating" if kind == "slit" else "boundary-layer", 1e-3)
    mode = "strong" if kind == "strong" else "weak"
    return assemble_ls(problem, mesh, topo, dm, mode, condense), dm


def element_codes(geo):
    """Morton code of each element's centroid on a 2^b x 2^b grid over the
    centroids' bounding box, b = ceil(log2(T) / 2): x in the odd bits, y in
    the even ones."""
    centroid = geo.v0 + geo.jac.sum(axis=2) / 3.0
    low, high = centroid.min(axis=0), centroid.max(axis=0)
    b = math.ceil(math.log2(len(centroid)) / 2)
    codes = []
    for point in centroid:
        ix, iy = (min(int((p - lo) / (hi - lo) * 2**b), 2**b - 1)
                  for p, lo, hi in zip(point, low, high))
        codes.append(sum((((ix >> j) & 1) << (2 * j + 1)) | (((iy >> j) & 1) << (2 * j))
                         for j in range(b)))
    return codes


def dof_cells(linsys, geo):
    """(first, last) code of the least tree cell that holds every element of
    each DOF: the codes that agree with all of them above some bit."""
    codes = element_codes(geo)
    spans = {}
    for element, dofs in enumerate(linsys.skeleton.tolist()):
        for dof in dofs:
            lo, hi = spans.get(dof, (codes[element], codes[element]))
            spans[dof] = (min(lo, codes[element]), max(hi, codes[element]))
    n = linsys.matrix.n
    assert len(spans) == n  # every DOF belongs to an element
    first, last = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for dof, (lo, hi) in spans.items():
        h = (lo ^ hi).bit_length()
        first[dof] = lo >> h << h
        last[dof] = first[dof] + 2**h - 1
    return first, last


@pytest.mark.parametrize("k", [0, 1, 2])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(mesh=jittered_relabelled_meshes(sizes=st.sampled_from([2, 4, 6]), fixed_x=0.5))
def test_order_is_a_postorder_of_mesh_cells(k, mesh):
    for kind in KINDS:
        for condense in (False, True):
            linsys, dm = system(kind, mesh, k, condense)
            A, order = linsys.matrix, linsys.order
            assert np.array_equal(np.sort(order), np.arange(A.n))
            position = np.empty(A.n, dtype=np.int64)
            position[order] = np.arange(A.n)
            first, last = dof_cells(linsys, dm.geo)
            # a postorder of the cells: by last code, then the smaller cell first
            steps = np.diff(np.stack([last[order], last[order] - first[order]]), axis=1)
            assert ((steps[0] > 0) | ((steps[0] == 0) & (steps[1] >= 0))).all(), (kind, condense)
            # every stored entry couples two DOFs whose cells are nested, and
            # the DOF in the smaller cell comes first
            rows = np.repeat(np.arange(A.n), np.diff(A.indptr))
            cols = A.indices
            i_in_j = (first[cols] <= first[rows]) & (last[rows] <= last[cols])
            j_in_i = (first[rows] <= first[cols]) & (last[cols] <= last[rows])
            assert (i_in_j | j_in_i).all(), (kind, condense)
            smaller = i_in_j & ~j_in_i
            assert (position[rows[smaller]] < position[cols[smaller]]).all(), (kind, condense)
            # the factor of P A P^T solves with A itself
            x = factorize(A, np.arange(A.n))(linsys.rhs)
            x_ordered = factorize(A, order)(linsys.rhs)
            assert np.linalg.norm(x_ordered - x) <= 1e-10 * np.linalg.norm(x), (kind, condense)
