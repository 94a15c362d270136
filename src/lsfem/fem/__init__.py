"""Reference-element machinery: quadrature, bases, DOF maps, geometry."""

from .quadrature import QuadRule, edge_rule, triangle_rule
from .basis import (
    LOCAL_EDGES,
    REF_EDGE_NORMALS,
    REF_VERTS,
    lagrange_basis,
    lagrange_nodes,
    rt_basis,
    rt_dimension,
    rt_dof_matrix,
    rt_edge_dofs,
    shifted_legendre,
)
from .dofmap import DofMap, build_dofmap
from .geometry import (
    ElementGeometry,
    edge_quadrature,
    edge_ref_points,
    element_geometry,
    q_tables,
    signed_q_tables,
    volume_quadrature,
    w_tables,
)

# assembly uses degree 2(k+2)+2; error norms add another +2 of margin
def assembly_degree(k: int) -> int:
    return 2 * (k + 2) + 2


def error_degree(k: int) -> int:
    return 2 * (k + 2) + 4


__all__ = [
    "QuadRule",
    "edge_rule",
    "triangle_rule",
    "lagrange_basis",
    "lagrange_nodes",
    "rt_basis",
    "rt_dimension",
    "rt_dof_matrix",
    "rt_edge_dofs",
    "shifted_legendre",
    "DofMap",
    "build_dofmap",
    "ElementGeometry",
    "element_geometry",
    "edge_quadrature",
    "edge_ref_points",
    "q_tables",
    "signed_q_tables",
    "volume_quadrature",
    "w_tables",
    "assembly_degree",
    "error_degree",
    "LOCAL_EDGES",
    "REF_EDGE_NORMALS",
    "REF_VERTS",
]
