"""Reference-element machinery: quadrature, bases, DOF maps, geometry."""

from .quadrature import QuadRule, edge_rule, triangle_rule
from .basis import (
    LOCAL_EDGES,
    edge_ref_points,
    lagrange_basis,
    lagrange_nodes,
    reference_tables,
    rt_basis,
    rt_dimension,
    rt_dofs,
    rt_edge_dofs,
)
from .dofmap import DofMap, build_dofmap
from .geometry import (
    ElementGeometry,
    edge_quadrature,
    element_geometry,
    q_tables,
    w_tables,
)

# assembly uses degree 2(k+2)+2; error norms add another +2 of margin
def assembly_degree(k: int) -> int:
    return 2 * (k + 2) + 2


def error_degree(k: int) -> int:
    return 2 * (k + 2) + 4
