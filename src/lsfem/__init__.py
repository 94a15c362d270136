"""First-order least-squares finite elements for convection-dominated
diffusion on triangles, with weakly imposed Dirichlet boundary conditions,
a pure-transport specialization, and a verification harness for
convergence rates and condition-number scaling.
"""

# the command line, lsfem.cli, is left out, so that `python -m lsfem.cli`
# runs it as a fresh module
from . import assembly, bench, fem, mesh, solver

__version__ = "0.1.0"

__all__ = ["assembly", "bench", "fem", "mesh", "solver", "__version__"]
