"""First-order least-squares finite elements for convection-dominated
diffusion on triangles, with weakly imposed Dirichlet boundary conditions,
a pure-transport specialization, and a verification harness for
convergence rates and condition-number scaling.
"""
import importlib

__version__ = "0.1.0"

__all__ = ["assembly", "bench", "fem", "mesh", "solver", "__version__"]


def __getattr__(name):
    # submodules load on first use, so that importing the package loads no
    # numpy and the command line, lsfem.cli, can pin the thread pools first
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
