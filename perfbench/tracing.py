"""Per-layer tracing of lsfem from outside the program.

``Tracer.install()`` replaces the public entry points of each layer, in
every loaded module that bound them, with wrappers that record a span
(name, start, end, parent) and the counts the layer's return value carries.
``uninstall()`` puts the originals back. A layer's self time is the length
of its spans minus the time their directly nested traced spans cover.

Only the traced run imports this module, so untraced runs carry no cost.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter

from lsfem import assembly, mesh, solver
from lsfem.bench import errors, reports, studies
from lsfem.fem import dofmap, geometry

MIB = 1024.0 * 1024.0

# (layer key, module, attribute); the key's self time feeds "<key>_s"
TARGETS = (
    ("mesh.generate", mesh, "generate_structured"),
    ("mesh.topology", mesh, "build_topology"),
    ("fem.dofmap", dofmap, "build_dofmap"),
    ("fem.geometry", geometry, "element_geometry"),
    ("fem.tables", geometry, "w_tables"),
    ("fem.tables", geometry, "q_tables"),
    ("assembly.assemble", assembly, "assemble_ls"),
    ("assembly.assemble", assembly, "assemble_transport"),
    ("assembly.assemble", assembly, "apply_slit"),
    ("assembly.assemble", assembly, "mass_diagonal"),
    ("solver.symcheck", solver.SparseSym, "from_csr"),
    ("solver.cg", solver, "cg_solve"),
    ("solver.spectral", solver, "estimate_extremes"),
    ("errors.norms", errors, "error_norms"),
    ("errors.sample", errors, "sample_solution"),
    ("reports.write", reports, "write_vtk"),
    ("reports.write", reports, "write_convergence_csv"),
    ("reports.write", reports, "write_condition_csv"),
    ("studies.self", studies, "solve_problem"),
    ("studies.self", studies, "compare_bc_modes"),
    ("studies.self", studies, "condition_study"),
)

TIMED_KEYS = sorted({key for key, _, _ in TARGETS})
ASSEMBLY_FUNCTIONS = {attr for key, _, attr in TARGETS if key == "assembly.assemble"}
COUNTERS = (
    "fem.geometry_calls",
    "assembly.nnz",
    "assembly.dofs",
    "solver.symcheck_calls",
    "solver.cg_calls",
    "solver.cg_iters",
    "solver.spectral_cg_calls",
    "reports.bytes",
)


class Tracer:
    """Spans and counts for one traced pass; not thread-safe."""

    def __init__(self):
        self.spans = []          # [key, function, start, end, parent index]
        self.self_s = Counter()
        self.counts = Counter()
        self.assembly_peak = 0
        self._stack = []         # open span indices
        self._child_s = []       # time covered by direct children, per open span
        self._saved = []         # (namespace, attribute, original)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for key, owner, attr in TARGETS:
            if inspect.isclass(owner):
                original = owner.__dict__[attr]
                fn = original.__func__
                setattr(owner, attr, classmethod(self._wrap(key, f"{owner.__name__}.{attr}", fn)))
                self._saved.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(key, attr, original)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is not None and namespace.get(attr) is original:
                    setattr(module, attr, wrapped)
                    self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------
    def _open_functions(self):
        return [self.spans[i][1] for i in self._stack]

    def _wrap(self, key, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._open_functions()
            measure_memory = key == "assembly.assemble" and not any(
                f in ASSEMBLY_FUNCTIONS for f in outer
            )
            if measure_memory:
                tracemalloc.start()
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            start = time.perf_counter()
            tracer.spans.append([key, name, start, None, parent])
            tracer._stack.append(index)
            tracer._child_s.append(0.0)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                covered = tracer._child_s.pop()
                tracer.spans[index][3] = end
                tracer.self_s[key] += (end - start) - covered
                if tracer._child_s:
                    tracer._child_s[-1] += end - start
                if measure_memory:
                    tracer.assembly_peak = max(
                        tracer.assembly_peak, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
                tracer._count(name, outer, fn, args, kwargs, result, exc)

        return wrapper

    def _count(self, name, outer, fn, args, kwargs, result, exc):
        c = self.counts
        if name == "element_geometry":
            c["fem.geometry_calls"] += 1
        elif name == "SparseSym.from_csr":
            c["solver.symcheck_calls"] += 1
        elif name == "cg_solve":
            c["solver.cg_calls"] += 1
            stats = result[1] if result is not None else getattr(exc, "stats", None)
            if stats is not None:
                c["solver.cg_iters"] += stats.iterations
            if "estimate_extremes" in outer:
                c["solver.spectral_cg_calls"] += 1
        elif name in ("assemble_ls", "assemble_transport") and result is not None:
            if not any(f in ASSEMBLY_FUNCTIONS for f in outer):
                c["assembly.dofs"] += result.matrix.n
                c["assembly.nnz"] += len(result.matrix.data)
        elif name.startswith("write_") and exc is None:
            path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
            c["reports.bytes"] += os.path.getsize(path)

    # -- results ------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {f"{key}_s": (self.self_s[key], "s") for key in TIMED_KEYS}
        for name in COUNTERS:
            out[name] = (self.counts[name], "count" if name != "reports.bytes" else "bytes")
        iters = self.counts["solver.cg_iters"]
        out["solver.cg_ms_per_iter"] = (
            1e3 * self.self_s["solver.cg"] / iters if iters else 0.0, "ms"
        )
        out["assembly.peak_mib"] = (self.assembly_peak / MIB, "MiB")
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: key, function, start, end, parent."""
        with open(path, "w", encoding="utf-8") as f:
            for key, name, start, end, parent in self.spans:
                f.write(json.dumps({"key": key, "fn": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
