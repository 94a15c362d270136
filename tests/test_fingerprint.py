"""The catalogue's results against the committed fingerprint ``fingerprint.json``.

One record per solve: every catalogue entry, P1-P4, each of its BC modes,
eps in {1, 1e-3, 1e-9} (transport: 0) and n in {4, 8}, on the study meshes
(jitter ``DEFAULT_PERTURB``; rotating's slit mesh unjittered). Each holds
the DOF count, the CG iterations, ||x||, the projection of x on a seeded
unit vector and, where an exact solution exists, e_L2 and e_q. One record
per row of the condition study of ``smooth``, P1-P2, each BC mode, levels
(2, 4), holds kappa and tol_min + tol_max.

Integers compare exactly, the solution-derived floats within 1e-12 ||x||
(the BLAS thread count moves their last bits) and kappa within the row's
committed tol_min + tol_max. The floats are stored at repr precision, so a
regenerated file that equals the committed one byte for byte shows the
results bit-identical. Regenerate with

    PYTHONPATH=src python tests/test_fingerprint.py

and list every record that moved, and why, with the change.
"""
import json
import pathlib

import numpy as np
import pytest

from lsfem.assembly import BC_MODES
from lsfem.bench import PROBLEM_NAMES, condition_study, error_norms, get_problem, solve_problem
from lsfem.bench.studies import DEFAULT_PERTURB, build_case
from lsfem.fem.basis import MAX_ORDER

DATA = pathlib.Path(__file__).with_name("fingerprint.json")
EPSILONS = (1.0, 1e-3, 1e-9)
SIZES = (4, 8)
SOLUTION_REL = 1e-12
EXACT_KEYS = ("problem", "k", "bc", "eps", "n", "level", "dofs", "cg_iters")


def solve_records(name):
    """The solve records of one catalogue entry, in the file's order."""
    transport = get_problem(name).epsilon == 0.0
    records = []
    for k in range(MAX_ORDER):
        for bc in ("weak",) if transport else BC_MODES:
            for eps in (0.0,) if transport else EPSILONS:
                problem = get_problem(name, eps)
                for n in SIZES:
                    mesh, topo, dm = build_case(n, k, 0.0 if problem.slit else DEFAULT_PERTURB)
                    x, stats = solve_problem(problem, mesh, topo, dm, bc)
                    probe = np.random.default_rng(0).standard_normal(len(x))
                    record = dict(problem=name, k=k, bc=bc, eps=eps, n=n, dofs=len(x),
                                  cg_iters=stats.iterations, norm=float(np.linalg.norm(x)),
                                  projection=float(probe @ x / np.linalg.norm(probe)))
                    if problem.exact_u is not None:
                        report = error_norms(x, mesh, topo, dm, problem)
                        record.update(e_L2=report.e_L2, e_q=report.e_q)
                    records.append(record)
    return records


def condition_records():
    """The condition-study records, in the file's order."""
    return [
        dict(problem="smooth", k=k, bc=bc, eps=row.epsilon, level=row.level, dofs=row.n_dofs,
             kappa=row.estimate.kappa, tol=row.estimate.tol_min + row.estimate.tol_max)
        for k in (0, 1)
        for bc in BC_MODES
        for row in condition_study("smooth", k, bc, levels=(2, 4), epsilons=EPSILONS)
    ]


def fingerprint():
    return {"solves": [r for name in PROBLEM_NAMES for r in solve_records(name)],
            "condition": condition_records()}


def dumps(data) -> str:
    """One record per line, floats at repr precision."""
    return "{\n" + ",\n".join(
        f'"{part}": [\n' + ",\n".join(json.dumps(r) for r in records) + "\n]"
        for part, records in data.items()
    ) + "\n}\n"


def _assert_matches(got, want, allowance):
    """Each record's integers and keys equal, its floats within
    ``allowance(committed record)``; ``tol`` is kappa's allowance itself."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys(), w
        for key, value in w.items():
            if key in EXACT_KEYS:
                assert g[key] == value, (key, w)
            elif key != "tol":
                assert abs(g[key] - value) <= allowance(w), (key, g[key], w)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_solves_match_the_fingerprint(name):
    want = [r for r in json.loads(DATA.read_text())["solves"] if r["problem"] == name]
    _assert_matches(solve_records(name), want, lambda w: SOLUTION_REL * w["norm"])


def test_condition_rows_match_the_fingerprint():
    _assert_matches(condition_records(), json.loads(DATA.read_text())["condition"],
                    lambda w: w["tol"] * w["kappa"])


if __name__ == "__main__":
    DATA.write_text(dumps(fingerprint()))
    print(f"wrote {DATA}")
