"""Tests of the benchmark itself: every workload runs at smoke size and
passes its checks, each check rejects a wrong answer, the tracer reports
every per-layer metric, and the command fails cleanly without sources.

    python3 -m pytest perfbench/tests -q
"""
import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lsfem import solver  # noqa: E402
from lsfem.bench import studies  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def test_workload_names_agree():
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(run.WORKLOADS) == set(workloads.PASSES)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    out = {}
    for name, run in workloads.PASSES.items():
        out_dir = str(tmp_path_factory.mktemp(name))
        out[name] = run(3, out_dir, size="smoke")
    return out


@pytest.mark.parametrize("name", sorted(workloads.PASSES))
def test_smoke_pass_is_correct(passes, name):
    p = passes[name]
    assert p.attempted > 0 and p.failed == 0 and p.dofs > 0
    assert workloads.check(name, p) == []


def test_same_seed_same_inputs():
    a = workloads.jittered_meshes((4, 8), 11)
    b = workloads.jittered_meshes((4, 8), 11)
    c = workloads.jittered_meshes((4, 8), 12)
    assert all(np.array_equal(x.vertices, y.vertices) for x, y in zip(a, b))
    assert not np.array_equal(a[1].vertices, c[1].vertices)
    # a lattice point of the coarse level moves by the same unit amount on both
    shift = [(m.vertices - workloads.generate_structured(n, 0.0).vertices) * n
             for n, m in zip((4, 8), a)]
    assert np.allclose(shift[0][6], shift[1][2 * 9 + 2])
    assert workloads.condition_epsilons(5) == workloads.condition_epsilons(5)


def _failures(name, p, text):
    bad = workloads.check(name, p)
    assert any(text in line for line in bad), bad
    return bad


def test_eps_sweep_rejects_perturbed_solution(passes):
    p = copy.copy(passes["eps-sweep"])
    s = dataclasses.replace(p.solves[0])
    s.x = s.x + 1e-6 * np.random.default_rng(0).standard_normal(len(s.x))
    p.solves = [s]
    _failures("eps-sweep", p, "relative residual")


def test_eps_sweep_rejects_unconverged_report(passes):
    p = copy.copy(passes["eps-sweep"])
    s = p.solves[0]
    stats = dataclasses.replace(s.stats, residual=2.0 * workloads.TOL, converged=False)
    p.solves = [dataclasses.replace(s, stats=stats)]
    _failures("eps-sweep", p, "CG reports residual")


def test_eps_sweep_rejects_worse_functional(passes):
    p = copy.copy(passes["eps-sweep"])
    s = dataclasses.replace(p.solves[-1], x=np.zeros_like(p.solves[-1].x))
    p.solves = [s]
    _failures("eps-sweep", p, "LS functional")


def test_eps_sweep_rejects_truncated_vtk(passes, tmp_path):
    p = copy.copy(passes["eps-sweep"])
    s = p.solves[1]
    with open(s.vtk, encoding="utf-8") as f:
        text = f.read()
    cut = str(tmp_path / "cut.vtk")
    with open(cut, "w", encoding="utf-8") as f:
        f.write(text[: len(text) * 2 // 3])
    p.solves = [dataclasses.replace(s, vtk=cut)]
    _failures("eps-sweep", p, "cut.vtk")


def test_condition_rejects_scaled_kappa(passes):
    p = copy.copy(passes["layer-ladder"])
    row = p.rows[0]
    est = dataclasses.replace(row.estimate, kappa=2.0 * row.estimate.kappa)
    p.rows = [dataclasses.replace(row, estimate=est)] + p.rows[1:]
    _failures("layer-ladder", p, "kappa")


def test_condition_rejects_wrong_eigenvalue(passes):
    p = copy.copy(passes["layer-ladder"])
    row = p.rows[-1]
    est = row.estimate
    est = dataclasses.replace(est, lambda_min=est.lambda_min * (1 + 1e-4))
    p.rows = p.rows[:-1] + [dataclasses.replace(row, estimate=est)]
    _failures("layer-ladder", p, "lambda_min")


def test_condition_rejects_truncated_csv(passes, tmp_path):
    p = copy.copy(passes["layer-ladder"])
    with open(p.csv, encoding="utf-8") as f:
        lines = f.read().splitlines()
    p.csv = str(tmp_path / "cut.csv")
    with open(p.csv, "w", encoding="utf-8") as f:
        f.write("\n".join(lines[:-2]) + "\n")
    _failures("layer-ladder", p, "cut.csv")


def test_layer_ladder_rejects_strong_beating_weak(passes):
    p = copy.copy(passes["layer-ladder"])
    p.ladders = dict(p.ladders)
    weak, strong = "boundary-layer_P1_weak", "boundary-layer_P1_strong"
    p.ladders[weak], p.ladders[strong] = p.ladders[strong], p.ladders[weak]
    _failures("layer-ladder", p, "not below strong")


def test_layer_ladder_rejects_wrong_eoc(passes):
    p = copy.copy(passes["layer-ladder"])
    p.ladders = dict(p.ladders)
    reports, path = p.ladders["boundary-layer_P2_weak"]
    reports = [copy.copy(r) for r in reports]
    reports[-1].eoc_L2 = 1.9
    p.ladders["boundary-layer_P2_weak"] = (reports, path)
    _failures("layer-ladder", p, "subdomain L2 EOC")


def test_layer_ladder_rejects_truncated_csv(passes, tmp_path):
    p = copy.copy(passes["layer-ladder"])
    p.ladders = dict(p.ladders)
    reports, path = p.ladders["transport_P2"]
    cut = str(tmp_path / "cut.csv")
    shutil.copy(path, cut)
    with open(cut, "r+", encoding="utf-8") as f:
        f.truncate(os.path.getsize(cut) - 40)
    p.ladders["transport_P2"] = (reports, cut)
    _failures("layer-ladder", p, "cut.csv")


def test_layer_ladder_rejects_wrong_transport_rate(passes):
    p = copy.copy(passes["layer-ladder"])
    p.ladders = dict(p.ladders)
    reports, path = p.ladders["transport_P2"]
    reports = [copy.copy(r) for r in reports]
    reports[-1].eoc_stream = 1.5
    p.ladders["transport_P2"] = (reports, path)
    _failures("layer-ladder", p, "streamline EOC")


def test_layer_ladder_rejects_missing_bump(passes):
    p = copy.copy(passes["layer-ladder"])
    s = next(s for s in p.solves if s.problem.name == "rotating" and s.mesh.num_triangles >= 512)
    x = s.x.copy()
    x[s.dofmap.n_q:] = 0.0
    p.solves = [dataclasses.replace(s, x=x, vtk=None)]
    bad = workloads._check_rotating(p)
    assert any("no bump" in line for line in bad), bad


@pytest.mark.parametrize("name", sorted(workloads.PASSES))
def test_tracer_reports_every_layer_metric(name, tmp_path):
    original = (solver.cg_solve, studies.solve_problem, solver.SparseSym.__dict__["from_csr"])
    with tracing.Tracer() as tracer:
        assert studies.solve_problem is not original[1]
        workloads.PASSES[name](3, str(tmp_path), size="smoke")
    assert (solver.cg_solve, studies.solve_problem,
            solver.SparseSym.__dict__["from_csr"]) == original
    metrics = tracer.metrics()
    expected = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert set(metrics) == expected
    assert metrics["assembly.nnz"][0] > 0 and metrics["solver.symcheck_calls"][0] > 0
    assert metrics["solver.cg_calls"][0] > 0 and metrics["solver.cg_iters"][0] > 0
    assert metrics["reports.bytes"][0] == sum(
        os.path.getsize(os.path.join(tmp_path, f)) for f in os.listdir(tmp_path))
    spans = tracer.spans
    assert all(end >= start for _, _, start, end, _ in spans)


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "layer-ladder", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
