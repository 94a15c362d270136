import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import lsfem
from lsfem import solver
from lsfem.bench import studies
from lsfem.cli import main
from lsfem.fem.basis import MAX_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("solve", "convergence", "condition", "compare", "list-problems"):
        assert flag in out


def test_run_as_module_without_warning():
    # runpy warns when the package has imported the module it is asked to run
    src = os.path.dirname(os.path.dirname(lsfem.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-m", "lsfem.cli", "list-problems"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "smooth" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


THREAD_POOLS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a fresh interpreter with the three variables unset but for ``env``, which
# prints what they read when numpy starts to load, then runs ``code`` with
# the command line `lsfem list-problems`
POOLS_AT_NUMPY = """
import os, runpy, sys
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(*(os.environ.get(v, "-") for v in {pools}))
sys.meta_path.insert(0, Spy())
sys.argv = ["lsfem", "list-problems"]
{code}
"""


def _pools_at_numpy(code, **env):
    src = os.path.dirname(os.path.dirname(lsfem.__file__))
    base = {k: v for k, v in os.environ.items() if k not in THREAD_POOLS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", POOLS_AT_NUMPY.format(pools=THREAD_POOLS, code=code)],
        capture_output=True, text=True, env=dict(base, **env), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# python -m lsfem.cli, and the [project.scripts] entry as its wrapper calls it
LAUNCHERS = {
    "module": "runpy.run_module('lsfem.cli', run_name='__main__', alter_sys=True)",
    "script": "from lsfem.cli import main\nsys.exit(main())",
}


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_command_pins_thread_pools(launcher):
    lines = _pools_at_numpy(LAUNCHERS[launcher])
    assert lines[0] == "1 1 1" and "smooth: eps=0.001, exact solution" in lines


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_command_keeps_a_thread_count_the_caller_set(launcher):
    assert _pools_at_numpy(LAUNCHERS[launcher], OMP_NUM_THREADS="2")[0] == "1 2 1"


def test_library_import_sets_no_thread_count():
    # the package loads numpy only with a submodule, and neither sets a variable
    lines = _pools_at_numpy("import lsfem\nprint('numpy' in sys.modules)\nlsfem.fem")
    assert lines == ["False", "- - -"]


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--problem", "no-such-problem"])
    assert exc.value.code == 1


def test_bad_value_exits_one(tmp_path, capsys):
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path),
        "convergence", "--problem", "smooth", "--eps", "7.0", "--levels", "1", "--base-n", "2",
    )
    assert code == 1
    assert "error" in err


def test_repeated_eps_exits_one(tmp_path, capsys):
    # a second row for the same eps would report the ratio of a kappa to itself
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path),
        "condition", "--problem", "smooth", "--levels", "1", "--base-n", "2",
        "--eps-list", "1e-3,1e-3",
    )
    assert code == 1
    assert err == "error [condition]: eps 0.001 is listed twice\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("convergence", "--problem", "smooth", "--levels", "2",
                      "--region", "1,0,0,1"), "xmin < xmax", id="reversed"),
        pytest.param(("convergence", "--problem", "smooth", "--levels", "2",
                      "--region", "nan,1,0,1"), "finite", id="nan"),
        pytest.param(("compare", "--problem", "boundary-layer", "--mesh-n", "8",
                      "--region", "0.5,0.51,0,1"), "no element", id="empty-strip"),
        pytest.param(("convergence", "--problem", "smooth", "--levels", "2",
                      "--region", "0,1,0"), "must be xmin,xmax,ymin,ymax", id="three-values"),
    ],
)
def test_bad_region_exits_one(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, "--out-dir", str(tmp_path), *argv)
    assert code == 1
    assert err.startswith(f"error [{argv[0]}]: region ")
    assert message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("convergence", "--levels", "0"), id="zero-levels"),
        pytest.param(("solve", "--mesh-n", "4", "--k", str(MAX_ORDER)), id="k-above-cap"),
    ],
)
def test_out_of_range_option_is_usage_error(tmp_path, capsys, argv):
    # rejected by the parser: exit 1, nothing solved and no file written
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), argv[0], "--problem", "smooth", *argv[1:]])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("condition", "--perturb", "0.1"),
        ("condition", "--tol", "1e-8"),
        ("condition", "--maxit", "10"),
        ("convergence", "--maxit", "10"),
        ("compare", "--bc", "strong"),
        ("compare", "--maxit", "10"),
        # CG under the factor stops after one iteration, and a mesh file's
        # format follows from its name
        ("solve", "--maxit", "10"),
        ("solve", "--mesh-format", "triangle"),
        # under the factor a looser tol gives the same solution, and one
        # below the rounding floor only fails
        ("solve", "--tol", "1e-12"),
        ("convergence", "--tol", "1e-12"),
        ("compare", "--tol", "1e-12"),
    ],
)
def test_option_the_command_does_not_read_is_usage_error(tmp_path, capsys, command, option,
                                                         value):
    # each command declares only the options it reads; any other is rejected
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), command, "--problem", "boundary-layer",
              option, value])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("solve", "--mesh-n", "4", "--bc", "strong"), id="solve-strong"),
        pytest.param(("solve", "--mesh-n", "4", "--bc", "alt-weak"), id="solve-alt-weak"),
        pytest.param(("convergence", "--levels", "1", "--base-n", "4", "--bc", "strong"),
                     id="convergence-strong"),
    ],
)
def test_transport_other_bc_mode_exits_one(tmp_path, capsys, argv):
    # transport has no strong or alt-weak system; no file may carry that name
    code, out, err = run(capsys, "--out-dir", str(tmp_path), argv[0],
                         "--problem", "transport", *argv[1:])
    assert code == 1
    assert err.startswith(f"error [{argv[0]}]: transport (eps == 0) takes bc mode 'weak' only")
    assert not list(tmp_path.iterdir())


def test_condition_transport_names_the_reason(tmp_path, capsys):
    code, out, err = run(capsys, "--out-dir", str(tmp_path),
                         "condition", "--problem", "transport", "--levels", "1")
    assert code == 1
    assert err == "error [condition]: the condition study needs eps > 0; transport has eps == 0\n"
    assert not list(tmp_path.iterdir())


def test_condition_rotating_needs_a_gridline_on_the_slit(tmp_path, capsys):
    # the study builds rotating on its slit, which an odd n leaves unresolved
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "condition",
                         "--problem", "rotating", "--levels", "1", "--base-n", "3")
    assert code == 1
    assert err == ("error [condition]: slit not resolved by the mesh: "
                   "no edge covers [0, 1] of the segment\n")
    assert not list(tmp_path.iterdir())


def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    # CG allowed no iteration cannot reach its tolerance
    monkeypatch.setattr(studies, "cg_solve", functools.partial(solver.cg_solve, maxit=0))
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "smooth", "--eps", "1e-3", "--mesh-n", "8",
    )
    assert code == 2
    assert "numerical failure" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, mesh_n, head",
    [
        pytest.param(("--problem", "boundary-layer", "--eps", "1", "--mesh-n", "4"), 4, "",
                     id="boundary-layer"),
        pytest.param(("--problem", "interior-layer"), 14,
                     "using nearest generated mesh: n=14 (392 elements)\n", id="interior-layer"),
    ],
)
def test_compare_prints_the_study(tmp_path, capsys, argv, mesh_n, head):
    # the subdomain errors and their ratio where an exact solution exists,
    # the overshoot of both modes always
    from lsfem.bench import compare_bc_modes, get_problem

    code, out, err = run(capsys, "--out-dir", str(tmp_path), "compare", *argv)
    assert code == 0 and err == ""
    eps = 1.0 if "--eps" in argv else None
    comp = compare_bc_modes(argv[1], 0, mesh_n, epsilon=eps)
    problem = get_problem(argv[1], eps)
    expect = head + "".join(f"note: {note}\n" for note in problem.notes)
    expect += f"{argv[1]} eps={problem.epsilon:g} P1, {2 * mesh_n**2} elements\n"
    if comp.weak is not None:
        expect += (f"subdomain [0,0.9]x[0,0.9] L2: weak {comp.weak.e_L2:.4e} "
                   f"strong {comp.strong.e_L2:.4e} ratio {comp.error_ratio:.3e}\n")
    expect += (f"overshoot beyond data range: weak {comp.weak_overshoot:.4e} "
               f"strong {comp.strong_overshoot:.4e}\n")
    assert out == expect
    assert ("subdomain" in out) == (argv[1] == "boundary-layer")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("region", ["5,6,5,6", "0,0.9,0,0.9", "full"])
def test_compare_region_needs_an_exact_solution(tmp_path, capsys, region):
    # interior-layer has no error to measure on a region: a region given is
    # a usage error, not ignored
    code, out, err = run(capsys, "--out-dir", str(tmp_path), "compare",
                         "--problem", "interior-layer", "--mesh-n", "4", "--region", region)
    assert code == 1 and out == ""
    assert err == ("error [compare]: --region does not apply to interior-layer, "
                   "which has no exact solution\n")
    assert not list(tmp_path.iterdir())


def test_list_problems(capsys):
    code, out, _ = run(capsys, "list-problems")
    assert code == 0
    for name in ("smooth", "rotating", "interior-layer", "boundary-layer", "transport"):
        assert name in out


def test_convergence_writes_csv_with_eoc(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "convergence", "--problem", "smooth", "--eps", "1e-3",
        "--k", "0", "--levels", "2", "--base-n", "4",
    )
    assert code == 0
    assert "eoc" in out
    files = os.listdir(tmp_path)
    assert "convergence_smooth_P1_weak.csv" in files


def test_condition_table(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "condition", "--problem", "smooth", "--k", "0",
        "--levels", "2", "--base-n", "2", "--eps-list", "1,1e-3",
    )
    assert code == 0
    assert "kappa" in out
    assert "condition_smooth_P1_weak.csv" in os.listdir(tmp_path)


def test_condition_csv_names_the_bc_mode(tmp_path, capsys):
    # a strong-BC study does not overwrite the weak one in the same directory
    for bc in ("weak", "strong"):
        code, _, _ = run(
            capsys, "--out-dir", str(tmp_path),
            "condition", "--problem", "smooth", "--levels", "1", "--base-n", "2", "--bc", bc,
        )
        assert code == 0
    files = set(os.listdir(tmp_path))
    assert {"condition_smooth_P1_weak.csv", "condition_smooth_P1_strong.csv"} <= files


def test_solve_writes_vtk(tmp_path, capsys):
    for k in (1, MAX_ORDER - 1):
        out_dir = tmp_path / f"k{k}"
        code, out, _ = run(
            capsys, "--out-dir", str(out_dir),
            "solve", "--problem", "interior-layer", "--eps", "1e-3",
            "--k", str(k), "--mesh-n", "4", "--bc", "weak",
        )
        assert code == 0
        vtks = [f for f in os.listdir(out_dir) if f.endswith(".vtk")]
        assert vtks == [f"interior-layer_P{k + 1}_weak_32.vtk"]


def test_solve_from_mesh_file(tmp_path, capsys):
    from lsfem.mesh import generate_structured, save_mesh

    path = str(tmp_path / "grid.mesh")
    save_mesh(generate_structured(4, 0.1), path)
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "smooth", "--eps", "1e-3", "--mesh-file", path,
    )
    assert code == 0
    assert "errors:" in out


def test_triangle_pair_solves_like_the_native_file(tmp_path, capsys):
    # the format follows from the name: .node or .ele is a Triangle pair
    from lsfem.mesh import generate_structured, save_mesh

    mesh = generate_structured(4, 0.1)
    outputs = []
    for name in ("grid.mesh", "grid.node", "grid.ele"):
        save_mesh(mesh, str(tmp_path / name))
        out_dir = tmp_path / f"out-{name}"
        out_dir.mkdir()
        code, out, _ = run(
            capsys, "--out-dir", str(out_dir),
            "solve", "--problem", "smooth", "--k", "1", "--mesh-file", str(tmp_path / name),
        )
        assert code == 0
        outputs.append((out.replace(str(out_dir), "OUT"),
                        (out_dir / "smooth_P2_weak_32.vtk").read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("--mesh-file", "MESH", "--mesh-n", "8"),
                     "--mesh-n cannot be used with --mesh-file", id="mesh-file-mesh-n"),
        pytest.param(("--mesh-file", "MESH", "--perturb", "0"),
                     "--perturb cannot be used with --mesh-file", id="mesh-file-perturb"),
        pytest.param(("--mesh-file", "MESH", "--perturb", "0.1", "--mesh-n", "4"),
                     "--mesh-n and --perturb cannot be used with --mesh-file", id="mesh-file-both"),
        pytest.param(("--problem", "rotating", "--mesh-n", "8", "--perturb", "0.2"),
                     "--perturb 0.2 does not apply to rotating", id="rotating-perturb"),
    ],
)
def test_solve_option_it_would_ignore_exits_one(tmp_path, capsys, argv, message):
    # a mesh file reads neither --mesh-n nor --perturb, and the rotating
    # slit mesh is never jittered; no file may be written
    from lsfem.mesh import generate_structured, save_mesh

    mesh_file = tmp_path / "grid.mesh"
    save_mesh(generate_structured(4, 0.1), str(mesh_file))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [str(mesh_file) if a == "MESH" else a for a in argv]
    problem = [] if "--problem" in argv else ["--problem", "smooth"]
    code, out, err = run(capsys, "--out-dir", str(out_dir), "solve", *problem, *argv)
    assert code == 1
    assert err.startswith(f"error [solve]: {message}")
    assert not list(out_dir.iterdir())


def test_rotating_solve_takes_zero_perturb(tmp_path, capsys):
    # --perturb 0 restates what rotating does anyway: same stdout, same file
    outputs = []
    for extra in ((), ("--perturb", "0")):
        code, out, _ = run(capsys, "--out-dir", str(tmp_path),
                           "solve", "--problem", "rotating", "--mesh-n", "4", *extra)
        assert code == 0
        outputs.append((out, (tmp_path / "rotating_P1_weak_32.vtk").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["stray.mesh", "stray.node"])
def test_vertex_in_no_triangle_exits_one(tmp_path, capsys, name):
    # two triangles of the unit square and a fifth vertex at (5, 5)
    from lsfem.mesh import Mesh, save_mesh

    square = Mesh(np.array([[0, 0], [1, 0], [1, 1], [0, 1], [5, 5]], dtype=float),
                  np.array([[0, 1, 2], [0, 2, 3]]), np.zeros(2, dtype=np.int64))
    save_mesh(square, str(tmp_path / name))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(capsys, "--out-dir", str(out_dir),
                       "solve", "--problem", "smooth", "--mesh-file", str(tmp_path / name))
    assert code == 1
    assert err == "error [solve]: vertex 4 belongs to no triangle\n"
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("name", ["crack.mesh", "crack.node"])
def test_coincident_vertices_exit_one(tmp_path, capsys, name):
    # the unit square whose second triangle holds a copy of vertex 2: the
    # diagonal would be two boundary edges, a crack through the domain
    from lsfem.mesh import Mesh, save_mesh

    square = Mesh(np.array([[0, 0], [1, 0], [1, 1], [0, 1], [1, 1]], dtype=float),
                  np.array([[0, 1, 2], [0, 4, 3]]), np.zeros(2, dtype=np.int64))
    save_mesh(square, str(tmp_path / name))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(capsys, "--out-dir", str(out_dir),
                       "solve", "--problem", "smooth", "--mesh-file", str(tmp_path / name))
    assert code == 1
    assert err == "error [solve]: vertices 2 and 4 coincide at (1, 1)\n"
    assert not list(out_dir.iterdir())


def _corrupt_empty_node(node, ele):
    node.write_text("")
    return f"{node}:1:"


def _corrupt_short_ele(node, ele):
    lines = ele.read_text().splitlines(keepends=True)
    ele.write_text("".join(lines[:-1]))  # the count line still says 32
    return f"{ele}:{len(lines)}:"


def _corrupt_narrow_element(node, ele):
    lines = ele.read_text().splitlines(keepends=True)
    lines[3] = "3 1 2\n"
    ele.write_text("".join(lines))
    return f"{ele}:4:"


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_empty_node, _corrupt_short_ele, _corrupt_narrow_element],
    ids=["empty-node", "short-ele", "narrow-element"],
)
def test_malformed_triangle_files_report_file_and_line(tmp_path, capsys, corrupt):
    from lsfem.mesh import generate_structured, save_mesh

    save_mesh(generate_structured(4, 0.0), str(tmp_path / "grid.node"))
    where = corrupt(tmp_path / "grid.node", tmp_path / "grid.ele")
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "smooth", "--mesh-file", str(tmp_path / "grid.node"),
    )
    assert code == 1
    assert "error [solve]" in err and where in err
    assert "Traceback" not in err


def test_non_finite_vertex_reports_file_and_line(tmp_path, capsys):
    path = tmp_path / "nan.mesh"
    path.write_text("lsfem-mesh 1\n4 2\n0 0\n1 0\nnan 1\n0 1\n0 1 2\n0 2 3\n")
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "smooth", "--mesh-file", str(path),
    )
    assert code == 1
    assert "error [solve]" in err and f"{path}:5:" in err
    assert "Traceback" not in err


def test_identical_argv_identical_output(tmp_path, capsys):
    argv = [
        "--out-dir", str(tmp_path),
        "convergence", "--problem", "smooth", "--eps", "1e-3",
        "--levels", "2", "--base-n", "4",
    ]
    code1, out1, _ = run(capsys, *argv)
    csv1 = (tmp_path / "convergence_smooth_P1_weak.csv").read_bytes()
    code2, out2, _ = run(capsys, *argv)
    csv2 = (tmp_path / "convergence_smooth_P1_weak.csv").read_bytes()
    assert (code1, out1) == (code2, out2)
    assert csv1 == csv2


def test_rotating_solve_uses_slit(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "rotating", "--mesh-n", "8", "--k", "0",
    )
    assert code == 0
    assert "note:" in out
