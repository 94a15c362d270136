import os
import subprocess
import sys

import pytest

import lsfem
from lsfem.cli import main


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
        pytest.param(("solve", "--mesh-n", "4", "--maxit", "-3"), id="negative-maxit"),
        pytest.param(("solve", "--mesh-n", "4", "--tol", "-1"), id="negative-tol"),
        pytest.param(("convergence", "--levels", "0"), id="zero-levels"),
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


def test_numerical_failure_exits_two(tmp_path, capsys):
    # a cap of zero iterations forces CG to give up; with the factor it
    # converges in one iteration
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "smooth", "--eps", "1e-3", "--mesh-n", "8", "--maxit", "0",
    )
    assert code == 2
    assert "numerical failure" in err


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
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "interior-layer", "--eps", "1e-3",
        "--k", "1", "--mesh-n", "4", "--bc", "weak",
    )
    assert code == 0
    vtks = [f for f in os.listdir(tmp_path) if f.endswith(".vtk")]
    assert vtks == ["interior-layer_P2_weak_32.vtk"]


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

    save_mesh(generate_structured(4, 0.0), str(tmp_path / "grid"), format="triangle")
    where = corrupt(tmp_path / "grid.node", tmp_path / "grid.ele")
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "smooth", "--mesh-format", "triangle",
        "--mesh-file", str(tmp_path / "grid.node"),
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


def test_outdir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LSFEM_OUTDIR", str(tmp_path))
    code, out, _ = run(
        capsys, "solve", "--problem", "smooth", "--eps", "1e-3", "--mesh-n", "2",
    )
    assert code == 0
    assert any(f.endswith(".vtk") for f in os.listdir(tmp_path))


def test_rotating_solve_uses_slit(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "solve", "--problem", "rotating", "--mesh-n", "8", "--k", "0",
    )
    assert code == 0
    assert "note:" in out
