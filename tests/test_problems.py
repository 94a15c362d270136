import numpy as np
import pytest

from conftest import make_case
from lsfem import fem
from lsfem.bench import PROBLEM_NAMES, get_problem

SAMPLE_POINTS = np.array(
    [
        [0.13, 0.79], [0.25, 0.25], [0.5, 0.31], [0.71, 0.08], [0.9, 0.9],
        [0.05, 0.55], [0.62, 0.47], [0.33, 0.91], [0.84, 0.22], [0.46, 0.68],
    ]
)


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        get_problem("poisson")


def test_epsilon_validation():
    with pytest.raises(ValueError):
        get_problem("smooth", 0.0)
    with pytest.raises(ValueError):
        get_problem("smooth", 1.5)
    with pytest.raises(ValueError):
        get_problem("transport", 1e-3)
    assert get_problem("transport").epsilon == 0.0


@pytest.mark.parametrize("name", [n for n in PROBLEM_NAMES])
def test_catalog_builds(name):
    problem = get_problem(name)
    x, y = SAMPLE_POINTS[:, 0], SAMPLE_POINTS[:, 1]
    assert problem.beta(x, y).shape == (10, 2)
    assert np.shape(problem.f(x, y)) in ((10,), ())
    assert np.shape(problem.c(x, y)) in ((10,), ())


@pytest.mark.parametrize("name,eps", [
    ("smooth", 1.0), ("smooth", 1e-3), ("smooth", 1e-9),
    ("boundary-layer", 1e-2), ("boundary-layer", 1e-6), ("boundary-layer", 1e-9),
    ("transport", None),
])
def test_manufactured_residual_vanishes(name, eps):
    # ten fixed sample points, relative to the local magnitude of f
    problem = get_problem(name, eps)
    x, y = SAMPLE_POINTS[:, 0], SAMPLE_POINTS[:, 1]
    res = problem.residual(x, y)
    scale = np.maximum(np.abs(problem.f(x, y)), 1.0)
    assert (np.abs(res) / scale).max() < 1e-10


def test_smooth_source_matches_symbolic_differentiation():
    # independent derivation: f = -eps lap(u) + du/dx + du/dy for c = 0
    eps = 1e-3
    problem = get_problem("smooth", eps)
    x, y = 0.25, 0.25
    two_pi = 2.0 * np.pi
    lap = -2.0 * two_pi**2 * np.sin(two_pi * x) * np.sin(two_pi * y)
    dx = two_pi * np.cos(two_pi * x) * np.sin(two_pi * y)
    dy = two_pi * np.sin(two_pi * x) * np.cos(two_pi * y)
    assert problem.f(np.array(x), np.array(y)) == pytest.approx(-eps * lap + dx + dy, rel=1e-12)
    assert problem.c(np.array(x), np.array(y)) == 0.0


def test_interior_layer_boundary_data():
    problem = get_problem("interior-layer", 1e-9)
    g = problem.g
    assert g(np.array(0.5), np.array(0.0)) == 1.0
    assert g(np.array(1.0), np.array(0.5)) == 0.0
    assert g(np.array(0.0), np.array(0.1)) == 1.0
    assert g(np.array(0.0), np.array(0.3)) == 0.0
    assert g(np.array(0.0), np.array(0.2)) == 1.0  # closed-set value at the jump


def test_boundary_layer_closed_form_evaluations():
    # direct evaluation of the unsimplified formula, no simplification assumed
    for eps in (1e-2, 1e-6, 1e-9):
        problem = get_problem("boundary-layer", eps)
        u = problem.exact_u
        e1 = np.exp(-1.0 / eps)
        corner = 1.0 + (e1 - 1.0) / (1.0 - e1)
        assert np.isfinite(u(np.array(1.0), np.array(1.0)))
        assert u(np.array(1.0), np.array(1.0)) == pytest.approx(corner, abs=1e-14)
        # u vanishes on the outflow boundary walls x=1 and y=1
        assert abs(u(np.array(1.0), np.array(0.3))) < 1e-12
        assert abs(u(np.array(0.7), np.array(1.0))) < 1e-12
        # interior values stay finite and close to the smooth part for tiny eps
        assert np.isfinite(u(SAMPLE_POINTS[:, 0], SAMPLE_POINTS[:, 1])).all()


def test_boundary_layer_gradient_matches_finite_differences():
    eps = 1e-2
    problem = get_problem("boundary-layer", eps)
    x, y = np.array(0.62), np.array(0.47)
    h = 1e-7
    fd_x = (problem.exact_u(x + h, y) - problem.exact_u(x - h, y)) / (2 * h)
    fd_y = (problem.exact_u(x, y + h) - problem.exact_u(x, y - h)) / (2 * h)
    grad = problem.exact_grad(x, y)
    assert grad[0] == pytest.approx(fd_x, rel=1e-6)
    assert grad[1] == pytest.approx(fd_y, rel=1e-6)


def test_rotating_flow_entry():
    problem = get_problem("rotating")
    assert problem.epsilon == 1e-6
    assert problem.slit_g is not None
    y = np.array([0.0, 0.125, 0.25])
    assert np.allclose(problem.slit_g(np.full(3, 0.5), y), np.sin(2 * np.pi * y) ** 2)
    x, yy = SAMPLE_POINTS[:, 0], SAMPLE_POINTS[:, 1]
    beta = problem.beta(x, yy)
    assert np.allclose(beta[:, 0], yy - 0.5)
    assert np.allclose(beta[:, 1], 0.5 - x)
    assert problem.notes  # qualitative-run warning present


@pytest.mark.parametrize("name", ["smooth", "rotating", "interior-layer", "boundary-layer", "transport"])
def test_reaction_margin_nonnegative_on_quadrature_points(name):
    problem = get_problem(name)
    mesh, topo, dm = make_case(4, 0, perturb=0.2)
    geo = fem.element_geometry(mesh)
    rule = fem.triangle_rule(fem.assembly_degree(0))
    X = geo.map_points(rule.xy)
    margin = problem.reaction_margin(X[..., 0], X[..., 1])
    assert margin.min() >= -1e-12
