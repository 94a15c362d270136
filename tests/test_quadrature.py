from math import factorial

import numpy as np
import pytest

from lsfem.fem.quadrature import edge_rule, triangle_rule


def tri_monomial(a, b):
    # closed form for the reference triangle {(0,0),(1,0),(0,1)}
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(0, 21))
def test_triangle_exactness(degree):
    rule = triangle_rule(degree)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = (x**a * y**b * rule.weights).sum()
            assert abs(got - tri_monomial(a, b)) < 1e-13


def test_triangle_points_lie_in_the_reference_triangle():
    rule = triangle_rule(3)
    assert rule.points.shape[1] == 2
    x, y = rule.points.T
    assert (x > -1e-14).all() and (y > -1e-14).all() and (1.0 - x - y > -1e-14).all()


def test_degree_one_reproduces_area():
    rule = triangle_rule(1)
    assert abs(rule.weights.sum() - 0.5) < 1e-16


def test_degree_two_on_xy():
    rule = triangle_rule(2)
    got = (rule.points[:, 0] * rule.points[:, 1] * rule.weights).sum()
    assert abs(got - 1.0 / 24.0) < 1e-15


def test_degree_four_misses_x5():
    # exactness boundary: degree-4 rule must visibly miss a degree-5 monomial
    rule = triangle_rule(4)
    got = (rule.points[:, 0] ** 5 * rule.weights).sum()
    assert abs(got - 1.0 / 42.0) > 1e-13


def test_unsupported_degree():
    for rule, kind in ((triangle_rule, "triangle"), (edge_rule, "edge")):
        with pytest.raises(ValueError, match=f"^{kind} rule degree must be >= 0, got -1$"):
            rule(-1)


@pytest.mark.parametrize("degree", range(0, 21))
def test_edge_exactness(degree):
    rule = edge_rule(degree)
    assert (rule.weights > 0).all()
    t = rule.points[:, 0]
    for p in range(degree + 1):
        assert abs((t**p * rule.weights).sum() - 1.0 / (p + 1)) < 1e-14


def test_edge_degree_three_two_points():
    rule = edge_rule(3)
    assert len(rule.weights) == 2
    assert abs((rule.points[:, 0] ** 3 * rule.weights).sum() - 0.25) < 1e-15


def test_edge_degree_zero_is_midpoint():
    rule = edge_rule(0)
    assert len(rule.weights) == 1
    assert abs(rule.points[0, 0] - 0.5) < 1e-15
    assert abs(rule.weights.sum() - 1.0) < 1e-15
