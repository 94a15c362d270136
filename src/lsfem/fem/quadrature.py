"""Quadrature rules on the reference triangle {(0,0),(1,0),(0,1)} and the
unit interval. Triangle rules are collapsed Gauss products, so every weight
is positive at every degree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadRule:
    """Points in reference coordinates and positive weights that sum to the
    reference measure: triangle points (x, y), shape (n, 2); edge points
    parametric in [0, 1], shape (n, 1).
    """

    points: np.ndarray
    weights: np.ndarray


def triangle_rule(degree: int) -> QuadRule:
    """Rule integrating all bivariate polynomials up to ``degree`` exactly,
    at points (x, y) of the reference triangle."""
    if degree < 0:
        raise ValueError(f"triangle rule degree must be >= 0, got {degree}")
    # the collapse map sends x^a y^b to xi^a (1-eta)^(a+1) eta^b: one extra
    # eta degree from the Jacobian, so cover degree+1 per direction
    t, w = _gauss01((degree + 3) // 2)
    # x = xi * (1 - eta), y = eta; Jacobian (1 - eta)
    xi, eta = np.meshgrid(t, t, indexing="ij")
    wx, weta = np.meshgrid(w, w, indexing="ij")
    x = (xi * (1.0 - eta)).ravel()
    y = eta.ravel()
    weights = (wx * weta * (1.0 - eta)).ravel()
    return QuadRule(np.column_stack([x, y]), weights)


def edge_rule(degree: int) -> QuadRule:
    """Gauss rule on [0, 1] exact for all polynomials up to ``degree``."""
    if degree < 0:
        raise ValueError(f"edge rule degree must be >= 0, got {degree}")
    t, w = _gauss01((degree + 2) // 2)
    return QuadRule(t[:, None], w)


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w
