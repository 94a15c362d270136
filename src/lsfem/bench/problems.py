"""Catalog of benchmark problems on the unit square.

Entries with an exact solution carry analytic gradient and Laplacian so the
source term is manufactured consistently and error norms are available.
The reaction coefficient is zero wherever the catalog does not need it
(admissible since c - div(beta)/2 = 0 for the divergence-free or constant
convection fields used here); the transport case uses c = 1.
"""
from __future__ import annotations

import numpy as np

from ..assembly import ProblemSpec

PROBLEM_NAMES = ("smooth", "rotating", "interior-layer", "boundary-layer", "transport")


def get_problem(name: str, epsilon: float | None = None) -> ProblemSpec:
    """Build a catalog entry, validating epsilon against the entry's range.

    Each f is manufactured from its entry's own epsilon, beta and c, so a
    copy with one of those replaced (``dataclasses.replace``) keeps an f
    that its exact solution, if it has one, no longer satisfies.
    """
    if name not in PROBLEM_NAMES:
        raise KeyError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    if name == "transport":
        if epsilon not in (None, 0.0):
            raise ValueError("transport problem requires epsilon == 0")
        return _transport()
    if epsilon is None:
        epsilon = {"rotating": 1e-6}.get(name, 1e-3)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    builder = {
        "smooth": _smooth,
        "rotating": _rotating,
        "interior-layer": _interior_layer,
        "boundary-layer": _boundary_layer,
    }[name]
    return builder(epsilon)


def _const_beta(bx, by):
    def beta(x, y):
        out = np.empty(np.shape(x) + (2,))
        out[..., 0] = bx
        out[..., 1] = by
        return out

    return beta


def _zero(x, y):
    return np.zeros(np.shape(x))


def _one(x, y):
    return np.ones(np.shape(x))


def _manufactured(name, eps, u, grad, lap, c=_zero) -> ProblemSpec:
    """Entry with convection beta = (1, 1), exact solution u, boundary data
    g = u and the source f = -eps lap(u) + beta.grad(u) + c u."""
    beta = _const_beta(1.0, 1.0)

    def f(x, y):
        bg = beta(x, y) * grad(x, y)
        return -eps * lap(x, y) + bg[..., 0] + bg[..., 1] + c(x, y) * u(x, y)

    return ProblemSpec(
        name=name,
        epsilon=eps,
        beta=beta,
        div_beta=_zero,
        c=c,
        f=f,
        g=u,
        exact_u=u,
        exact_grad=grad,
        exact_lap=lap,
    )


TWO_PI = 2.0 * np.pi


def _sin_sin(x, y):
    return np.sin(TWO_PI * x) * np.sin(TWO_PI * y)


def _sin_sin_grad(x, y):
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = TWO_PI * np.cos(TWO_PI * x) * np.sin(TWO_PI * y)
    out[..., 1] = TWO_PI * np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
    return out


def _sin_sin_lap(x, y):
    return -2.0 * TWO_PI**2 * _sin_sin(x, y)


def _smooth(eps: float) -> ProblemSpec:
    return _manufactured("smooth", eps, _sin_sin, _sin_sin_grad, _sin_sin_lap)


def _rotating(eps: float) -> ProblemSpec:
    def beta(x, y):
        out = np.empty(np.shape(x) + (2,))
        out[..., 0] = y - 0.5
        out[..., 1] = 0.5 - x
        return out

    def slit_g(x, y):
        return np.sin(2.0 * np.pi * y) ** 2

    return ProblemSpec(
        name="rotating",
        epsilon=eps,
        beta=beta,
        div_beta=_zero,
        c=_zero,
        f=_zero,
        g=_zero,
        slit_g=slit_g,
        notes=(
            "convection field has closed streamlines, so the sufficient "
            "condition for the weighted stability bound fails; run treated "
            "as qualitative",
            "outer boundary data g = 0 chosen; the benchmark prescribes data "
            "only on the slit",
        ),
    )


def _interior_layer(eps: float) -> ProblemSpec:
    def g(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        on_bottom = np.abs(y) <= 1e-12
        on_left_low = (np.abs(x) <= 1e-12) & (y <= 0.2 + 1e-12)
        return np.where(on_bottom | on_left_low, 1.0, 0.0)

    return ProblemSpec(
        name="interior-layer",
        epsilon=eps,
        beta=_const_beta(0.5, np.sqrt(3.0) / 2.0),
        div_beta=_zero,
        c=_zero,
        f=_zero,
        g=g,
        notes=(
            "boundary data jumps at (0, 0.2) and (1, 0); nodal interpolation "
            "in strong mode takes the closed-set value 1 there",
        ),
    )


def _boundary_layer(eps: float) -> ProblemSpec:
    half_pi = 0.5 * np.pi
    e1 = np.exp(-1.0 / eps)
    denom = 1.0 - e1

    def s(t):
        return np.sin(half_pi * t)

    def ds(t):
        return half_pi * np.cos(half_pi * t)

    def layer_exp(x, y):
        # exponent is always <= 0; underflow to 0 is fine for tiny eps
        return np.exp(-(1.0 - x) * (1.0 - y) / eps)

    def u(x, y):
        return s(x) + s(y) * (1.0 - s(x)) + (e1 - layer_exp(x, y)) / denom

    def grad(x, y):
        E = layer_exp(x, y)
        out = np.empty(np.shape(x) + (2,))
        out[..., 0] = ds(x) * (1.0 - s(y)) - E * (1.0 - y) / (eps * denom)
        out[..., 1] = ds(y) * (1.0 - s(x)) - E * (1.0 - x) / (eps * denom)
        return out

    def lap(x, y):
        E = layer_exp(x, y)
        smooth = -half_pi**2 * (s(x) * (1.0 - s(y)) + s(y) * (1.0 - s(x)))
        return smooth - E * ((1.0 - x) ** 2 + (1.0 - y) ** 2) / (eps**2 * denom)

    return _manufactured("boundary-layer", eps, u, grad, lap)


def _transport() -> ProblemSpec:
    return _manufactured("transport", 0.0, _sin_sin, _sin_sin_grad, _sin_sin_lap, c=_one)
