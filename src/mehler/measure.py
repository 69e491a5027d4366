"""The gaussian measure, ball averages, L^p norms, and the maximal function.

The measure is gamma_d(dx) = pi^(-d/2) exp(-|x|^2) dx.  Balls are closed;
ball integrals are deterministic (error function in d = 1, tensor
Gauss-Legendre masked by the ball in d = 2, 3).  The scope is d <= 3, the
dimensions of the catalog and of `ExperimentConfig`: ball rules above it
raise ValueError.  The semigroups of `mehler.ou` and `mehler.poisson` share
one core there, a decay rate on Hermite chaos plus a mixture of OU times.

The Hardy-Littlewood maximal operator here is the gaussian one,

    M f(x) = sup_r  gamma_d(B(x, r))^(-1) * integral_{B(x,r)} |f| dgamma_d,

with the supremum taken over a recorded log grid of radii, so every estimate
is a reproducible lower bound that converges from below under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special import erf

from mehler.hermite import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _require_finite,
    as_function,
    as_points,
    gauss_hermite_grid,
)

__all__ = [
    "GaussianBall",
    "MaximalEstimate",
    "gaussian_ball_measure",
    "gaussian_density",
    "gaussian_norm",
    "hl_maximal",
]


def gaussian_density(x) -> Union[float, np.ndarray]:
    """Density of gamma_d at x: exp(-|x|^2) / pi^(d/2)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
        single = True
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
        single = True
    elif arr.ndim == 2:
        single = False
    else:
        raise ValueError(f"points array must have ndim <= 2, got shape {arr.shape}")
    d = arr.shape[1]
    vals = np.exp(-np.sum(arr * arr, axis=1)) / math.pi ** (d / 2.0)
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class GaussianBall:
    """Closed ball B(center, radius) in R^d."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        if len(center) == 0:
            raise ValueError("ball center needs at least one coordinate")
        if not all(math.isfinite(c) for c in center):
            raise ValueError(f"ball center must be finite, got {center}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def dimension(self) -> int:
        return len(self.center)

    def center_array(self) -> np.ndarray:
        return np.array(self.center, dtype=float)


@dataclass(frozen=True)
class MaximalEstimate:
    """Result of a grid supremum: the value, where it was attained, grid size.

    argmax is the achieving grid element: a radius for ball suprema, a time
    for time suprema, or a (point, time) pair for cone suprema.  Ties are
    broken deterministically toward the smallest scale.
    """

    value: float
    argmax: object
    grid_size: int

    def __post_init__(self):
        if not (self.value >= 0.0 or math.isnan(self.value)):
            raise ValueError(f"maximal value must be >= 0, got {self.value}")
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")


def _section_max(best, values, arg_at):
    """Fold one grid section into the running (value, argmax) pair.

    The section's first largest |value| replaces best only when strictly
    greater, so earlier sections and earlier rows win ties; arg_at(i) builds
    the argmax of row i, for the winner only.
    """
    mags = np.abs(values)
    i = int(np.argmax(mags))
    if mags[i] > best[0]:
        return float(mags[i]), arg_at(i)
    return best


@lru_cache(maxsize=16)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _ball_rule(ball: GaussianBall, cfg: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule for integrals against gamma_d over a closed ball.

    Returns (points, weights) with sum(weights) ~= gamma_d(ball); the same
    rule is used for the normalizer and the numerator of ball averages so
    that averaging a constant is exact.
    """
    d = ball.dimension
    if d > 3:
        raise ValueError(f"ball rules are built for d <= 3, got d = {d}")
    c = ball.center_array()
    r = ball.radius
    gx, gw = _gl_rule(cfg.ball_nodes)
    if d == 1:
        pts = (c[0] + r * gx).reshape(-1, 1)
        wts = r * gw * np.exp(-pts[:, 0] ** 2) / math.sqrt(math.pi)
        return pts, wts
    axes = [c[i] + r * gx for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    # coordinate-major (d, n): the returned points are a Fortran-ordered view
    pts_t = np.stack([g.ravel() for g in grids])
    wt = r * gw
    for _ in range(d - 1):
        wt = np.multiply.outer(wt, r * gw)
    wts = wt.ravel() * np.exp(-np.sum(pts_t * pts_t, axis=0)) / math.pi ** (d / 2.0)
    inside = np.sum((pts_t - c[:, None]) ** 2, axis=0) <= r * r
    # compress keeps the (d, m) result C-ordered; boolean indexing would not
    return np.compress(inside, pts_t, axis=1).T, wts[inside]


def gaussian_ball_measure(ball: GaussianBall, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """gamma_d measure of a closed ball.

    d = 1 uses the error function exactly; d = 2, 3 use the masked tensor
    Gauss-Legendre rule; d > 3 raises ValueError.
    """
    if math.isinf(ball.radius):
        return 1.0
    if ball.dimension == 1:
        c, r = ball.center[0], ball.radius
        return float(0.5 * (erf(c + r) - erf(c - r)))
    _, wts = _ball_rule(ball, cfg)
    return float(np.sum(wts))


def gaussian_norm(f, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L^p(gamma_d) norm by tensor Gauss-Hermite quadrature."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rep = as_function(f)
    pts, wts = gauss_hermite_grid(rep.dimension, cfg.gh_nodes)
    vals = rep.values(pts)
    _require_finite(vals, pts, "integrand")
    powered = np.abs(vals) ** p
    _require_finite(powered, pts, "integrand |f|^p")
    return float(np.dot(wts, powered) ** (1.0 / p))


def hl_maximal(
    f,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    radii: np.ndarray | None = None,
) -> MaximalEstimate:
    """Gaussian Hardy-Littlewood maximal function of |f| at x over a radius grid.

    The returned estimate is the max over the grid (default: cfg.radius_grid)
    of the gamma-average of |f| over the closed ball B(x, r).  Ties are broken
    toward the smallest radius.
    """
    rep = as_function(f)
    pts_x, _ = as_points(x, rep.dimension)
    center = pts_x[0]
    if radii is None:
        radii = cfg.radius_grid.values()
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or not np.all(radii > 0):
        raise ValueError("radii must be a nonempty 1-d array of positive values")
    rs = np.sort(radii)
    avgs = []
    for r in rs:
        ball = GaussianBall(tuple(center), float(r))
        pts, wts = _ball_rule(ball, cfg)
        vals = rep.values(pts)
        _require_finite(vals, pts, "integrand")
        # same reduction for numerator and denominator: averaging a constant
        # is then exact, not merely close
        avgs.append(float(np.sum(wts * np.abs(vals)) / np.sum(wts)))
    value, arg = _section_max((-math.inf, None), avgs, lambda i: float(rs[i]))
    return MaximalEstimate(value=value, argmax=arg, grid_size=len(radii))
