"""The gaussian measure, ball averages, L^p norms, and the maximal function.

The measure is gamma_d(dx) = pi^(-d/2) exp(-|x|^2) dx.  Balls are closed;
ball integrals are deterministic (error function for the d = 1 measure,
tensor Gauss-Legendre masked by the ball otherwise). The in-ball node set
is built once per (d, ball_nodes) on the unit ball and scaled to each ball.
The scope is d <= 3, the dimensions of the catalog and of `ExperimentConfig`:
ball rules above it raise ValueError.  The semigroups of `mehler.ou` and
`mehler.poisson` share one core there, a decay rate on Hermite chaos plus a
mixture of OU times.

The Hardy-Littlewood maximal operator here is the gaussian one,

    M f(x) = sup_r  gamma_d(B(x, r))^(-1) * integral_{B(x,r)} |f| dgamma_d,

with the supremum taken over a recorded log grid of radii. Every estimate
is reproducible: the largest quadrature value on its grid. It is not a
bound, since the quadrature can err either way. `QuadratureConfig.refined`
splits every gap of the radius and time grids, so a refined ladder
contains the default one; in d <= 2 the refined cone cross-sections
contain the default cells too (aperture fractions and circle directions).
There, a grid supremum can fall under refinement only by the change of its
quadrature rule (Gauss rules never nest). The d = 3 cross-sections take a
spiral of directions that is not nested, so a d = 3 cone supremum can also
fall by its grid.
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
    _coefficients,
    _require_finite,
    _single_point,
    as_function,
    as_points,
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
    d = arr.shape[-1] if arr.ndim else 1
    arr, single = as_points(arr, d)
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


@lru_cache(maxsize=16)
def _ball_indices(d: int, n: int) -> np.ndarray:
    """(d, m) tensor indices, in C order, of the n^d Gauss-Legendre nodes in the unit ball."""
    sq = _gl_rule(n)[0] ** 2
    idx = np.array(np.nonzero(sum(np.ix_(*[sq] * d)) <= 1.0))
    idx.flags.writeable = False
    return idx


def _ball_rule(
    center: np.ndarray, radius: float, cfg: QuadratureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule for integrals against gamma_d over the closed ball B(center, radius).

    Returns (points, weights) with sum(weights) ~= gamma_d(ball); the same
    rule is used for the normalizer and the numerator of ball averages so
    that averaging a constant is exact. The in-ball nodes of the tensor
    Gauss-Legendre rule are chosen once per (d, ball_nodes) on the unit
    ball (_ball_indices) and scaled to each ball.
    """
    d = len(center)
    if d > 3:
        raise ValueError(f"ball rules are built for d <= 3, got d = {d}")
    gx, gw = _gl_rule(cfg.ball_nodes)
    idx = _ball_indices(d, cfg.ball_nodes)
    # coordinate-major (d, m): the returned points are a Fortran-ordered view
    pts_t = center[:, None] + (radius * gx)[idx]
    # the product over axes runs left to right, as the tensor product of the 1-d weights
    wts = np.prod((radius * gw)[idx], axis=0) * np.exp(-np.sum(pts_t * pts_t, axis=0))
    return pts_t.T, wts / math.pi ** (d / 2.0)


def gaussian_ball_measure(ball: GaussianBall, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """gamma_d measure of a closed ball.

    d = 1 uses the error function exactly; d = 2, 3 use the masked tensor
    Gauss-Legendre rule, its in-ball node set built once per (d, ball_nodes)
    on the unit ball and scaled to this one; d > 3 raises ValueError.
    """
    if math.isinf(ball.radius):
        return 1.0
    if ball.dimension == 1:
        c, r = ball.center[0], ball.radius
        return float(0.5 * (erf(c + r) - erf(c - r)))
    _, wts = _ball_rule(ball.center_array(), ball.radius, cfg)
    return float(np.sum(wts))


def gaussian_norm(f, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """L^p(gamma_d) norm: the integral of |f|^p is its h_0 coefficient by `_coefficients`."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    rep = as_function(f)

    def powered(pts: np.ndarray) -> np.ndarray:
        vals = rep.values(pts)
        _require_finite(vals, pts, "integrand")
        out = np.abs(vals) ** p
        _require_finite(out, pts, "integrand |f|^p")
        return out

    h0 = (0,) * rep.dimension
    return float(_coefficients(powered, rep.dimension, [h0], cfg)[0] ** (1.0 / p))


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
    center = _single_point(x, rep.dimension)
    if not np.all(np.isfinite(center)):
        raise ValueError(f"ball center must be finite, got {tuple(center)}")
    if radii is None:
        radii = cfg.radius_grid.values()
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or not np.all((radii > 0) & np.isfinite(radii)):
        raise ValueError("radii must be a nonempty 1-d array of positive finite values")
    rs = np.sort(radii)
    avgs = []
    for r in rs:
        pts, wts = _ball_rule(center, float(r), cfg)
        vals = rep.values(pts)
        _require_finite(vals, pts, "integrand")
        # same reduction for numerator and denominator: averaging a constant
        # is then exact, not merely close
        avgs.append(float(np.sum(wts * np.abs(vals)) / np.sum(wts)))
    value, arg = _section_max((-math.inf, None), avgs, lambda i: float(rs[i]))
    return MaximalEstimate(value=value, argmax=arg, grid_size=len(radii))
