"""The gaussian measure, ball averages, L^p norms, and the maximal function.

The measure is gamma_d(dx) = pi^(-d/2) exp(-|x|^2) dx.  Balls are closed;
ball integrals are deterministic: closed forms for the d = 1 measure,
else one polar profile per centre (`_ball_profile`), Gauss-Legendre panels
on the radius ladder times a sphere rule, whose cumulative sums give every
radius from one pass of f. That pass is a walk of `hermite._gh_blocks`,
the one packer of f's calls: its rows are the radii, its point the centre
and its rule the sphere rule, laid out (m, d) like a Gauss-Hermite grid.
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

from mehler.hermite import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _coefficients,
    _gh_blocks,
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


def _first_max(values, arg_at):
    """(the first largest |value|, arg_at(its index)): grid order breaks ties.

    arg_at(i) builds the argmax of row i, for the winner only.
    """
    mags = np.abs(values)
    i = int(np.argmax(mags))
    return float(mags[i]), arg_at(i)


@lru_cache(maxsize=16)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panel_points(lo: np.ndarray, hi: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the panels [lo_i, hi_i], panel-major."""
    xs, ws = _gl_rule(order)
    mids = 0.5 * (hi + lo)
    halves = 0.5 * (hi - lo)
    pts = (mids[:, None] + halves[:, None] * xs[None, :]).ravel()
    wts = (halves[:, None] * ws[None, :]).ravel()
    return pts, wts


@lru_cache(maxsize=16)
def _sphere_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, d) directions on S^(d-1) and their surface weights over pi^(d/2).

    d = 1: -1 and +1. d = 3: n/4 Gauss-Legendre nodes z = cos(theta) times
    n/2 equispaced angles phi; d = 2 is its ring z = 0 with n angles.
    """
    if d > 3:
        raise ValueError(f"ball rules are built for d <= 3, got d = {d}")
    if d == 1:
        dirs, wts = np.array([[-1.0, 1.0]]), np.ones(2)
    else:
        n_phi = n if d == 2 else max(1, n // 2)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        z, wz = (np.zeros(1), np.ones(1)) if d == 2 else _gl_rule(max(1, n // 4))
        ring = np.sqrt(1.0 - z * z)[:, None]
        xy = [(ring * np.cos(phi)).ravel(), (ring * np.sin(phi)).ravel()]
        dirs = np.stack(xy + [np.repeat(z, n_phi)])
        dirs, wts = dirs[:d], np.repeat(wz, n_phi) * (2.0 * math.pi / n_phi)
    wts = wts / math.pi ** (d / 2.0)
    dirs = dirs.T  # Fortran-ordered, like gauss_hermite_grid's nodes
    dirs.flags.writeable = False
    wts.flags.writeable = False
    return dirs, wts


def _ball_profile(values, center: np.ndarray, radii: np.ndarray, cfg: QuadratureConfig):
    """(integral of |f|, gamma_d mass) of each ball B(center, r), r in radii, in polar form.

    The radius takes ball_nodes/8 Gauss-Legendre nodes on each panel between 0
    and the points of cfg.radius_grid (continued geometrically past its top);
    a radius off that ladder adds one panel from the ladder point below it, so
    its value depends on it alone. f gets the blocks of `hermite._gh_blocks`:
    whole radii, or slices of one radius's directions; values None skips f.
    Both sums take the same weights, so f = 1 averages to exactly 1.
    """
    d = center.size
    order = max(1, cfg.ball_nodes // 8)
    ladder = cfg.radius_grid.values()
    # past its top the ladder goes on geometrically: no panel is wider relative to rho
    ratio = ladder[-1] / ladder[-2]
    extra = max(0, math.ceil(math.log(radii.max() / ladder[-1], ratio)))
    edges = np.concatenate([[0.0], ladder, ladder[-1] * ratio ** np.arange(1, extra + 1)])
    k = np.searchsorted(edges, radii, side="right") - 1
    off = edges[k] != radii
    n_ladder = int(k.max())
    lo = np.concatenate([edges[:n_ladder], edges[k[off]]])
    hi = np.concatenate([edges[1 : n_ladder + 1], radii[off]])
    rho, rw = _panel_points(lo, hi, order)
    rw = rw * rho ** (d - 1)
    sums = np.zeros((2, rho.size))
    rule = _sphere_rule(d, cfg.ball_nodes)
    for rows, _, blocks in _gh_blocks(values, center[None, :], np.ones(rho.size), rho, rule):
        for pts, vals, w in blocks:
            g = np.exp(-np.sum(pts.T * pts.T, axis=0)).reshape(-1, w.size) * w
            sums[1, rows] += g.sum(axis=1)
            if vals is not None:
                sums[0, rows] += (g * np.abs(vals)).sum(axis=1)
    panels = (rw * sums).reshape(2, -1, order).sum(axis=2)
    out = np.concatenate([np.zeros((2, 1)), np.cumsum(panels[:, :n_ladder], axis=1)], axis=1)[:, k]
    out[:, off] += panels[:, n_ladder:]
    return out


def gaussian_ball_measure(ball: GaussianBall, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """gamma_d measure of a closed ball.

    d = 1 takes forms free of cancellation: a 16-node Gauss-Legendre sum on
    a short interval, else erf about 0, or erfc off 0 (within 1e-13 relative
    for |center| <= 20); d = 2, 3 take the polar profile of `hl_maximal`
    (`_ball_profile`); d > 3 raises ValueError.
    """
    if math.isinf(ball.radius):
        return 1.0
    if ball.dimension == 1:
        c, r = abs(ball.center[0]), ball.radius
        if r * (2.0 * c + r) <= 1.0:
            # a short interval: erf differences would cancel, the positive
            # Gauss-Legendre sum of e^{-c^2} e^{-u(2c + u)}, u = r x, does not
            x, w = _gl_rule(16)
            u = r * x
            return r * math.exp(-c * c) * float(w @ np.exp(-u * (2.0 * c + u))) / math.sqrt(math.pi)
        if c < r:
            return 0.5 * (math.erf(r + c) + math.erf(r - c))
        # off 0 the two tails are small, and r(2c + r) > 1 keeps them apart
        return 0.5 * (math.erfc(c - r) - math.erfc(c + r))
    _, mass = _ball_profile(None, np.array(ball.center), np.array([ball.radius]), cfg)
    return float(mass[0])


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
    of the gamma-average of |f| over the closed ball B(x, r), every radius
    from one polar profile of f about x.  Ties are broken toward the
    smallest radius.  A ball whose gamma-mass underflows to 0 raises
    ValueError.
    """
    rep = as_function(f)
    center = _single_point(x, rep.dimension)
    if not np.all(np.isfinite(center)):
        raise ValueError(f"ball center must be finite, got {tuple(center)}")
    radii = np.asarray(cfg.radius_grid.values() if radii is None else radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or not np.all((radii > 0) & np.isfinite(radii)):
        raise ValueError("radii must be a nonempty 1-d array of positive finite values")
    rs = np.sort(radii)
    num, mass = _ball_profile(rep.values, center, rs, cfg)
    if not np.all(mass > 0.0):
        r = float(rs[np.argmin(mass > 0.0)])
        raise ValueError(
            f"the gaussian mass of the ball of radius {r} about {tuple(center.tolist())} "
            "underflows to 0, so its average is undefined"
        )
    value, arg = _first_max(num / mass, lambda i: float(rs[i]))
    return MaximalEstimate(value=value, argmax=arg, grid_size=len(radii))
