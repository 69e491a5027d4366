"""The Ornstein-Uhlenbeck semigroup T_t, and the core it shares with P_t.

A `Semigroup` is two things: its decay rate on the chaos of degree
k = |beta| (k for T_t, sqrt(k) for the Poisson-Hermite P_t), and its
mixture t -> (times, weights) with S_t f = sum_j w_j T_{s_j} f (the atom
((t,), (1.0,)) for T_t, the subordination pairs for P_t). The spectral
multiplier, the values at points, the transform, the time supremum and the
cone supremum are derived from that pair once, here, for both semigroups.
The scope is d <= 3: cone cross-sections, like the ball rules of
`mehler.measure`, raise ValueError above it.

T_t has two evaluation routes:

  change_of_var  T_t f(x) = integral of f(e^{-t}x + sqrt(1-e^{-2t})u) dgamma(u)
  spectral       termwise decay e^{-t|beta|} on a Hermite expansion

The Mehler kernel integral is not a third route: the substitution
y = e^{-t}x + sqrt(1-e^{-2t})u turns the kernel against dgamma(y) into
dgamma(u), so it is the change_of_var integral. `ou_apply_kernel` keeps its
name for callers of the kernel formula and returns the change_of_var value.
Only the spectral route, on a series, is an independent reference for it.

The t -> 0 blowup of the kernel normalization is never evaluated: the
substitution stays well-conditioned down to t = 0 and covers t = +inf
(where T_t f collapses to the gamma-mean of f).

Every black-box T_t value, and every weighted mixture sum_k w_k T_{t_k} f
that the Poisson routes reduce to, goes through one shifted Gauss-Hermite
evaluator, `_mixture_values`. It calls f on blocks of at most
_BLOCK_POINTS = 2^14 points, splitting the node axis when one row has more
nodes than that (d = 3 at 64 nodes per axis), and folds each block into one
accumulator per point. Its working memory is therefore a block, under
0.4 MB of coordinates in d = 3 plus f's own temporaries, next to the cached
GH grid (8.4 MB in d = 3 at 64 nodes); it does not grow with the number of
points or times.

Before blocking, `_mixture_values` folds the times whose blocks are equal
(see _folded_rows), so each distinct integral is computed once.

Blocks are built coordinate-major: a C-contiguous (d, n) buffer whose
transpose, a Fortran-ordered (n, d) view, is what f receives, so a row
norm inside f adds d contiguous columns instead of reducing short rows.
The same holds for the cached GH grid and the masked ball rule of
`hl_maximal`. f therefore receives a float (n, d) array that may be
Fortran-ordered; evaluators must not assume C-contiguity.

Suprema over continuous time and over cone cross-sections are taken on
recorded grids; every estimate reports its grid size, and ties are broken
toward the smallest time and then lexicographically in the point so
repeated runs land on the same argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import ConeSpec
from .hermite import (
    DEFAULT_CONFIG,
    FunctionRep,
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    SeriesFunction,
    _require_finite,
    as_function,
    as_points,
    gauss_hermite_grid,
)
from .measure import MaximalEstimate, _section_max, gaussian_norm, hl_maximal

OU_ROUTES = ("change_of_var", "spectral")

_NONTANGENTIAL_KINDS = ("parabolic-gaussian", "truncated-parabolic")


def _decay_pair(t: float) -> tuple[float, float]:
    """(e^{-t}, sqrt(1 - e^{-2t})), stable for tiny t and exact at t = inf."""
    r = math.exp(-t)
    s = math.sqrt(-math.expm1(-2.0 * t))
    return r, s


def _single_point(x, dimension: int) -> np.ndarray:
    pts, single = as_points(x, dimension)
    if not single:
        raise ValueError("expected a single point")
    return pts[0]


def _route_args(f, x, t: float) -> tuple[FunctionRep, float, np.ndarray]:
    """(f, t, x) of a one-point quadrature route, checked: t > 0, x one point."""
    f = as_function(f)
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    return f, t, _single_point(x, f.dimension)


# f-points per block of the shifted quadrature; one block's coordinates take
# 8 * d * _BLOCK_POINTS bytes
_BLOCK_POINTS = 1 << 14


def _folded_rows(times, weights):
    """(r, s, w) of the mixture's rows, each distinct (r, s) pair once.

    Rows with equal (r, s) = (e^{-t}, sqrt(1 - e^{-2t})) build bitwise-equal
    blocks at every point, so they become one row whose weight is the sum of
    theirs, at the first row's position. Every t above about 745 gives
    (0.0, 1.0), the t = inf row (the gamma-mean). The fold is exact up to
    the order of the sum: the row's integral is multiplied by the summed
    weight instead of being added once per time. It depends on the times
    alone, so a point's value and the work done do not depend on the other
    points of the call.
    """
    folded: dict[tuple[float, float], float] = {}
    for t, w in zip(times, weights):
        pair = _decay_pair(float(t))
        folded[pair] = folded.get(pair, 0.0) + float(w)
    r = np.array([key[0] for key in folded])
    s = np.array([key[1] for key in folded])
    return r, s, np.array(list(folded.values()))


def _mixture_values(
    f: FunctionRep, points: np.ndarray, times, weights, cfg: QuadratureConfig
) -> np.ndarray:
    """sum_k w_k T_{t_k} f at each row of points, by shifted gaussian quadrature.

    Each (time, point) pair is a row with centre r_k x_p and scale s_k.
    Times with equal (r, s) are folded first (see _folded_rows). Rows are
    taken time-major, so each point's terms are summed in the order of the
    times; f is called on blocks of whole rows, or on node slices of one row
    when a row alone exceeds _BLOCK_POINTS.
    """
    d = f.dimension
    nodes, wts = gauss_hermite_grid(d, cfg.gh_nodes)
    nodes_t = nodes.T
    r, s, w = _folded_rows(times, weights)
    n_points, n_nodes = points.shape[0], nodes.shape[0]
    rows_per_block = max(1, _BLOCK_POINTS // n_nodes)
    node_step = min(n_nodes, _BLOCK_POINTS)
    n_rows = r.size * n_points
    acc = np.zeros(n_points)
    for start in range(0, n_rows, rows_per_block):
        k, p = np.divmod(np.arange(start, min(start + rows_per_block, n_rows)), n_points)
        centres = r[k, None] * points[p]
        row_vals = np.zeros(k.size)
        for lo in range(0, n_nodes, node_step):
            # built as (d, rows, nodes) so f gets contiguous coordinate columns
            step = nodes_t[:, None, lo : lo + node_step]
            shifted = centres.T[:, :, None] + s[None, k, None] * step
            shifted = shifted.reshape(d, -1).T
            vals = f.values(shifted)
            _require_finite(vals, shifted, "semigroup integrand")
            row_vals += vals.reshape(k.size, -1) @ wts[lo : lo + node_step]
        np.add.at(acc, p, w[k] * row_vals)
    return acc


def _series_of(f) -> HermiteSeries | None:
    if isinstance(f, HermiteSeries):
        return f
    if isinstance(f, SeriesFunction):
        return f.series
    return None


def _multiplied(series: HermiteSeries, factor: Callable[[int], float]) -> HermiteSeries:
    """The series with each coefficient c_beta multiplied by factor(|beta|)."""
    return HermiteSeries(
        series.dimension, {beta.entries: c * factor(beta.degree) for beta, c in series.terms()}
    )


@dataclass(frozen=True)
class Semigroup:
    """S_t from its decay rate on chaos k = |beta| and its mixture of OU times.

    prefix names the transforms ("T" or "P"); mixture(t) returns (times,
    weights) with S_t f = sum_j w_j T_{s_j} f for a black-box f.
    """

    prefix: str
    rate: Callable[[int], float]
    mixture: Callable[[float], tuple]

    def spectral(self, series: HermiteSeries, t: float) -> HermiteSeries:
        # the constant keeps factor exactly 1.0, so t = inf gives no inf * 0
        return _multiplied(series, lambda k: 1.0 if k == 0 else math.exp(-t * self.rate(k)))

    def apply_spectral(self, f, x, t: float):
        series = _series_of(f)
        if series is None:
            raise TypeError("spectral route needs a Hermite series representation")
        t = float(t)
        if t < 0.0:
            raise ValueError(f"time must be nonnegative, got {t}")
        return self.spectral(series, t).evaluate(x)

    def values(
        self, f: FunctionRep, points: np.ndarray, t: float, cfg: QuadratureConfig
    ) -> np.ndarray:
        """S_t f at each row of points: spectral for series, else the OU-time mixture."""
        series = _series_of(f)
        if series is not None:
            return np.atleast_1d(np.asarray(self.spectral(series, t).evaluate(points)))
        times, weights = self.mixture(t)
        return _mixture_values(f, points, times, weights, cfg)

    def transform(self, f, t: float, cfg: QuadratureConfig) -> FunctionRep:
        """S_t f as a function of x: series stay series, else pointwise quadrature."""
        f = as_function(f)
        t = float(t)
        name = f"{self.prefix}_{t}[{f.name}]"
        series = _series_of(f)
        if series is not None:
            if t < 0.0:
                raise ValueError(f"time must be nonnegative, got {t}")
            return SeriesFunction(self.spectral(series, t), name=name)
        if not t > 0.0:
            raise ValueError(f"time must be positive, got {t}")

        def evaluator(pts: np.ndarray) -> np.ndarray:
            return self.values(f, pts, t, cfg)

        return PointwiseFunction(f.dimension, evaluator, vectorized=True, name=name)


OU = Semigroup("T", lambda k: k, lambda t: ((t,), (1.0,)))


def ou_apply_kernel(f, x, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """T_t f(x) by the Mehler kernel: the change-of-variable integral; t > 0.

    The substitution y = e^{-t}x + sqrt(1-e^{-2t})u turns the kernel against
    dgamma(y) into dgamma(u), so the kernel integral and the change-of-variable
    integral are one integral, taken by one quadrature. It is a function of
    its own, not an alias, so wrappers that find functions by identity (the
    benchmark's tracer) see two distinct names.
    """
    return ou_apply_change_of_var(f, x, t, cfg)


def ou_apply_change_of_var(f, x, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """T_t f(x) as a gamma-average of f(e^{-t}x + sqrt(1-e^{-2t})u); t > 0."""
    f, t, xa = _route_args(f, x, t)
    return float(_mixture_values(f, xa[None, :], (t,), (1.0,), cfg)[0])


def ou_apply_spectral(f, x, t: float):
    """Termwise e^{-t|beta|} decay on a Hermite series; exact, t >= 0."""
    return OU.apply_spectral(f, x, t)


def ou_apply(
    f, x, t: float, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Dispatch T_t f(x); route 'auto' picks spectral for series, else quadrature."""
    f = as_function(f)
    if route == "auto":
        route = "spectral" if _series_of(f) is not None else "change_of_var"
    if route == "spectral":
        return float(ou_apply_spectral(f, x, t))
    if route == "change_of_var":
        return ou_apply_change_of_var(f, x, t, cfg)
    raise ValueError(f"unknown route {route!r}; expected one of {OU_ROUTES} or 'auto'")


def ou_transform(f, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> FunctionRep:
    """T_t f as a function of x, for composition and norm studies.

    Series representations stay series (termwise decay); pointwise ones
    become pointwise functions backed by the substitution quadrature.
    """
    return OU.transform(f, t, cfg)


def _cross_fractions(count: int) -> tuple[float, ...]:
    """Aperture fractions: half spread over the body, half bunched at the wall."""
    if count < 2:
        return (0.0,)
    inner = count // 2
    outer = count - inner
    body = np.linspace(0.0, 1.0, inner, endpoint=False)
    wall = 1.0 - np.power(10.0, -np.arange(1, outer + 1, dtype=float))
    return tuple(float(v) for v in np.concatenate([body, wall]))


def _directions(dimension: int, count: int) -> np.ndarray:
    """Deterministic unit directions: signs in d=1, a circle in d=2, a spiral sphere in d=3."""
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dimension != 3:
        raise ValueError(f"cone cross-sections are built for d <= 3, got d = {dimension}")
    m = max(count, 4)
    k = np.arange(m, dtype=float) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / m
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def _positive_times(times) -> np.ndarray:
    ts = np.sort(np.asarray(times, dtype=float))
    if ts.size == 0 or not np.all(ts > 0.0):
        raise ValueError("times must be positive")
    return ts


def _time_maximal(sg: Semigroup, f, x, cfg: QuadratureConfig, times) -> MaximalEstimate:
    """sup_t |S_t f(x)| over a log time grid, with the t = inf mean appended."""
    f = as_function(f)
    xa = _single_point(x, f.dimension)
    ts = list(cfg.time_grid.values() if times is None else _positive_times(times))
    ts.append(math.inf)
    vals = [sg.values(f, xa[None, :], float(t), cfg)[0] for t in ts]
    value, arg = _section_max((-math.inf, None), vals, lambda i: float(ts[i]))
    return MaximalEstimate(value=value, argmax=arg, grid_size=len(ts))


def ou_maximal(f, x, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None) -> MaximalEstimate:
    """sup_t |T_t f(x)| over a log time grid, with the t = inf mean appended."""
    return _time_maximal(OU, f, x, cfg, times)


def _cone_times(spec: ConeSpec, cfg: QuadratureConfig) -> np.ndarray:
    cap = spec.time_cap
    lo, hi = cfg.time_grid.lo, cfg.time_grid.hi
    if math.isfinite(cap):
        hi = (1.0 - 1e-9) * cap
        lo = min(lo, 1e-4 * hi)
    return np.geomspace(lo, hi, cfg.time_grid.count)


def _cone_maximal(
    sg: Semigroup, f, x, kind: str, cfg: QuadratureConfig, times, fractions
) -> MaximalEstimate:
    """sup |S_t f(y)| over (y, t) inside the cone of the given kind at apex x.

    The grid is the product of a log time ladder honoring the cone's time
    window with, at each time, rings of points at fixed fractions of the
    aperture. The achieving (y, t) pair is returned as the argmax.
    """
    f = as_function(f)
    xa = _single_point(x, f.dimension)
    spec = ConeSpec(tuple(float(c) for c in xa), kind)
    if times is None:
        ts = _cone_times(spec, cfg)
    else:
        ts = _positive_times(times)
        if not np.all(ts < spec.time_cap):
            raise ValueError("times must sit below the cone's time cap")
    fracs = _cross_fractions(cfg.cross_radial) if fractions is None else tuple(fractions)
    if any(not 0.0 <= fr < 1.0 for fr in fracs):
        raise ValueError("fractions must lie in [0, 1)")
    dirs = _directions(f.dimension, cfg.cross_angular)
    best = (-math.inf, None)
    cells = 0
    for t in ts:
        t = float(t)
        a = spec.aperture(t)
        offsets = [np.zeros(f.dimension)]
        for fr in fracs:
            if fr == 0.0:
                continue
            for u in dirs:
                offsets.append(fr * a * u)
        pts = xa[None, :] + np.asarray(offsets)
        # lexicographic point order fixes the winner among equal values
        order = np.lexsort(pts.T[::-1])
        pts = pts[order]
        vals = sg.values(f, pts, t, cfg)
        cells += pts.shape[0]
        best = _section_max(best, vals, lambda i: (tuple(float(c) for c in pts[i]), t))
    return MaximalEstimate(value=best[0], argmax=best[1], grid_size=cells)


def nontangential_maximal(
    f,
    x,
    kind: str = "parabolic-gaussian",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    times=None,
    fractions=None,
) -> MaximalEstimate:
    """sup |T_t f(y)| over (y, t) inside the chosen cone at apex x; see _cone_maximal."""
    if kind not in _NONTANGENTIAL_KINDS:
        raise ValueError(f"kind must be one of {_NONTANGENTIAL_KINDS}, got {kind!r}")
    return _cone_maximal(OU, f, x, kind, cfg, times, fractions)


def maximal_bound_report(f, x, cfg: QuadratureConfig = DEFAULT_CONFIG) -> dict:
    """Ingredients of the pointwise bound sup_t |T_t f| <= C M_gamma f + tail.

    The tail is (2 v |x|)^d e^{|x|^2} ||f||_{L^1(gamma)}. No constant is
    asserted; the report carries lhs, both right-hand ingredients, their sum,
    and the observed ratio so sweeps can record an empirical constant.
    """
    f = as_function(f)
    xa = _single_point(x, f.dimension)
    lhs = ou_maximal(f, xa, cfg).value
    mgamma = hl_maximal(f, xa, cfg).value
    xn = float(np.linalg.norm(xa))
    tail = max(2.0, xn) ** f.dimension * math.exp(xn * xn) * gaussian_norm(f, 1.0, cfg)
    rhs = mgamma + tail
    ratio = 0.0 if lhs == 0.0 else lhs / rhs
    return {
        "lhs": lhs,
        "mgamma": mgamma,
        "tail": tail,
        "rhs": rhs,
        "ratio": ratio,
    }
