"""The Ornstein-Uhlenbeck semigroup T_t, and the core it shares with P_t.

A `Semigroup` is its decay rate on the chaos of degree k = |beta| (k for
T_t, sqrt(k) for the Poisson-Hermite P_t), its cone kinds and its route
table: each route a mixture t -> (times, weights) with S_t f = sum_j w_j
T_{s_j} f, the first the default. `Semigroup.apply` resolves 'auto'
(spectral for series), checks the time and takes any route at one point;
each public `ou_apply*` and `poisson_apply*` function is one call to it.
The spectral multiplier, values, transform, time supremum and cone supremum
are derived once, here, for both semigroups. The scope is d <= 3: cone
cross-sections, like the ball rules of `mehler.measure`, raise ValueError
above it.

T_t's routes (its cones are "parabolic-gaussian" and "truncated-parabolic"):

  change_of_var  T_t f(x) = integral of f(e^{-t}x + sqrt(1-e^{-2t})u) dgamma(u); t > 0
  spectral       termwise decay e^{-t|beta|} on a Hermite expansion; t >= 0

The Mehler kernel integral is not a third route: the substitution
y = e^{-t}x + sqrt(1-e^{-2t})u turns the kernel against dgamma(y) into
dgamma(u), so it is the change_of_var integral. `ou_apply_kernel` keeps its
name for callers of the kernel formula and returns the change_of_var value.
Only the spectral route, on a series, is an independent reference for it.

The t -> 0 blowup of the kernel normalization is never evaluated: the
substitution stays well-conditioned down to t = 0 and covers t = +inf
(where T_t f collapses to the gamma-mean of f).

Every quadrature value of a black-box f takes f on c + s*nodes of one
Gauss-Hermite rule, for a list of anchors (c, s), through the walker
`hermite._gh_blocks`: blocks of at most `hermite._BLOCK_POINTS` = 2^14
points, one anchor over node slices when its rule alone exceeds that (d =
3 at 64 nodes per axis). The working memory is a block, under 0.4 MB of
coordinates in d = 3, next to the cached GH grid (8.4 MB); it does not
grow with the number of points or times. f gets a Fortran-ordered (n, d)
view, as from the polar ball profile of `hl_maximal`: evaluators must not
assume C-contiguity. The time suprema, paths, transforms and norms reduce
to a weighted mixture sum_k w_k T_{t_k} f, one shifted integral per (row,
point) in `_mixture_values`, which folds the times whose integrals are
equal first (see _folded_rows).

Cone suprema take a different rule for the cells of a cross-section at
apex x, `_section_values`. With c = r x and delta = r(y - x)/s for a row
(r, s) = (e^{-t}, sqrt(1 - e^{-2t})), the shift u -> u + delta gives

  T_t f(y) = integral of f(c + s u) exp(2<u, delta> - |delta|^2) dgamma(u),

so f is taken once per folded row on c + s*nodes, and each cell is a
reweighted sum of those values: an importance-weighted Gauss-Hermite rule.
The weight factors over the axes; the contraction walks the same node
blocks, so f sees the same 2^14 budget, and holds cells x n^{d-1} tilt
products (2 MB for 57 cells in d = 3 at 64 nodes) and an n x cells
accumulator. A (row, cell) pair whose |delta| reaches _TILT_CAP takes the
shifted rule of `_mixture_values` instead. Both OU cones keep |delta| <
1/sqrt(2) (their aperture is at most sqrt(t)), so no OU cell ever does;
the Poisson gaussian cone reaches |delta| ~ sqrt(2u) ~ 8.5 at small t.
The cap is set from the measured error of the rule, not its speed: on the
ball indicator and the spike, per (row, cell) integral against closed
forms and a 200-node shifted rule, the tilted rule errs like the shifted
one up to |delta| = 2; above it its error on the spike grows to 1.5-2x
the shifted rule's, and above 4 to orders of magnitude more in d = 3.
Nor do far pairs share anchors: on a lattice of spacing h about r x, h in
[0.25, 2], they erred 2.2-5.3x the shifted rule at the spike's kink, d = 1.
Series inputs keep the spectral route.

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

from . import hermite
from .cones import ConeSpec
from .hermite import (
    DEFAULT_CONFIG,
    FunctionRep,
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    SeriesFunction,
    _single_point,
    as_function,
)
from .measure import MaximalEstimate, _section_max, gaussian_norm, hl_maximal

# largest tilt |delta| at which a cone cell takes the tilted rule of
# _section_values, set from the rule's measured error (module docstring);
# both OU cones keep |delta| < 1/sqrt(2)
_TILT_CAP = 2.0


def _decay_pair(t: float) -> tuple[float, float]:
    """(e^{-t}, sqrt(1 - e^{-2t})), stable for tiny t and exact at t = inf."""
    r = math.exp(-t)
    s = math.sqrt(-math.expm1(-2.0 * t))
    return r, s


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
    f: FunctionRep, points: np.ndarray, rows, cfg: QuadratureConfig
) -> np.ndarray:
    """sum_k w_k T_{t_k} f at each row of points, by shifted gaussian quadrature.

    rows is the (r, s, w) triple of _folded_rows. Each (row, point) pair is
    the anchor (r_k x_p, s_k) of one integral. Pairs are taken row-major,
    so each point's terms are summed in the order of the rows, and packed
    into the blocks of `hermite._gh_blocks`.
    """
    d = f.dimension
    r, s, w = rows
    n_points = points.shape[0]
    rows_per_block = max(1, hermite._BLOCK_POINTS // cfg.gh_nodes**d)
    n_rows = r.size * n_points
    acc = np.zeros(n_points)
    for start in range(0, n_rows, rows_per_block):
        k, p = np.divmod(np.arange(start, min(start + rows_per_block, n_rows)), n_points)
        blocks = hermite._gh_blocks(f.values, r[k, None] * points[p], s[k], d, cfg,
                                    "semigroup integrand")
        row_vals = np.zeros(k.size)
        for _, vals, wts in blocks:
            row_vals += vals @ wts
        np.add.at(acc, p, w[k] * row_vals)
    return acc


def _tilted_integrals(
    f: FunctionRep, centre: np.ndarray, scale: float, tilts: np.ndarray, cfg: QuadratureConfig
) -> np.ndarray:
    """integral of f(centre + scale*v) exp(2<v, delta> - |delta|^2) dgamma(v), per delta.

    One Gauss-Hermite rule, f taken once by `hermite._gh_blocks` at the
    anchor (centre, scale), serves every row delta of tilts (cells, d). The
    tilt factors over the axes: E_j[i, m] = exp(2 delta_ij g_m - delta_ij^2)
    on the 1-d nodes g. Each node block, weighted, is contracted against the
    product of the trailing d - 1 tables (cells x n^{d-1}) into one (n,
    cells) accumulator indexed by the leading axis, and the leading table
    closes the sum. A block that starts or ends inside a leading-axis slice
    is zero-padded to whole slices.
    """
    d, cells = f.dimension, tilts.shape[0]
    g = hermite._gh_rule_1d(cfg.gh_nodes)[0]
    tables = [np.exp(2.0 * tilts[:, j, None] * g - tilts[:, j, None] ** 2) for j in range(d)]
    trailing = np.ones((cells, 1))
    for table in tables[1:]:
        trailing = (trailing[:, :, None] * table[:, None, :]).reshape(cells, -1)
    width = trailing.shape[1]
    acc = np.zeros((g.size, cells))
    start = 0
    blocks = hermite._gh_blocks(f.values, centre[None, :], np.array([scale]), d, cfg,
                                "semigroup integrand")
    for _, vals, wts in blocks:
        first, skip = divmod(start, width)
        slices = -(-(skip + wts.size) // width)
        padded = np.zeros(slices * width)
        padded[skip : skip + wts.size] = vals[0] * wts
        acc[first : first + slices] += padded.reshape(slices, width) @ trailing.T
        start += wts.size
    return np.einsum("ia,ai->i", tables[0], acc)


def _section_values(
    f: FunctionRep, apex: np.ndarray, points: np.ndarray, rows, cfg: QuadratureConfig
) -> np.ndarray:
    """sum_k w_k T_{t_k} f at the cells of a cone cross-section at apex.

    For each folded row (r, s, w), f is taken once on r*apex + s*nodes, and
    a cell y gets the tilted rule of _tilted_integrals with delta = r(y -
    apex)/s: the shift v -> v + delta turns the shifted integral at y into
    that one. A (row, cell) pair with |delta| >= _TILT_CAP takes the shifted
    rule of _mixture_values instead, so a cell's value does not depend on
    the other cells of its section. Each cell's terms are summed in row
    order.
    """
    offsets = points - apex
    dist = np.sqrt(np.sum(offsets * offsets, axis=1))
    acc = np.zeros(points.shape[0])
    for r, s, w in zip(*rows):
        # |delta| < _TILT_CAP, tested without dividing by s (0 once t^2/4u underflows)
        near = r * dist < _TILT_CAP * s
        if near.any():
            acc[near] += w * _tilted_integrals(f, r * apex, s, (r / s) * offsets[near], cfg)
        if not near.all():
            row = (np.array([r]), np.array([s]), np.array([w]))
            acc[~near] += _mixture_values(f, points[~near], row, cfg)
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


def _cone_times(spec: ConeSpec, cfg: QuadratureConfig) -> np.ndarray:
    cap = spec.time_cap
    lo, hi = cfg.time_grid.lo, cfg.time_grid.hi
    if math.isfinite(cap):
        hi = (1.0 - 1e-9) * cap
        lo = min(lo, 1e-4 * hi)
    return np.geomspace(lo, hi, cfg.time_grid.count)


def _cross_section(apex: np.ndarray, aperture: float, fractions, directions) -> np.ndarray:
    """The apex, then rings at the given fractions of the aperture, in lexicographic order."""
    offsets = [np.zeros(apex.size)]
    for fr in fractions:
        if fr == 0.0:
            continue
        for u in directions:
            offsets.append(fr * aperture * u)
    pts = apex[None, :] + np.asarray(offsets)
    # lexicographic point order fixes the winner among equal values
    return pts[np.lexsort(pts.T[::-1])]


@dataclass(frozen=True, eq=False)
class Semigroup:
    """S_t from its decay rate on chaos k = |beta|, its routes and its cones.

    prefix names the transforms ("T" or "P"); routes maps each quadrature
    route's name to its mixture t -> (times, weights), with S_t f = sum_j w_j
    T_{s_j} f for a black-box f, the first route being the default; cones
    holds the cone kinds of `cone_maximal`.
    """

    prefix: str
    rate: Callable[[int], float]
    routes: dict
    cones: tuple

    @property
    def mixture(self) -> Callable[[float], tuple]:
        """The default route's mixture t -> (times, weights)."""
        return next(iter(self.routes.values()))

    def spectral(self, series: HermiteSeries, t: float) -> HermiteSeries:
        # the constant keeps factor exactly 1.0, so t = inf gives no inf * 0
        return _multiplied(series, lambda k: 1.0 if k == 0 else math.exp(-t * self.rate(k)))

    def _checked(self, f, t: float, route: str):
        """(f, its series or None, the route 'auto' resolves to, float t), checked.

        The spectral route needs a series and t >= 0; a quadrature route
        needs t > 0 (t = inf gives the gamma-mean).
        """
        f = as_function(f)
        series = _series_of(f)
        if route == "auto":
            route = "spectral" if series is not None else next(iter(self.routes))
        t = float(t)
        if route == "spectral":
            if series is None:
                raise TypeError("spectral route needs a Hermite series representation")
            if not t >= 0.0:
                raise ValueError(f"time must be nonnegative, got {t}")
        elif route not in self.routes:
            routes = (*self.routes, "spectral")
            raise ValueError(f"unknown route {route!r}; expected one of {routes} or 'auto'")
        elif not t > 0.0:
            raise ValueError(f"time must be positive, got {t}")
        return f, series, route, t

    def apply(
        self, f, x, t: float, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG
    ) -> float:
        """S_t f at the one point x by the named route, or by 'auto'."""
        f, series, route, t = self._checked(f, t, route)
        xa = _single_point(x, f.dimension)
        if route == "spectral":
            return self.spectral(series, t).evaluate(xa)
        rows = _folded_rows(*self.routes[route](t))
        return float(_mixture_values(f, xa[None, :], rows, cfg)[0])

    def values(
        self, f: FunctionRep, points: np.ndarray, t: float, cfg: QuadratureConfig
    ) -> np.ndarray:
        """S_t f at each row of points: spectral for series, else the OU-time mixture."""
        series = _series_of(f)
        if series is not None:
            return np.atleast_1d(np.asarray(self.spectral(series, t).evaluate(points)))
        return _mixture_values(f, points, _folded_rows(*self.mixture(t)), cfg)

    def transform(self, f, t: float, cfg: QuadratureConfig) -> FunctionRep:
        """S_t f as a function of x: series stay series, else pointwise quadrature."""
        f, series, route, t = self._checked(f, t, "auto")
        name = f"{self.prefix}_{t}[{f.name}]"
        if route == "spectral":
            return SeriesFunction(self.spectral(series, t), name=name)

        def evaluator(pts: np.ndarray) -> np.ndarray:
            return self.values(f, pts, t, cfg)

        return PointwiseFunction(f.dimension, evaluator, vectorized=True, name=name)

    def maximal(self, f, x, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None) -> MaximalEstimate:
        """sup_t |S_t f(x)| over a log time grid, with the t = inf mean appended."""
        f = as_function(f)
        xa = _single_point(x, f.dimension)
        ts = list(cfg.time_grid.values() if times is None else _positive_times(times))
        ts.append(math.inf)
        vals = [self.values(f, xa[None, :], float(t), cfg)[0] for t in ts]
        value, arg = _section_max((-math.inf, None), vals, lambda i: float(ts[i]))
        return MaximalEstimate(value=value, argmax=arg, grid_size=len(ts))

    def cone_maximal(
        self, f, x, kind: str, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None, fractions=None
    ) -> MaximalEstimate:
        """sup |S_t f(y)| over (y, t) inside the cone of the given kind at apex x.

        The grid is the product of a log time ladder honoring the cone's time
        window with, at each time, rings of points at fixed fractions of the
        aperture. The achieving (y, t) pair is returned as the argmax.
        """
        if kind not in self.cones:
            raise ValueError(f"kind must be one of {self.cones}, got {kind!r}")
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
        spectral = _series_of(f) is not None
        best = (-math.inf, None)
        cells = 0
        for t in ts:
            t = float(t)
            pts = _cross_section(xa, spec.aperture(t), fracs, dirs)
            if spectral:
                vals = self.values(f, pts, t, cfg)
            else:
                vals = _section_values(f, xa, pts, _folded_rows(*self.mixture(t)), cfg)
            cells += pts.shape[0]
            best = _section_max(best, vals, lambda i: (tuple(float(c) for c in pts[i]), t))
        return MaximalEstimate(value=best[0], argmax=best[1], grid_size=cells)


OU = Semigroup(
    "T", lambda k: k, {"change_of_var": lambda t: ((t,), (1.0,))},
    ("parabolic-gaussian", "truncated-parabolic"),
)

OU_ROUTES = (*OU.routes, "spectral")


def ou_apply_kernel(f, x, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """T_t f(x) by the Mehler kernel: the change-of-variable integral; t > 0.

    The substitution y = e^{-t}x + sqrt(1-e^{-2t})u turns the kernel against
    dgamma(y) into dgamma(u), so the kernel integral and the change-of-variable
    integral are one integral, taken by one quadrature. It is a function of
    its own, not an alias, so wrappers that find functions by identity (the
    benchmark's tracer) see two distinct names.
    """
    return OU.apply(f, x, t, "change_of_var", cfg)


def ou_apply_change_of_var(f, x, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """T_t f(x) as a gamma-average of f(e^{-t}x + sqrt(1-e^{-2t})u); t > 0."""
    return OU.apply(f, x, t, "change_of_var", cfg)


def ou_apply_spectral(f, x, t: float):
    """Termwise e^{-t|beta|} decay on a Hermite series; exact, t >= 0."""
    return OU.apply(f, x, t, "spectral")


def ou_apply(
    f, x, t: float, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Dispatch T_t f(x); route 'auto' picks spectral for series, else quadrature."""
    return OU.apply(f, x, t, route, cfg)


def ou_transform(f, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> FunctionRep:
    """T_t f as a function of x, for composition and norm studies.

    Series representations stay series (termwise decay); pointwise ones
    become pointwise functions backed by the substitution quadrature.
    """
    return OU.transform(f, t, cfg)


def ou_maximal(f, x, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None) -> MaximalEstimate:
    """sup_t |T_t f(x)| over a log time grid, with the t = inf mean appended."""
    return OU.maximal(f, x, cfg, times)


def nontangential_maximal(
    f,
    x,
    kind: str = "parabolic-gaussian",
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    times=None,
    fractions=None,
) -> MaximalEstimate:
    """sup |T_t f(y)| over (y, t) inside the chosen cone at apex x; see Semigroup.cone_maximal."""
    return OU.cone_maximal(f, x, kind, cfg, times, fractions)


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
