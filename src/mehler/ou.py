"""The Ornstein-Uhlenbeck semigroup T_t, and the core it shares with P_t.

A `Semigroup` is its decay rate on the chaos of degree k = |beta| (k for
T_t, sqrt(k) for the Poisson-Hermite P_t), its cone kinds and its route
table: each route a mixture t -> (times, weights) with S_t f = sum_j w_j
T_{s_j} f, the first the default. `Semigroup.values` is the one evaluator:
it resolves 'auto' (spectral for series), checks the times and takes S_t f
by any route at a list of (point, time) pairs. apply, the transform, the
time supremum and the paths and checks of `mehler.experiments` are calls to
it, and each public `ou_apply*` and `poisson_apply*` function is one call to
apply. The scope is d <= 3: cone cross-sections (`mehler.cones._cone_grid`),
like the ball rules of `mehler.measure`, raise ValueError above it.

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

Every quadrature value of a black-box f takes f on r_k x_p + s_k*nodes of
one Gauss-Hermite rule, for (row, point) pairs, through the walker
`hermite._gh_blocks`, which alone packs f's calls: whole pairs into blocks
of at most 2^14 points, or one pair over node slices when its rule alone
exceeds that (d = 3 at 64 nodes per axis). The working memory is a block,
under 0.4 MB of coordinates in d = 3, next to the cached GH grid (8.4 MB);
it does not grow with the number of points or times. f gets a
Fortran-ordered (n, d) view, from every walk, the polar ball profile of
`hl_maximal` too: evaluators must not assume C-contiguity. The time
suprema, paths, transforms and norms reduce to a weighted mixture sum_k
w_k T_{t_k} f, one shifted integral per (row, point) in `_mixture_values`,
which folds the times whose integrals are equal first (see _folded_rows).
A default route whose distinct rows outnumber 33 (P_t's subordination
rule: 62 to 219 rows at t from 10 down to 1e-7) is moved onto 33 fixed
rows instead (_angle_rows): a row (r, s) is the angle theta = atan2(s, r),
the row's integral is smooth in theta for smooth f, and integrating its
interpolant at 33 Chebyshev-Lobatto angles exactly against the mixture
takes 33 integrals per value. OU's one row and the rows of every other
route are kept.

Cone suprema take a different rule for the cells of a cross-section at
apex x, `_section_values`. With c = r x and delta = r(y - x)/s for a row
(r, s) = (e^{-t}, sqrt(1 - e^{-2t})), the shift u -> u + delta gives

  T_t f(y) = integral of f(c + s u) exp(2<u, delta> - |delta|^2) dgamma(u),

so f is taken once per folded row on c + s*nodes, and each cell is a
reweighted sum of those values: an importance-weighted Gauss-Hermite rule.
A cell's rule does not depend on the other cells of its section, but the
last bits of its value do: the section's cells share one matrix product.
The weight factors over the axes; the contraction walks the same node
blocks, so f sees the same 2^14 budget, and holds cells x n^{d-1} tilt
products (2 MB for 57 cells in d = 3 at 64 nodes) and an n x cells
accumulator. A (row, cell) pair whose |delta| reaches _TILT_CAP takes the
shifted rule of `_mixture_values` instead. Both OU cones keep |delta| <
1/sqrt(2) (their aperture is at most sqrt(t)), so no OU cell ever does.
The Poisson gaussian cone, on its fixed angle rows, has |delta| =
cot(theta_k)|y - x|: up to 264|y - x| on the first nonzero angle, so its
small angles take the shifted rule at all but the smallest times, and its
theta = 0 row (s = 0, where T f(y) = f(y)) takes it at every cell.
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
repeated runs land on the same argmax. A cone supremum takes its (time x
cell) grid whole from `mehler.cones._cone_grid` and evaluates it by one
`Semigroup.values` call for a series, else by `_section_values` per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hermite
from .cones import ConeSpec, _cone_grid, _positive_times
from .hermite import (
    DEFAULT_CONFIG,
    FunctionRep,
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    SeriesFunction,
    _single_point,
    as_function,
    as_points,
)
from .measure import MaximalEstimate, _first_max, gaussian_norm, hl_maximal

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


# interpolation order of the fixed angle rows of a long mixture (_angle_rows),
# set from measured error: at 16, the P_t paths of the perfbench poisson-path
# workload miss its 1e-9 `bump_abs` check (by 1.2e-9 at seed 1, 2.0e-9 at
# seed 2); at 32 the values stay within 6.7e-16 of the unprojected sums on
# bump, d = 1, 2, 3, over the default time grid
_ANGLES = 32
# Chebyshev-Lobatto angles on [0, pi/2] and their barycentric weights
_THETA = (math.pi / 4.0) * (1.0 - np.cos(np.arange(_ANGLES + 1) * math.pi / _ANGLES))
_BARY = (-1.0) ** np.arange(_ANGLES + 1)
_BARY[[0, -1]] *= 0.5
# the rows (cos theta_k, sin theta_k), exact at both ends: T_0 and the gamma-mean
_ANGLE_R = np.cos(_THETA)
_ANGLE_S = np.sin(_THETA)
_ANGLE_S[0], _ANGLE_R[-1], _ANGLE_S[-1] = 0.0, 0.0, 1.0
for _fixed in (_THETA, _BARY, _ANGLE_R, _ANGLE_S):
    _fixed.flags.writeable = False


def _decay_rows(times) -> tuple[np.ndarray, np.ndarray]:
    """The rows (e^{-t}, sqrt(1 - e^{-2t})) of many times, as arrays.

    numpy's exp may round otherwise than the math module's, so these agree
    with _decay_pair to rounding, not bit for bit; they only place rows on
    the fixed angles of _angle_rows.
    """
    ts = np.asarray(times, dtype=float)
    return np.exp(-ts), np.sqrt(-np.expm1(-2.0 * ts))


def _angle_rows(r, s, w):
    """The mixture sum_j w_j T f on rows (r_j, s_j), moved onto the fixed angle rows.

    A row's integral g(theta) = T f(x) at r = cos theta, s = sin theta is
    smooth in theta on [0, pi/2] for smooth f. Interpolating g at the
    Chebyshev-Lobatto angles theta_k and integrating the interpolant
    exactly against the mixture gives the fixed rows (cos theta_k, sin
    theta_k) with weights c_k = sum_j w_j l_k(theta_j), theta_j =
    atan2(s_j, r_j), l_k the barycentric Lagrange basis (Berrut and
    Trefethen, SIAM Review 2004). A theta_j equal to a node (t = inf, and
    every t above about 745, gives pi/2) puts its whole weight on it, so
    equal rows need no fold first. The weights depend on the times alone,
    and sum to sum_j w_j to rounding.
    """
    theta, w = np.arctan2(s, r), np.asarray(w, dtype=float)
    k = np.searchsorted(_THETA, theta)
    node = _THETA[k] == theta
    terms = _BARY / (theta[~node, None] - _THETA)
    c = (w[~node] / terms.sum(axis=1)) @ terms
    return _ANGLE_R, _ANGLE_S, c + np.bincount(k[node], w[node], minlength=_ANGLES + 1)


def _mixture_values(
    f: FunctionRep, points: np.ndarray, rows, cfg: QuadratureConfig
) -> np.ndarray:
    """sum_k w_k T_{t_k} f at each row of points, by shifted gaussian quadrature.

    rows is the (r, s, w) triple of _folded_rows. Each (row, point) pair is
    the anchor (r_k x_p, s_k) of one integral. `hermite._gh_blocks` walks
    the pairs row-major, so each point's terms are summed in the order of
    the rows. Each pair's integral is summed over its node slices and is
    one dot product per slice, so its bits do not depend on its place in a
    block.
    """
    r, s, w = rows
    acc = np.zeros(points.shape[0])
    rule = hermite.gauss_hermite_grid(f.dimension, cfg.gh_nodes)
    for k, p, blocks in hermite._gh_blocks(f.values, points, r, s, rule, "semigroup integrand"):
        row_vals = np.zeros(k.size)
        for _, vals, wts in blocks:
            row_vals += np.vecdot(vals, wts)
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
    rule = hermite.gauss_hermite_grid(d, cfg.gh_nodes)
    _, _, blocks = next(hermite._gh_blocks(f.values, centre[None, :], np.ones(1),
                                           np.array([scale]), rule, "semigroup integrand"))
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
    rule of _mixture_values instead, so a cell's rule does not depend on
    the other cells of its section; its value does only in the rounding of
    the contraction shared by the cells. Each cell's terms are summed in
    row order.
    """
    offsets = points - apex
    dist = np.sqrt(np.sum(offsets * offsets, axis=1))
    acc = np.zeros(points.shape[0])
    for r, s, w in zip(*rows):
        # |delta| < _TILT_CAP, tested without dividing by s (0 on the angle-0
        # row and once t^2/4u underflows)
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

    def _rows(self, t: float, route: str | None = None):
        """The (r, s, w) rows of the named route's mixture at t, or the default route's.

        The default route's mixture is moved onto the fixed angle rows of
        _angle_rows where its distinct rows, the ones _folded_rows would
        keep, outnumber them; every other route, and a mixture of at most
        that many rows (OU's one), keeps its own rows, folded.
        """
        default = next(iter(self.routes))
        route = default if route is None else route
        times, weights = self.routes[route](t)
        if route == default and len(times) > _ANGLES + 1:
            r, s = _decay_rows(times)
            if np.unique(r + 1j * s).size > _ANGLES + 1:
                return _angle_rows(r, s, weights)
        return _folded_rows(times, weights)

    def spectral(self, series: HermiteSeries, t: float) -> HermiteSeries:
        # the constant keeps factor exactly 1.0, so t = inf gives no inf * 0
        return _multiplied(series, lambda k: 1.0 if k == 0 else math.exp(-t * self.rate(k)))

    def _checked(self, f, times, route: str):
        """(f, its series or None, the route 'auto' resolves to, times as floats), checked.

        The spectral route needs a series and every t >= 0; a quadrature
        route needs every t > 0 (t = inf gives the gamma-mean).
        """
        f = as_function(f)
        series = _series_of(f)
        if route == "auto":
            route = "spectral" if series is not None else next(iter(self.routes))
        ts = np.asarray(times, dtype=float)
        if route == "spectral":
            if series is None:
                raise TypeError("spectral route needs a Hermite series representation")
            bad, need = ~(ts >= 0.0), "nonnegative"
        elif route not in self.routes:
            routes = (*self.routes, "spectral")
            raise ValueError(f"unknown route {route!r}; expected one of {routes} or 'auto'")
        else:
            bad, need = ~(ts > 0.0), "positive"
        if bad.any():
            raise ValueError(f"time must be {need}, got {float(ts[bad][0])}")
        return f, series, route, ts

    def values(
        self, f, points, times, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG
    ) -> np.ndarray:
        """S_t f at each (points[i], times[i]) by the named route, or by 'auto'.

        times is one time for every point or one per point. The points that
        share a time take one spectral evaluation or one `_mixture_values`
        call, whose rows depend on the time alone and whose sums on the point
        alone, so each value is the one its point gets alone.
        """
        f, series, route, ts = self._checked(f, times, route)
        pts = as_points(points, f.dimension)[0]
        if ts.size not in (1, pts.shape[0]) or ts.ndim > 1:
            raise ValueError(f"expected one time or {pts.shape[0]}, got shape {ts.shape}")
        ts = np.broadcast_to(ts.ravel(), pts.shape[:1])
        out = np.empty(pts.shape[0])
        for t in np.unique(ts).tolist():
            at = ts == t
            if route == "spectral":
                out[at] = self.spectral(series, t).evaluate(pts[at])
            else:
                out[at] = _mixture_values(f, pts[at], self._rows(t, route), cfg)
        return out

    def apply(
        self, f, x, t: float, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG
    ) -> float:
        """S_t f at the one point x by the named route, or by 'auto'."""
        f = as_function(f)
        return float(self.values(f, _single_point(x, f.dimension), t, route, cfg)[0])

    def transform(self, f, t: float, cfg: QuadratureConfig) -> FunctionRep:
        """S_t f as a function of x: series stay series, else pointwise quadrature."""
        f, series, _, ts = self._checked(f, t, "auto")
        t = float(ts)
        name = f"{self.prefix}_{t}[{f.name}]"
        if series is not None:
            return SeriesFunction(self.spectral(series, t), name=name)

        def evaluator(pts: np.ndarray) -> np.ndarray:
            return self.values(f, pts, t, "auto", cfg)

        return PointwiseFunction(f.dimension, evaluator, vectorized=True, name=name)

    def maximal(self, f, x, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None) -> MaximalEstimate:
        """sup_t |S_t f(x)| over a log time grid, with the t = inf mean appended."""
        f = as_function(f)
        xa = _single_point(x, f.dimension)
        ts = [*(cfg.time_grid.values() if times is None else _positive_times(times)), math.inf]
        vals = self.values(f, np.repeat(xa[None, :], len(ts), axis=0), ts, "auto", cfg)
        value, arg = _first_max(vals, lambda i: float(ts[i]))
        return MaximalEstimate(value=value, argmax=arg, grid_size=len(ts))

    def cone_maximal(
        self, f, x, kind: str, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None
    ) -> MaximalEstimate:
        """sup |S_t f(y)| over (y, t) inside the cone of the given kind at apex x.

        The grid is `mehler.cones._cone_grid`: a log time ladder honoring the
        cone's time window and, at each time, rings of points at fixed
        fractions of the aperture. The achieving (y, t) pair is the argmax.
        """
        if kind not in self.cones:
            raise ValueError(f"kind must be one of {self.cones}, got {kind!r}")
        f = as_function(f)
        xa = _single_point(x, f.dimension)
        ts, cells = _cone_grid(ConeSpec(xa, kind), cfg, times)
        pts = cells.reshape(-1, f.dimension)
        pt_times = np.repeat(ts, cells.shape[1])
        if _series_of(f) is not None:
            vals = self.values(f, pts, pt_times, "auto", cfg)
        else:
            vals = np.concatenate([
                _section_values(f, xa, section, self._rows(float(t)), cfg)
                for section, t in zip(cells, ts)
            ])
        # grid order is t ascending, then lexicographic y: the first largest wins ties
        value, arg = _first_max(
            vals, lambda i: (tuple(float(c) for c in pts[i]), float(pt_times[i]))
        )
        return MaximalEstimate(value=value, argmax=arg, grid_size=pts.shape[0])


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
) -> MaximalEstimate:
    """sup |T_t f(y)| over (y, t) inside the chosen cone at apex x; see Semigroup.cone_maximal."""
    return OU.cone_maximal(f, x, kind, cfg, times)


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
