"""The Ornstein-Uhlenbeck semigroup T_t, and the core it shares with P_t.

A `Semigroup` is its decay rate on the chaos of degree k = |beta| (k for
T_t, sqrt(k) for the Poisson-Hermite P_t), its cone kinds and its route
table: each route a mixture t -> (times, weights) with S_t f = sum_j w_j
T_{s_j} f, the first the default. `Semigroup.values` is the one evaluator:
it resolves 'auto' (spectral for series), checks the times and takes S_t f
by any route at a list of (point, time) pairs, optionally about one apex.
apply, the transform, the time and cone suprema and the paths and checks of
`mehler.experiments` are calls to it, and each public `ou_apply*` and
`poisson_apply*` function is one call to apply. The scope is d <= 3: cone
cross-sections (`mehler.cones._cone_grid`), like the ball rules of
`mehler.measure`, raise ValueError above it.

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
Gauss-Hermite rule, for anchors (c, s), through the walker
`hermite._gh_blocks`, which alone packs f's calls: whole anchors into
blocks of at most 2^14 points, or one anchor over node slices when its rule
alone exceeds that (d = 3 at 64 nodes per axis). The working memory is a
block, under 0.4 MB of coordinates in d = 3, next to the cached GH grid
(8.4 MB), and the pair tables of one `_mixture_values` call. f gets a
Fortran-ordered (n, d) view, from every walk, the polar ball profile of
`hl_maximal` too: evaluators must not assume C-contiguity. Every value is
a weighted mixture sum_k w_k T_{t_k} f at a (point, time) pair, and
`_mixture_values` takes all the pairs of a `Semigroup.values` call at
once, keyed by row (r, s) = (e^{-t}, sqrt(1 - e^{-2t})): the distinct rows
of all the times (_row_table; equal rows fold, see _folded_rows), and
their integrals per (point, row). A default route whose distinct rows
outnumber 33 (P_t's subordination rule: 62 to 219 rows at t from 10 down
to 1e-7) is moved onto 33 fixed rows instead (_angle_rows): a row (r, s)
is the angle theta = atan2(s, r), the row's integral is smooth in theta for
smooth f, and integrating its interpolant at 33 fixed angles, crowded
toward theta = 0, exactly against the mixture takes 33 integrals per
value, whatever the time. OU's one row and the rows of every other route
are kept. The
theta = 0 row (s = 0) is T_0 f = f: one f-value per point, times the
rule's weight sum.

Given an apex x (the paths of `mehler.experiments`, the cone suprema and
the time suprema), a (point, row) pair at y takes another rule. With
c = r x and delta = r(y - x)/s, the shift u -> u + delta gives

  T_t f(y) = integral of f(c + s u) exp(2<u, delta> - |delta|^2) dgamma(u),

so f is taken once per row on c + s*nodes, and each pair is a reweighted
sum of those values: an importance-weighted Gauss-Hermite rule (_Tilted).
On P_t's fixed angle rows f is taken on at most 33 anchors per apex
whatever the times, and all of them are one walk. A pair's rule does not
depend on the other pairs, but the last bits of its value do: the pairs
of a row share one matrix product. The weight factors over the axes; the
contraction keeps the anchor's weighted node values (n^d, 2 MB in d = 3)
from the same node blocks, so f sees the same 2^14 budget, and holds
cells x n^{d-1} tilt products (at most _TILT_CELLS entries, 2 MB, at a
time) and an n x cells accumulator. A pair whose tilt reaches _TILT_CAP
takes the shifted rule instead, anchored at (r y, s); all of those are one
more walk. The tilt of a point of a cone is bounded by where it sits in
the widest cross-section at its time (Semigroup.values), so the work of a
path or a cone depends on its times, not on its apex. Both OU cones keep
|delta| < 1/sqrt(2) (their aperture is at most sqrt(t)), so no OU cell
ever takes the shifted rule. On P_t's fixed angle rows |delta| =
cot(theta_k)|y - x|: up to 5 389|y - x| on the first nonzero angle, so
the small angles of a path or a cone take the shifted rule at all but the
smallest times. OU's rows differ at every
time, so about an apex it takes one anchor per time, as many f-points as
the shifted rule. The cap is set from the measured error of the rule, not
its speed: on the ball indicator and the spike, per (row, cell) integral
against closed forms and a 200-node shifted rule, the tilted rule errs
like the shifted one up to |delta| = 2; above it its error on the spike
grows to 1.5-2x the shifted rule's, and above 4 to orders of magnitude
more in d = 3. Nor do far pairs share anchors: on a lattice of spacing h
about r x, h in [0.25, 2], they erred 2.2-5.3x the shifted rule at the
spike's kink, d = 1. Series inputs keep the spectral route.

Suprema over continuous time and over cone cross-sections are taken on
recorded grids; every estimate reports its grid size, and ties are broken
toward the smallest time and then lexicographically in the point so
repeated runs land on the same argmax. A cone supremum takes its (time x
cell) grid whole from `mehler.cones._cone_grid` and evaluates it by one
`Semigroup.values` call about its apex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hermite
from .cones import ConeSpec, _apertures, _cone_grid, _positive_times
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

# largest tilt |delta| at which a (point, row) pair takes the tilted rule of
# _mixture_values, set from the rule's measured error (module docstring);
# both OU cones keep |delta| < 1/sqrt(2)
_TILT_CAP = 2.0
# (point, row) pairs of one _mixture_values call with no apex to share
_PAIR_BUDGET = 1 << 14
# entries of the tilt products a _Tilted holds at once (2 MB): 57 cells in
# d = 3 at 64 nodes, a whole OU cone section, or 4 096 cells in d = 2
_TILT_CELLS = 1 << 18


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
# set from measured error: at 16, on angles spread evenly in theta, the P_t
# paths of the perfbench poisson-path workload missed its 1e-9 `bump_abs`
# check (by 1.2e-9 at seed 1, 2.0e-9 at seed 2); at 32, on the angles below,
# the values stay within 8.7e-16 of the unprojected sums on bump, d = 1, 2,
# over the default time grid
_ANGLES = 32
# Chebyshev-Lobatto points xi on [0, 1], and the angles theta = (pi/2) xi^{3/2}
_XI = 0.5 * (1.0 - np.cos(np.arange(_ANGLES + 1) * math.pi / _ANGLES))
_THETA = (math.pi / 2.0) * _XI**1.5
# the rows (cos theta_k, sin theta_k), exact at both ends: T_0 and the gamma-mean
_ANGLE_R = np.cos(_THETA)
_ANGLE_S = np.sin(_THETA)
_ANGLE_S[0], _ANGLE_R[-1], _ANGLE_S[-1] = 0.0, 0.0, 1.0
for _fixed in (_XI, _THETA, _ANGLE_R, _ANGLE_S):
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
    even in theta (the gaussian is symmetric) and smooth on [0, pi/2] for
    smooth f, so it is a smooth function of xi^3 for theta = (pi/2)
    xi^{3/2}. Interpolating g in xi at the Chebyshev-Lobatto points xi_k
    and integrating the interpolant exactly against the mixture gives the
    fixed rows (cos theta_k, sin theta_k) with weights c_k = sum_j w_j
    l_k(xi_j), xi_j = (2 theta_j / pi)^{2/3}, theta_j = atan2(s_j, r_j), l_k
    the barycentric Lagrange basis (Berrut and Trefethen, SIAM Review
    2004). The angles crowd toward theta = 0, where a short time's mixture
    lies (see the poisson module docstring). A xi_j equal to a node (t =
    inf, and every t above about 745, gives 1) puts its whole weight on it,
    so equal rows need no fold first. The weights depend on the times
    alone, and sum to sum_j w_j to rounding.
    """
    bary = (-1.0) ** np.arange(_ANGLES + 1)
    bary[[0, -1]] *= 0.5
    xi = (np.arctan2(s, r) / (math.pi / 2.0)) ** (2.0 / 3.0)
    w = np.asarray(w, dtype=float)
    k = np.searchsorted(_XI, xi)
    node = _XI[k] == xi
    terms = bary / (xi[~node, None] - _XI)
    c = (w[~node] / terms.sum(axis=1)) @ terms
    return _ANGLE_R, _ANGLE_S, c + np.bincount(k[node], w[node], minlength=_ANGLES + 1)


def _row_table(mixtures):
    """(r, s, w): the distinct rows of many mixtures (r, s, w), and their weights.

    Equal rows fold, their weights summed in order. The rows come out in
    descending r (then ascending s): ascending angle, the order of the
    fixed angle rows, so every point sums its terms in one order whatever
    else shares its call. w is (mixtures, rows), zero where a mixture lacks
    a row.
    """
    if len(mixtures) == 1 and np.all(np.diff(mixtures[0][0]) < 0.0):
        # one mixture of distinct rows in that order already (OU's one row,
        # the fixed angle rows, the kernel route's rows)
        r, s, w = mixtures[0]
        return r, s, w[None]
    r = np.concatenate([m[0] for m in mixtures])
    s = np.concatenate([m[1] for m in mixtures])
    keys, col = np.unique(-r + 1j * s, return_inverse=True)
    row = np.repeat(np.arange(len(mixtures)), [m[0].size for m in mixtures])
    table = np.zeros((len(mixtures), keys.size))
    np.add.at(table, (row, col), np.concatenate([m[2] for m in mixtures]))
    return -keys.real, keys.imag, table


class _Tilted:
    """The tilted sums of one anchor (c, s) at cells y with tilts delta = r(y - x)/s.

    integral of f(c + s v) exp(2<v, delta> - |delta|^2) dgamma(v), per delta,
    from the anchor's weighted node values, kept one node block at a time
    and summed at close. The tilt factors over the axes: E_j[cell, i] =
    exp(2 delta_j g_i - delta_j^2) on the 1-d nodes g. Each block is
    contracted against the product of the trailing d - 1 tables (cells x
    n^{d-1}, at most _TILT_CELLS entries of it at a time) into one (n,
    cells) accumulator indexed by the leading axis, and the leading table
    closes the sum. A block that starts or ends inside a leading-axis slice
    is zero-padded to whole slices.
    """

    def __init__(self, tilts: np.ndarray, g: np.ndarray):
        cells, d = tilts.shape
        self.tables = [np.exp(2.0 * tilts[:, j, None] * g - tilts[:, j, None] ** 2)
                       for j in range(d)]
        self.width = g.size ** (d - 1)
        self.step = max(1, _TILT_CELLS // self.width)
        self.kept = []

    def add(self, weighted: np.ndarray, start: int) -> None:
        """Keep the weighted values of the anchor's nodes start, start + 1, ..."""
        self.kept.append((weighted, start))

    def close(self) -> np.ndarray:
        cells = self.tables[0].shape[0]
        acc = np.zeros((self.tables[0].shape[1], cells))
        for lo in range(0, cells, self.step):
            chunk = slice(lo, lo + self.step)
            trailing = np.ones((self.tables[0][chunk].shape[0], 1))
            for table in self.tables[1:]:
                trailing = (trailing[:, :, None] * table[chunk, None, :]).reshape(
                    trailing.shape[0], -1)
            for weighted, start in self.kept:
                first, skip = divmod(start, self.width)
                slices = -(-(skip + weighted.size) // self.width)
                padded = np.zeros(slices * self.width)
                padded[skip : skip + weighted.size] = weighted
                acc[first : first + slices, chunk] += padded.reshape(slices, self.width) @ trailing.T
        return np.einsum("ia,ai->i", self.tables[0], acc)


def _anchored(f: FunctionRep, apex: np.ndarray, r, s, k, offsets, rule, cfg) -> np.ndarray:
    """T_k f(apex + offset) for each pair (row k, offset), row-major, of tilt below _TILT_CAP.

    f is taken on the anchors (r_k x, s_k) of the pairs' rows, all in one
    walk of `hermite._gh_blocks`. The pairs of an anchor are the cells of
    one _Tilted, with delta = r_k offset / s_k, unless every delta is 0
    (y = x, or r_k = 0): then each takes the anchor's own sum. One _Tilted
    is held at a time: an anchor spans several blocks only alone in its group.
    """
    out = np.empty(k.size)
    anchors, first = np.unique(k, return_index=True)
    bounds = np.append(first, k.size)
    moved = (r[k] != 0.0) & np.any(offsets != 0.0, axis=1)
    g = hermite._gh_rule_1d(cfg.gh_nodes)[0]
    walk = hermite._gh_blocks(f.values, r[anchors, None] * apex, s[anchors], rule,
                              "semigroup integrand")
    for group, blocks in walk:
        spans = [slice(bounds[i], bounds[i + 1]) for i in range(anchors.size)[group]]
        tilted = np.array([moved[j].any() for j in spans])
        sums, start, tilt = np.zeros(np.sum(~tilted)), 0, None
        for _, vals, wts in blocks:
            sums += np.vecdot(vals[~tilted], wts)
            for row, j, row_vals in zip(anchors[group][tilted], np.array(spans)[tilted],
                                        vals[tilted]):
                tilt = tilt or _Tilted((r[row] / s[row]) * offsets[j], g)
                tilt.add(row_vals * wts, start)
                if start + wts.size == rule[1].size:
                    out[j], tilt = tilt.close(), None
            start += wts.size
        for j, total in zip(np.array(spans)[~tilted], sums):
            out[j] = total
    return out


def _mixture_values(
    f: FunctionRep, points: np.ndarray, rows, cfg: QuadratureConfig, apex=None, which=None,
    reach=None,
) -> np.ndarray:
    """sum_k w_k T_k f(y_p) at each point y_p, by Gauss-Hermite rules.

    rows is (r, s, w): K distinct rows (r_k, s_k), as _row_table gathers
    them from the folded rows of _folded_rows or the fixed angle rows of
    _angle_rows, and weights w, (K,) for every point or (mixtures, K) with
    which[p] the mixture of point p.
    T_k f(y) is the integral of f(r_k y + s_k u) dgamma(u), one per (point,
    row) pair of nonzero weight, by:
      * s_k = 0 (the angle-0 row, T_0 f = f): f(r_k y) times the rule's
        weight sum, one f-value;
      * r_k rho < _TILT_CAP s_k, given an apex x (_anchored): the anchor
        (r_k x, s_k), f taken once per row whatever the points. With delta
        = r_k(y - x)/s_k the shift u -> u + delta gives
          T_k f(y) = integral of f(r_k x + s_k u) exp(2<u, delta> - |delta|^2) dgamma(u),
        an importance-weighted rule (_Tilted). rho is reach[p], a bound on
        |y - x| (|y - x| itself by default), so |delta| < _TILT_CAP;
      * every other pair: the shifted rule, anchored at (r_k y, s_k).
    The anchors of the rows and then the shifted pairs, row-major, are each
    one walk of `hermite._gh_blocks`. A pair's rule depends on its point
    and row alone, its value on the other pairs only in the rounding of the
    tilted contraction they share. Each point sums its terms in row order.
    """
    r, s, w = rows
    n, d = points.shape
    w = np.atleast_2d(w)
    which = np.zeros(n, dtype=int) if which is None else which
    # the pairs of nonzero weight, row-major
    k, p = np.nonzero((w != 0.0).T[:, which])
    integral = np.zeros(k.size)
    rule = hermite.gauss_hermite_grid(d, cfg.gh_nodes)
    what = "semigroup integrand"
    flat = s[k] == 0.0
    if flat.any():
        pts = r[k[flat], None] * points[p[flat]]
        vals = f.values(pts)
        hermite._require_finite(vals, pts, what)
        integral[flat] = vals * np.sum(rule[1])
    near = np.zeros(k.size, dtype=bool)
    if apex is not None:
        offsets = points[p] - apex
        rho = np.sqrt(np.sum(offsets * offsets, axis=1)) if reach is None else reach[p]
        # |delta| < _TILT_CAP, tested without dividing by s
        near = ~flat & (r[k] * rho < _TILT_CAP * s[k])
        integral[near] = _anchored(f, apex, r, s, k[near], offsets[near], rule, cfg)
    far = np.flatnonzero(~flat & ~near)
    # take is cheaper than fancy indexing on these long index arrays
    kf, pf = k.take(far), p.take(far)
    for group, blocks in hermite._gh_blocks(f.values, r.take(kf)[:, None] * points.take(pf, axis=0),
                                            s.take(kf), rule, what):
        sums = np.zeros(far[group].size)
        for _, vals, wts in blocks:
            sums += np.vecdot(vals, wts)
        integral[far[group]] = sums
    out = np.zeros(n)
    np.add.at(out, p, w.ravel().take(which[p] * r.size + k) * integral)
    return out


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
        self, f, points, times, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG,
        apex=None, cone: str | None = None,
    ) -> np.ndarray:
        """S_t f at each (points[i], times[i]) by the named route, or by 'auto'.

        times is one time for every point or one per point. A quadrature
        route takes every pair by one `_mixture_values` call on the rows of
        all the times; given the apex x the pairs take its anchors (r x, s)
        wherever their tilt allows, so a path, a cone or a time supremum
        about x takes f once per row. Given also the kind of cone the points
        lie in, a point inside the cone at fraction q of its cross-section's
        radius bounds its tilt with q times the radius about an apex of norm
        0, the widest at every t: the rule of the point then depends on its
        time, row and q alone, and the work of a cone or path does not depend
        on its apex. Without an apex a point's value is the one it gets
        alone; with one, up to the rounding of the tilted contraction.
        """
        f, series, route, ts = self._checked(f, times, route)
        pts = as_points(points, f.dimension)[0]
        if ts.size not in (1, pts.shape[0]) or ts.ndim > 1:
            raise ValueError(f"expected one time or {pts.shape[0]}, got shape {ts.shape}")
        uniq, which = np.unique(ts.ravel(), return_inverse=True)
        which = np.broadcast_to(which, pts.shape[:1])
        out = np.empty(pts.shape[0])
        if route == "spectral":
            for i, t in enumerate(uniq.tolist()):
                out[which == i] = self.spectral(series, t).evaluate(pts[which == i])
            return out
        if not out.size:
            return out
        rows = _row_table([self._rows(t, route) for t in uniq.tolist()])
        if apex is not None:
            # every pair at once: they share the apex's anchors
            x = _single_point(apex, f.dimension)
            reach = np.linalg.norm(pts - x, axis=1)
            if cone is not None:
                # a point at fraction q of its section's radius is bounded as
                # q times the widest section's: an apex of norm 0
                own = _apertures(cone, np.linalg.norm(x), uniq[which])
                inside = reach < own
                reach[inside] *= _apertures(cone, 0.0, uniq[which][inside]) / own[inside]
            return _mixture_values(f, pts, rows, cfg, x, which, reach)
        step = max(1, _PAIR_BUDGET // int(np.max(np.sum(rows[2] != 0.0, axis=1))))
        for lo in range(0, out.size, step):
            chunk = slice(lo, lo + step)
            out[chunk] = _mixture_values(f, pts[chunk], rows, cfg, which=which[chunk])
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
        vals = self.values(f, np.repeat(xa[None, :], len(ts), axis=0), ts, "auto", cfg, xa)
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
        vals = self.values(f, pts, pt_times, "auto", cfg, xa, kind)
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
