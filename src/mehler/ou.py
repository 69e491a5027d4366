"""The Ornstein-Uhlenbeck semigroup T_t, and the core it shares with P_t.

A `Semigroup` is its decay rate on the chaos of degree k = |beta| (k for
T_t, sqrt(k) for the Poisson-Hermite P_t), its cone kinds and its route
table: each route a function t -> (r, s, w), the rows of a mixture of OU
times (below), the first the default. `Semigroup.values` is the one evaluator:
it resolves 'auto' (spectral for series), checks the times and takes S_t f
by any route at a list of (point, time) pairs, optionally about one apex.
apply, the transform, the one supremum `maximal` (over time, or over a
cone) and the paths and checks of `mehler.experiments` are calls to it,
and each public `ou_apply*` and `poisson_apply*` function is one call to
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

Every value is a weighted mixture sum_k w_k T_{t_k} f at a (point, time)
pair, and T_t f is an integral on the row (r, s) = (e^{-t}, sqrt(1 -
e^{-2t})). A route maps a finite time to its rows (r, s, w): OU's one row
(_time_rows), P_t's kernel rows, or P_t's default mixture moved onto the 33
fixed angle rows (`mehler.poisson._angle_rows`). t = inf is one row for
every route, the gamma-mean's (_GAMMA_MEAN). `_mixture_values` takes all
the pairs of one `Semigroup.values` call at once, keyed by row: equal rows
fold in one place (_row_table), so a row is integrated once per point
however many times share it. The s = 0 row is T_0 f = f: one f-value per
point, times the rule's weight sum.

Every other integral takes f on c + s*nodes of one Gauss-Hermite rule, for
anchors (c, s), through the walker `hermite._gh_blocks`. It alone packs
f's calls, so f sees blocks of at most 2^14 points, and the working memory
is a block next to the cached grid. f gets a Fortran-ordered (n, d) view
from every walk, the polar ball profile of `hl_maximal` too: evaluators
must not assume C-contiguity.

With no apex a pair at y takes the shifted rule, anchored at (r y, s).
Given an apex x (the paths of `mehler.experiments`, the cone suprema and
the time suprema), it takes its row's anchor (r x, s) instead where its
tilt allows. With delta = r(y - x)/s, the shift u -> u + delta gives

  T_t f(y) = integral of f(r x + s u) exp(2<u, delta> - |delta|^2) dgamma(u),

so f is taken once per row on r x + s*nodes, whatever the points, and each
pair is a reweighted sum of those values: an importance-weighted
Gauss-Hermite rule. The weight factors over the axes, so the contraction
(_tilted_sums) is a matrix product against per-axis tables. All the anchors
of a call, tilted, plain (every delta 0) and shifted, are one walk; a
tilted anchor keeps its n^d weighted values only until its group of the
walk ends. A pair's rule does not depend on the other pairs, but the last
bits of its value do: the pairs of a row share one contraction.

A pair whose tilt reaches _TILT_CAP takes the shifted rule instead. The cap
is set from the rule's measured error, not its speed: on the ball
indicator and the spike, against closed forms and a fine shifted rule, the
tilted rule errs like the shifted one below the cap and worse above it,
and far pairs sharing re-centred anchors erred more than the shifted rule
at the spike's kink. Both OU cones keep |delta| < 1/sqrt(2) (their
aperture is at most sqrt(t)), so no OU cell takes the shifted rule; OU's
rows differ at every time, so about an apex it takes one anchor per time.
On P_t's fixed angle rows |delta| = cot(theta_k)|y - x|, so their small
angles take the shifted rule at all but the smallest times. The tilt of a
point of a cone is bounded by where it sits in the widest cross-section at
its time (Semigroup.values), so the work of a path or a cone depends on
its times, not on its apex. Series inputs keep the spectral route.

Suprema over continuous time and over cone cross-sections are taken on
recorded grids; every estimate reports its grid size, and ties are broken
toward the smallest time and then lexicographically in the point so
repeated runs land on the same argmax. `Semigroup.maximal` takes its grid
whole, the time ladder at the apex or the (time x cell) grid of
`mehler.cones._cone_grid`, and evaluates it by one `Semigroup.values` call
about its apex.
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
# entries of the trailing tilt products _tilted_sums holds at once (2 MB):
# 64 cells in d = 3 at 64 nodes, so a whole OU cone section, or 4 096 in d = 2
_TILT_CELLS = 1 << 18


def _decay_pair(t: float) -> tuple[float, float]:
    """(e^{-t}, sqrt(1 - e^{-2t})), stable for tiny t and exact at t = inf."""
    r = math.exp(-t)
    s = math.sqrt(-math.expm1(-2.0 * t))
    return r, s


def _time_rows(times, weights):
    """(r, s, w): one row (e^{-t}, sqrt(1 - e^{-2t})) per time, by _decay_pair.

    Equal rows are kept: _row_table folds them. Every t above about 745
    gives (0.0, 1.0), the gamma-mean's row.
    """
    r, s = np.array([_decay_pair(float(t)) for t in times]).reshape(-1, 2).T
    return r, s, np.asarray(weights, dtype=float)


# the t = inf row of every quadrature route: T_inf f is the gamma-mean of f
_GAMMA_MEAN = (np.zeros(1), np.ones(1), np.ones(1))
for _fixed in _GAMMA_MEAN:
    _fixed.flags.writeable = False


def _row_table(mixtures):
    """(r, s, w): the distinct rows of many mixtures (r, s, w), and their weights.

    The one fold of equal rows: rows with equal (r, s) build bitwise-equal
    blocks at every point, so they become one row whose weight is the sum of
    theirs, summed in input order. The fold is exact up to the order of the
    sum: the row's integral is multiplied by the summed weight instead of
    being added once per time. The rows come out in descending r (then
    ascending s): ascending time and angle, the order of the fixed angle
    rows, so every point sums its terms in one order whatever else shares
    its call. w is (mixtures, rows), zero where a mixture lacks a row.
    """
    r = np.concatenate([m[0] for m in mixtures])
    s = np.concatenate([m[1] for m in mixtures])
    keys, col = np.unique(-r + 1j * s, return_inverse=True)
    row = np.repeat(np.arange(len(mixtures)), [m[0].size for m in mixtures])
    table = np.zeros((len(mixtures), keys.size))
    np.add.at(table, (row, col), np.concatenate([m[2] for m in mixtures]))
    return -keys.real, keys.imag, table


def _tilted_sums(weighted: np.ndarray, tilts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """integral of f(c + s v) exp(2<v, delta> - |delta|^2) dgamma(v) for each tilt delta.

    weighted holds the n^d weighted node values of one anchor (c, s), g the
    1-d nodes. The tilt factors over the axes: E_j[cell, i] = exp(2 delta_j
    g_i - delta_j^2). The values, as n rows of the leading axis, are
    contracted against the product of the trailing d - 1 tables (cells x
    n^{d-1}, at most _TILT_CELLS entries of it at a time), as many rows at
    once as fill one block of the walk, and the leading table closes the
    sum. The products' shapes depend on n, d and the cells alone, so a
    value's rounding does not depend on how its anchor shares the walk.
    """
    cells, d = tilts.shape
    tables = [np.exp(2.0 * tilts[:, j, None] * g - tilts[:, j, None] ** 2) for j in range(d)]
    width = g.size ** (d - 1)
    leading = weighted.reshape(g.size, width)
    per_product = max(1, hermite._BLOCK_POINTS // width)
    step = max(1, _TILT_CELLS // width)
    acc = np.empty((g.size, cells))
    for lo in range(0, cells, step):
        chunk = slice(lo, lo + step)
        trailing = np.ones((tables[0][chunk].shape[0], 1))
        for table in tables[1:]:
            trailing = (trailing[:, :, None] * table[chunk, None, :]).reshape(
                trailing.shape[0], -1)
        for i in range(0, g.size, per_product):
            acc[i : i + per_product, chunk] = leading[i : i + per_product] @ trailing.T
    return np.einsum("ia,ai->i", tables[0], acc)


def _mixture_values(
    f: FunctionRep, points: np.ndarray, rows, cfg: QuadratureConfig, apex=None, which=None,
    reach=None,
) -> np.ndarray:
    """sum_k w_k T_k f(y_p) at each point y_p, by Gauss-Hermite rules.

    rows is (r, s, w): K distinct rows (r_k, s_k), as _row_table folds them
    from the routes' rows, and weights w, (K,) for every point or
    (mixtures, K) with which[p] the mixture of point p.
    T_k f(y) is the integral of f(r_k y + s_k u) dgamma(u), one per (point,
    row) pair of nonzero weight, by:
      * s_k = 0 (the angle-0 row, T_0 f = f): f(r_k y) times the rule's
        weight sum, one f-value;
      * r_k rho < _TILT_CAP s_k, given an apex x: the row's anchor (r_k x,
        s_k), f taken once per row whatever the points. With delta = r_k(y
        - x)/s_k the shift u -> u + delta gives
          T_k f(y) = integral of f(r_k x + s_k u) exp(2<u, delta> - |delta|^2) dgamma(u),
        an importance-weighted rule (_tilted_sums). rho is reach[p], a bound
        on |y - x| (|y - x| itself by default), so |delta| < _TILT_CAP. A
        row whose deltas are all 0 (y = x, or r_k = 0) is a plain sum;
      * every other pair: the shifted rule, its own anchor (r_k y, s_k).
    The flat pairs are one f-call. The anchors, the rows' and then the
    shifted pairs', row-major, are one walk of `hermite._gh_blocks`: a plain
    anchor sums its blocks, a tilted one keeps its weighted values until its
    group ends. A pair's rule depends on its point and row alone, its value
    on the other pairs only in the rounding of the tilted contraction they
    share. Each point sums its terms in row order.
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
    far = np.flatnonzero(~flat)
    heads, moved = far[:0], np.zeros(0, dtype=bool)
    if apex is not None:
        offsets = points[p] - apex
        rho = np.sqrt(np.sum(offsets * offsets, axis=1)) if reach is None else reach[p]
        # |delta| < _TILT_CAP, tested without dividing by s
        near = ~flat & (r[k] * rho < _TILT_CAP * s[k])
        shared, far = np.flatnonzero(near), np.flatnonzero(~flat & ~near)
        # one anchor per row of the shared pairs, tilted unless every delta is 0
        heads, first, row = np.unique(k[shared], return_index=True, return_inverse=True)
        moved = np.zeros(heads.size, dtype=bool)
        moved[row[(r[k[shared]] != 0.0) & np.any(offsets[shared] != 0.0, axis=1)]] = True
        bounds = np.append(first, shared.size)
        g = hermite._gh_rule_1d(cfg.gh_nodes)[0]
    # take is cheaper than fancy indexing on these long index arrays
    kf, pf = k.take(far), p.take(far)
    centres, scales = r.take(kf)[:, None] * points.take(pf, axis=0), s.take(kf)
    if heads.size:
        centres = np.concatenate([r[heads, None] * apex, centres])
        scales = np.concatenate([s[heads], scales])
    sums = np.zeros(scales.size)
    for group, blocks in hermite._gh_blocks(f.values, centres, scales, rule, what):
        # the group's tilted anchors keep their weighted values until it ends
        tilt = np.flatnonzero(moved[group])
        weighted, start = np.empty((tilt.size, rule[1].size)), 0
        for _, vals, wts in blocks:
            sums[group] += np.vecdot(vals, wts)
            if tilt.size:
                weighted[:, start : start + wts.size] = vals[tilt] * wts
                start += wts.size
        for a, values in zip(tilt + group.start, weighted):
            j = shared[bounds[a] : bounds[a + 1]]
            integral[j] = _tilted_sums(values, (r[heads[a]] / s[heads[a]]) * offsets[j], g)
    if heads.size:
        plain = ~moved[row]
        integral[shared[plain]] = sums[row[plain]]
    integral[far] = sums[heads.size :]
    out = np.zeros(n)
    np.add.at(out, p, w.ravel().take(which[p] * r.size + k) * integral)
    return out


def _multiplied(series: HermiteSeries, factor: Callable[[int], float]) -> HermiteSeries:
    """The series with each coefficient c_beta multiplied by factor(|beta|)."""
    return HermiteSeries(
        series.dimension, {beta.entries: c * factor(beta.degree) for beta, c in series.terms()}
    )


@dataclass(frozen=True, eq=False)
class Semigroup:
    """S_t from its decay rate on chaos k = |beta|, its routes and its cones.

    prefix names the transforms ("T" or "P"); routes maps each quadrature
    route's name to its rows t -> (r, s, w) at a finite t > 0, with S_t f =
    sum_k w_k T f on the row (r_k, s_k) for a black-box f, the first route
    being the default; at t = inf every route is the one row _GAMMA_MEAN.
    cones holds the cone kinds `maximal` takes.
    """

    prefix: str
    rate: Callable[[int], float]
    routes: dict
    cones: tuple

    def spectral(self, series: HermiteSeries, t: float) -> HermiteSeries:
        # the constant keeps factor exactly 1.0, so t = inf gives no inf * 0
        return _multiplied(series, lambda k: 1.0 if k == 0 else math.exp(-t * self.rate(k)))

    def _checked(self, f, times, route: str):
        """(f, its series or None, the route 'auto' resolves to, times as floats), checked.

        The spectral route needs a series and every t >= 0; a quadrature
        route needs every t > 0 (t = inf gives the gamma-mean).
        """
        f = as_function(f)
        series = f.series if isinstance(f, SeriesFunction) else None
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
        rows = _row_table([
            _GAMMA_MEAN if math.isinf(t) else self.routes[route](t) for t in uniq.tolist()])
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

    def maximal(
        self, f, x, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None, cone: str | None = None
    ) -> MaximalEstimate:
        """sup |S_t f| about the apex x: over time at x, or over a cone of the given kind.

        With no cone it is sup_t |S_t f(x)| over a log time grid, with the t =
        inf mean appended, and the argmax is a time. With a cone it is sup
        |S_t f(y)| over (y, t) inside the cone at apex x, on the grid of
        `mehler.cones._cone_grid`: a log time ladder honoring the cone's time
        window and, at each time, rings of points at fixed fractions of the
        aperture; the argmax is the achieving (y, t) pair. Either grid is one
        `values` call about x.
        """
        if cone is not None and cone not in self.cones:
            raise ValueError(f"kind must be one of {self.cones}, got {cone!r}")
        f = as_function(f)
        xa = _single_point(x, f.dimension)
        if cone is None:
            ts = np.append(cfg.time_grid.values() if times is None else _positive_times(times),
                           math.inf)
            pts = np.repeat(xa[None, :], ts.size, axis=0)
        else:
            ts, cells = _cone_grid(ConeSpec(xa, cone), cfg, times)
            pts = cells.reshape(-1, f.dimension)
            ts = np.repeat(ts, cells.shape[1])
        vals = self.values(f, pts, ts, "auto", cfg, xa, cone)
        # grid order is t ascending, then lexicographic y: the first largest wins ties
        at = ts.item if cone is None else lambda i: (tuple(pts[i].tolist()), ts.item(i))
        value, arg = _first_max(vals, at)
        return MaximalEstimate(value=value, argmax=arg, grid_size=pts.shape[0])


OU = Semigroup(
    "T", lambda k: k, {"change_of_var": lambda t: _time_rows((t,), (1.0,))},
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
    """sup |T_t f(y)| over (y, t) inside the chosen cone at apex x; see Semigroup.maximal."""
    return OU.maximal(f, x, cfg, times, kind)


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
