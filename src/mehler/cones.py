"""Gaussian approach regions and paths along which (y, t) tends to an apex.

Three cone shapes are supported, all centered at an apex x and all using
strict inequalities. The admissible cross-section at time t is a ball of
radius aperture(t) around x:

  parabolic-gaussian   |y - x| < min(sqrt(t), 1/|x|, 1)
  gaussian             |y - x| < min(t, 1/|x|, 1)
  truncated-parabolic  |y - x| < sqrt(t), restricted to 0 < t < min(1/|x|^2, 1/4)

1/|x| is read as +infinity at the origin, so the shrink-with-|x| clause
never binds there. Paths are deterministic: a geometric time ladder and a
fixed unit direction scaled by a fraction of the aperture.

The cone suprema of `mehler.ou` search the grid of `_cone_grid`, built as
one (times, cells, d) array; cross-sections are built for d <= 3. One
aperture formula, `_apertures`, serves `ConeSpec`, the grid and the
membership test `_contains`, which takes many (apex, point, time) samples
in one array expression; `cone_contains` is its one-sample case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import DEFAULT_CONFIG, QuadratureConfig

CONE_KINDS = ("parabolic-gaussian", "gaussian", "truncated-parabolic")

# relative margin below the time cap when a cone's time window is bounded
_CAP_MARGIN = 1e-6


def _as_apex(value) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("apex must be a point in R^d")
    if not np.all(np.isfinite(arr)):
        raise ValueError("apex must have finite coordinates")
    return tuple(float(c) for c in arr)


def _time_caps(kind: str, apex_norm) -> np.ndarray:
    """Supremum of admissible times at apexes of norm apex_norm (+inf when unbounded)."""
    n = np.asarray(apex_norm, dtype=float)
    if kind != "truncated-parabolic":
        return np.full(n.shape, math.inf)
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(1.0 / (n * n), 0.25)


def _apertures(kind: str, apex_norm, t) -> np.ndarray:
    """Radius of the cross-section at time t about an apex of norm apex_norm (0 when empty).

    The one aperture formula of the table above, for `ConeSpec.aperture`
    and the batched membership of `_contains`; its arguments broadcast.
    """
    n = np.asarray(apex_norm, dtype=float)
    t = np.asarray(t, dtype=float)
    if kind == "truncated-parabolic":
        radius = np.where(t < _time_caps(kind, n), np.sqrt(np.maximum(t, 0.0)), 0.0)
    else:
        with np.errstate(divide="ignore", over="ignore"):
            inv = 1.0 / n
        reach = np.sqrt(np.maximum(t, 0.0)) if kind == "parabolic-gaussian" else t
        radius = np.minimum(np.minimum(reach, inv), 1.0)
    return np.where(t <= 0.0, 0.0, radius)


def _contains(kind: str, apexes: np.ndarray, points: np.ndarray, times) -> np.ndarray:
    """Strict membership of each (points[i], times[i]) in the cone of kind at apexes[i].

    apexes and points are (n, d) arrays; rows padded with zeros to a common
    d give the same norms, so apexes of several dimensions share one call.
    """
    dist = np.linalg.norm(points - apexes, axis=-1)
    return dist < _apertures(kind, np.linalg.norm(apexes, axis=-1), times)


@dataclass(frozen=True)
class ConeSpec:
    """An approach region anchored at ``apex`` with one of the three shapes."""

    apex: tuple[float, ...]
    kind: str = "parabolic-gaussian"

    def __post_init__(self):
        object.__setattr__(self, "apex", _as_apex(self.apex))
        if self.kind not in CONE_KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}; expected one of {CONE_KINDS}")

    @property
    def dimension(self) -> int:
        return len(self.apex)

    @property
    def apex_norm(self) -> float:
        return float(np.linalg.norm(self.apex))

    @property
    def time_cap(self) -> float:
        """Supremum of admissible times (+inf when the window is unbounded)."""
        return float(_time_caps(self.kind, self.apex_norm))

    def aperture(self, t: float) -> float:
        """Radius of the admissible cross-section at time t (0 when empty)."""
        return float(_apertures(self.kind, self.apex_norm, float(t)))

    def apex_array(self) -> np.ndarray:
        return np.asarray(self.apex, dtype=float)


def _cross_fractions(count: int) -> tuple[float, ...]:
    """Aperture fractions: half spread over the body, half bunched at the wall."""
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


def _cone_grid(
    spec: ConeSpec, cfg: QuadratureConfig, times=None
) -> tuple[np.ndarray, np.ndarray]:
    """(ts, cells): the searched times, ascending, and the (times, cells, d) cells at each.

    The default ladder is the configured log time grid, its top pulled to
    (1 - 1e-9) * cap under a finite time cap. At each time the apex comes
    first, then rings at the nonzero fractions of `_cross_fractions` of the
    aperture along `_directions`, and the cells are sorted
    lexicographically, which fixes the winner among equal values.
    """
    if times is None:
        cap = spec.time_cap
        lo, hi = cfg.time_grid.lo, cfg.time_grid.hi
        if math.isfinite(cap):
            hi = (1.0 - 1e-9) * cap
            lo = min(lo, 1e-4 * hi)
        ts = np.geomspace(lo, hi, cfg.time_grid.count)
    else:
        ts = _positive_times(times)
        if not np.all(ts < spec.time_cap):
            raise ValueError("times must sit below the cone's time cap")
    fracs = np.array([fr for fr in _cross_fractions(cfg.cross_radial) if fr != 0.0])
    dirs = _directions(spec.dimension, cfg.cross_angular)
    radii = fracs[None, :] * _apertures(spec.kind, spec.apex_norm, ts)[:, None]
    rings = (radii[:, :, None, None] * dirs).reshape(ts.size, -1, spec.dimension)
    offsets = np.concatenate([np.zeros((ts.size, 1, spec.dimension)), rings], axis=1)
    cells = spec.apex_array() + offsets
    order = np.lexsort(np.moveaxis(cells[..., ::-1], -1, 0), axis=-1)
    return ts, np.take_along_axis(cells, order[..., None], axis=1)


def cone_contains(spec: ConeSpec, y, t: float) -> bool:
    """Strict membership of the space-time point (y, t) in the cone."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if arr.shape != (spec.dimension,):
        raise ValueError(f"point has shape {arr.shape}, cone lives in R^{spec.dimension}")
    return bool(_contains(spec.kind, spec.apex_array()[None, :], arr[None, :], t)[0])


@dataclass(frozen=True)
class ApproachPath:
    """A finite in-cone sequence (y_k, t_k) with t_k strictly decreasing."""

    spec: ConeSpec
    points: tuple[tuple[tuple[float, ...], float], ...]
    fraction: float

    def __post_init__(self):
        if not self.points:
            raise ValueError("path must contain at least one point")
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError("fraction must lie in [0, 1)")
        clean, fault = [], None
        last_t = math.inf
        try:
            for y, t in self.points:
                t = float(t)
                if not t < last_t:
                    raise ValueError("path times must be strictly decreasing")
                last_t = t
                y = _as_apex(y)
                if not t > 0.0:
                    raise ValueError(f"time must be positive, got {t}")
                if len(y) != self.spec.dimension:
                    raise ValueError(
                        f"point has shape {(len(y),)}, cone lives in R^{self.spec.dimension}"
                    )
                clean.append((y, t))
        except ValueError as err:
            fault = err
        # one membership test for the points before the first malformed one;
        # a point outside the cone among them is reported first
        if clean:
            ys, ts = (np.array(column) for column in zip(*clean))
            outside = ~_contains(self.spec.kind, self.spec.apex_array()[None, :], ys, ts)
            if outside.any():
                y, t = clean[int(np.argmax(outside))]
                raise ValueError(f"path point (y={y}, t={t}) falls outside the cone")
        if fault is not None:
            raise fault
        object.__setattr__(self, "points", tuple(clean))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def times(self) -> np.ndarray:
        return np.array([t for _, t in self.points])


def _unit_direction(direction, d: int) -> np.ndarray:
    # the unit vector along `direction`; e_1 when it is None
    if direction is None:
        u = np.zeros(d)
        u[0] = 1.0
        return u
    u = np.atleast_1d(np.asarray(direction, dtype=float))
    if u.shape != (d,):
        raise ValueError(f"direction has shape {u.shape}, path lives in R^{d}")
    # scaled by max|u_i| first, so the norm neither overflows nor underflows
    scale = float(np.max(np.abs(u)))
    if not 0.0 < scale < math.inf:
        raise ValueError("direction must be a finite nonzero vector")
    u = u / scale
    return u / np.linalg.norm(u)


def cone_path(
    spec: ConeSpec,
    n: int,
    eta: float,
    decay: float,
    direction=None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> ApproachPath:
    """Build the path t_k = t0 * decay^k, y_k = apex + eta * aperture(t_k) * u.

    t0 is the top of the configured time grid, pulled just below the cone's
    time cap when the window is bounded. eta in [0, 1) sets how far toward
    the cone wall the path travels; eta = 0 is the radial path y_k = apex.
    """
    if n < 1:
        raise ValueError("need at least one path point")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    u = _unit_direction(direction, spec.dimension)
    cap = spec.time_cap
    t0 = cfg.time_grid.hi if math.isinf(cap) else min(cfg.time_grid.hi, (1.0 - _CAP_MARGIN) * cap)
    if not t0 > 0.0:
        raise ValueError("cone admits no positive time")
    ts = [t0 * decay**k for k in range(n)]
    ys = spec.apex_array() + eta * _apertures(spec.kind, spec.apex_norm, ts)[:, None] * u
    points = tuple((tuple(float(c) for c in y), float(t)) for y, t in zip(ys, ts))
    return ApproachPath(spec=spec, points=points, fraction=float(eta))


def tangential_path(
    x,
    n: int,
    exponent: float,
    decay: float = 0.5,
    t_start: float = 0.25,
    direction=None,
) -> tuple[tuple[tuple[float, ...], float], ...]:
    """Contrast path with |y_k - x| = t_k^exponent, exponent < 1/2.

    Because t^a >> sqrt(t) as t drops when a < 1/2, the points eventually
    leave every parabolic approach region; the sequence still has t_k
    strictly decreasing to 0 and y_k -> x.
    """
    if n < 1:
        raise ValueError("need at least one path point")
    if not 0.0 < exponent < 0.5:
        raise ValueError("exponent must lie in (0, 1/2)")
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must lie in (0, 1)")
    if not t_start > 0.0:
        raise ValueError("t_start must be positive")
    apex = np.atleast_1d(np.asarray(x, dtype=float))
    u = _unit_direction(direction, apex.size)
    points = []
    for k in range(n):
        t = t_start * decay**k
        y = apex + (t**exponent) * u
        points.append((tuple(float(c) for c in y), float(t)))
    return tuple(points)
