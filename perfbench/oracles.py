"""Closed forms and grids written out independently of `mehler`.

Every operation the benchmark times is checked against these. Nothing here
imports `mehler`: the grids the program searches (time ladders, aperture
fractions, directions, approach paths) are restated from their documented
formulas, and the semigroup values come from closed forms.

Conventions match the package: gamma_d has density exp(-|x|^2) / pi^(d/2),
T_u f(y) = E f(e^{-u} y + sqrt(1 - e^{-2u}) U) with U ~ N(0, I/2), and
P_t f = 2/sqrt(pi) * int_0^inf e^{-v^2} T_{t^2/4v^2} f dv.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite as nph
from scipy import integrate, special, stats

CONE_TIME_LO, CONE_TIME_HI, CONE_TIME_COUNT = 1e-4, 10.0, 64
CROSS_RADIAL, CROSS_ANGULAR = 8, 8


# ---------------------------------------------------------------------------
# cones, ladders and paths
# ---------------------------------------------------------------------------


def time_cap(kind: str, apex) -> float:
    n = float(np.linalg.norm(apex))
    if kind == "truncated-parabolic":
        return 0.25 if n == 0.0 else min(1.0 / (n * n), 0.25)
    return math.inf


def aperture(kind: str, apex, t: float) -> float:
    """Radius of the cone's cross-section at time t."""
    if t <= 0.0:
        return 0.0
    if kind == "truncated-parabolic":
        return math.sqrt(t) if t < time_cap(kind, apex) else 0.0
    n = float(np.linalg.norm(apex))
    inv = math.inf if n == 0.0 else 1.0 / n
    reach = math.sqrt(t) if kind == "parabolic-gaussian" else t
    return min(reach, inv, 1.0)


def in_cone(kind: str, apex, y, t: float) -> bool:
    dist = float(np.linalg.norm(np.asarray(y, dtype=float) - np.asarray(apex, dtype=float)))
    return t > 0.0 and dist < aperture(kind, apex, t)


def cone_ladder(kind: str, apex) -> np.ndarray:
    """Default time ladder of a cone supremum, honouring a bounded time window."""
    cap = time_cap(kind, apex)
    lo, hi = CONE_TIME_LO, CONE_TIME_HI
    if math.isfinite(cap):
        hi = (1.0 - 1e-9) * cap
        lo = min(lo, 1e-4 * hi)
    return np.geomspace(lo, hi, CONE_TIME_COUNT)


def time_ladder() -> np.ndarray:
    return np.geomspace(CONE_TIME_LO, CONE_TIME_HI, CONE_TIME_COUNT)


def radius_ladder() -> np.ndarray:
    """Default radii of the ball-average supremum."""
    return np.geomspace(1e-3, 8.0, 64)


def _fractions() -> np.ndarray:
    inner = CROSS_RADIAL // 2
    body = np.linspace(0.0, 1.0, inner, endpoint=False)
    wall = 1.0 - np.power(10.0, -np.arange(1, CROSS_RADIAL - inner + 1, dtype=float))
    return np.concatenate([body, wall])


def _directions(d: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = 2.0 * math.pi * np.arange(CROSS_ANGULAR) / CROSS_ANGULAR
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    k = np.arange(CROSS_ANGULAR, dtype=float) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * k / CROSS_ANGULAR
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def cross_section(kind: str, apex, t: float) -> np.ndarray:
    """The apex plus rings at fixed aperture fractions: the searched points at time t."""
    apex = np.asarray(apex, dtype=float)
    a = aperture(kind, apex, t)
    offsets = [np.zeros(apex.size)]
    for fr in _fractions():
        if fr != 0.0:
            offsets.extend(fr * a * u for u in _directions(apex.size))
    return apex[None, :] + np.asarray(offsets)


def approach_path(kind: str, apex, n: int, eta: float, decay: float) -> list:
    """t_k = t0 decay^k, y_k = apex + eta * aperture(t_k) * e_1."""
    apex = np.asarray(apex, dtype=float)
    cap = time_cap(kind, apex)
    t0 = CONE_TIME_HI if math.isinf(cap) else min(CONE_TIME_HI, (1.0 - 1e-6) * cap)
    e1 = np.zeros(apex.size)
    e1[0] = 1.0
    out = []
    for k in range(n):
        t = t0 * decay**k
        out.append((apex + eta * aperture(kind, apex, t) * e1, t))
    return out


# ---------------------------------------------------------------------------
# Hermite series by numpy.polynomial.hermite
# ---------------------------------------------------------------------------


def _hermite_table(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Normalized h_k(x) for k <= max_degree, shape (max_degree + 1, len(x))."""
    raw = nph.hermval(np.asarray(x, dtype=float), np.eye(max_degree + 1))
    norms = np.array([math.sqrt(2.0**k * math.factorial(k)) for k in range(max_degree + 1)])
    return raw / norms[:, None]


def series_values(terms, points, t=0.0, semigroup: str = "ou") -> np.ndarray:
    """sum_beta c_beta m(t, |beta|) h_beta(y) with m = e^{-t|b|} or e^{-t sqrt|b|}.

    t is one time for all points or one per point; t = inf leaves the mean.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    times = np.broadcast_to(np.asarray(t, dtype=float), pts.shape[:1])
    betas = np.asarray([b for b, _ in terms], dtype=int).reshape(len(terms), pts.shape[1])
    coeffs = np.asarray([c for _, c in terms], dtype=float)
    basis = np.ones((len(terms), pts.shape[0]))
    for a in range(pts.shape[1]):
        basis *= _hermite_table(int(betas.max(initial=0)), pts[:, a])[betas[:, a]]
    degree = betas.sum(axis=1).astype(float)
    rate = degree if semigroup == "ou" else np.sqrt(degree)
    decay = np.ones_like(basis)
    moving = rate > 0.0
    decay[moving] = np.exp(-np.outer(rate[moving], times))
    return coeffs @ (decay * basis)


# ---------------------------------------------------------------------------
# T_u and P_t of the bump and the unit-ball indicator
# ---------------------------------------------------------------------------


def _decay(u: float) -> tuple[float, float]:
    return math.exp(-u), -math.expm1(-2.0 * u)


def ou_bump(points, u: float) -> np.ndarray:
    """T_u of exp(-|y - 1|^2): per axis (1+s^2)^{-1/2} exp(-(r y - 1)^2/(1+s^2))."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r, s2 = _decay(u)
    per_axis = np.exp(-((r * pts - 1.0) ** 2) / (1.0 + s2)) / math.sqrt(1.0 + s2)
    return np.prod(per_axis, axis=1)


def ou_ball(points, u: float) -> np.ndarray:
    """T_u of the closed unit-ball indicator: erf in d = 1, noncentral chi^2 above."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    r, s2 = _decay(u)
    if s2 < 1e-300:
        return (np.sum(pts * pts, axis=1) <= 1.0).astype(float)
    if d == 1:
        s = math.sqrt(s2)
        y = r * pts[:, 0]
        return 0.5 * (special.erf((1.0 - y) / s) + special.erf((1.0 + y) / s))
    nc = 2.0 * r * r * np.sum(pts * pts, axis=1) / s2
    return stats.ncx2.cdf(2.0 / s2, d, nc)


OU_CLOSED_FORMS = {"bump": ou_bump, "ball": ou_ball}


def poisson_closed(name: str, point, t: float) -> float:
    """P_t f(y) by adaptive quadrature of the subordination integral in v."""
    fn = OU_CLOSED_FORMS[name]
    pt = np.asarray(point, dtype=float)[None, :]

    def integrand(v: float) -> float:
        u = math.inf if v == 0.0 else t * t / (4.0 * v * v)
        return math.exp(-v * v) * float(fn(pt, u)[0])

    # T_{t^2/4v^2} f moves from the mean to f(y) as v crosses t, on the scale of
    # t: integrate piece by piece between breaks geometric in v/t
    edges = [0.0] + [t * 3.0**k for k in range(-3, 40) if t * 3.0**k < 8.0] + [8.0]
    val = sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    )
    return 2.0 / math.sqrt(math.pi) * val


def gamma_mean(name: str, d: int) -> float:
    """The gamma_d-mean, i.e. T_inf f."""
    if name == "bump":
        return (math.exp(-0.5) / math.sqrt(2.0)) ** d
    return float(stats.chi2.cdf(2.0, d))


# ---------------------------------------------------------------------------
# gaussian ball averages (the Hardy-Littlewood maximal function)
# ---------------------------------------------------------------------------


def ball_mass(center, r: float) -> float:
    """gamma_d(B(center, r))."""
    c = np.asarray(center, dtype=float)
    return float(stats.ncx2.cdf(2.0 * r * r, c.size, 2.0 * float(c @ c)))


def _bump_ball_integral(center, r: float) -> float:
    # exp(-|y-1|^2) exp(-|y|^2) = exp(-|1|^2/2) exp(-2|y - 1/2|^2)
    c = np.asarray(center, dtype=float)
    d = c.size
    shift = c - 0.5
    return math.exp(-d / 2.0) * 2.0 ** (-d / 2.0) * float(
        stats.ncx2.cdf(4.0 * r * r, d, 4.0 * float(shift @ shift))
    )


def _ball_ball_integral(center, r: float) -> float:
    # gamma_d of B(center, r) ∩ B(0, 1), radially about the origin
    c = np.asarray(center, dtype=float)
    d = c.size
    dist = float(np.linalg.norm(c))
    if d == 1:
        lo, hi = max(-1.0, dist - r), min(1.0, dist + r)
        return 0.5 * (math.erf(hi) - math.erf(lo)) if hi > lo else 0.0

    def shell_fraction(rho: float) -> float:
        if dist == 0.0:
            return 1.0 if rho <= r else 0.0
        cos = (rho * rho + dist * dist - r * r) / (2.0 * rho * dist)
        if cos <= -1.0:
            return 1.0
        if cos >= 1.0:
            return 0.0
        return math.acos(cos) / math.pi if d == 2 else 0.5 * (1.0 - cos)

    surface = 2.0 * math.pi if d == 2 else 4.0 * math.pi
    breaks = [b for b in (abs(r - dist), r + dist) if 0.0 < b < 1.0]
    val, _ = integrate.quad(
        lambda rho: rho ** (d - 1) * math.exp(-rho * rho) * shell_fraction(rho),
        0.0, 1.0, points=breaks or None, epsabs=1e-14, epsrel=1e-12, limit=200,
    )
    return surface / math.pi ** (d / 2.0) * val


def ball_average(name: str, center, r: float) -> float:
    """gamma-average of f over the closed ball B(center, r)."""
    num = _bump_ball_integral(center, r) if name == "bump" else _ball_ball_integral(center, r)
    return num / ball_mass(center, r)
