"""The Poisson-Hermite semigroup P_t and its maximal functions.

P_t is the subordinated Ornstein-Uhlenbeck semigroup,

    P_t f(x) = pi^{-1/2} * integral_0^inf u^{-1/2} e^{-u} T_{t^2/4u} f(x) du,

equivalently termwise decay e^{-t sqrt(|beta|)} on a Hermite expansion.
So P_t is the `mehler.ou.Semigroup` with rate sqrt(k), the cone kind
"gaussian" and these routes, the first two mixtures of OU times:

  subordination  (t^2/4u_j, omega_j), the u-integral after u = v^2 (default)
  kernel         the r-integral on (0,1) from r = e^{-t^2/4u} (_kernel_times)
  spectral       termwise e^{-t sqrt(|beta|)} on a Hermite series

Its values, transform, time supremum and cone supremum are the shared ones
of `mehler.ou`, for d <= 3; the module constant `POISSON` is that
semigroup, as `mehler.ou.OU` is T_t. This module keeps what is Poisson's
own: the two mixtures.

The two quadrature layouts are frozen after calibration against the scalar
identity pi^{-1/2} integral u^{-1/2} e^{-u} e^{-lambda^2/4u} du = e^{-lambda}.
The square rule takes 28 Gauss-Legendre panels in v = sqrt(u): one on
[0, 1e-14], a geometric climb through 1e-6 to 1.2, and linear panels out
to v = 6, with nodes // 20 points each (280 nodes at the default budget of
200). The step of e^{-lambda^2/4v^2} at v ~ lambda/2 crosses the geometric
panels for every lambda above about 1e-14, so the rule errs by less than
1e-11 over lambda in {0} and [1e-12, 5] (at most 7.5e-12; 6.9e-12 over
lambda in {1e-12, 1e-9, 1e-8, 4e-8, 1e-7, 1.1e-6} and [1e-5, 5]), and by
under 1e-15 below 1e-12, where the step falls inside the first panel and
the error grows like lambda. The kernel rule reproduces eigenvalue decay
to about 1e-10 for t in [0.1, 4].

The default route is moved onto 33 fixed angle rows (`mehler.ou._angle_rows`,
interpolation order 32) wherever its distinct OU rows (r, s) outnumber
them, at every t up to about 100 (up to 219 rows, near t = 1e-7): they
are interpolated in xi, theta = atan2(s, r) = (pi/2) xi^{3/2}, at
Chebyshev-Lobatto points and the interpolant is integrated exactly, so a
value takes 33 row integrals whatever t, and a path, cone or time supremum
about one apex takes f on those 33 anchors (`mehler.ou._mixture_values`).
The first angles are 1.9e-4, 1.5e-3 and 5.0e-3 (3.8e-3, 1.5e-2 and 3.4e-2
spread evenly in theta). On bump (d = 1, 2) over the default time grid the
values differ from the unprojected sums by at most 8.7e-16. The row
integral g(theta) is even in theta, so it is smooth in xi^3: at xi^{5/4}
they differ by 1e-8, at xi^2 by 3.4e-14 on more small angles, where the
pairs of a path take the shifted rule. On the ball indicator and the spike
g is not smooth: the projection moves values by up to 8.9e-3 (ball, d = 1)
and 3.9e-4 (spike, d = 1) over five points and the default time grid. A y
at distance e from the ball's rim turns g near theta = e, where the
mixture of a time t ~ e lies. At y = 1.00017, t = 3.2e-4 (a path at apex
0.9912) angles spread evenly in theta were 0.138 off the closed form; these
are 1.3e-3 off, the unprojected rows 4.1e-3. Over 2 560 ball path points in
d = 1 (the perfbench poisson-path apexes of seeds 1-20, and 0.9912, 0.5 and
+-1) the worst error is 0.0426, the 64-node rule's own, and no value moves
more than 0.026 from the unprojected rows; evenly spread angles erred up to
0.138. A layer thinner than the angles near 0 stays unresolved: no fixed
set of angles resolves all of them, and a per-value fallback would make
the work of a path depend on where it meets the rim. The kernel route
keeps its own rows, so the two quadrature routes remain two different
f-quadratures of P_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hermite import DEFAULT_CONFIG, FunctionRep, QuadratureConfig
from .measure import MaximalEstimate, _panel_points
from .ou import Semigroup

# flat-tail cut for the kernel route: e^{-L} ~ 1e-8 beyond this, so T_L f is
# replaced by the gamma-mean and the remaining weight integrates to an erf
_KERNEL_L_HI = 18.42
# essential-decay cut near r = 1: contributions with t^2/4L > this are dropped
_KERNEL_U_CUT = 30.0
# panel count and Gauss-Legendre order per panel of the kernel route
_KERNEL_PANELS = 40
_KERNEL_PANEL_ORDER = 12


@dataclass(frozen=True)
class SubordinationQuadrature:
    """Node budget of the square rule for the Bochner u-integral.

    Each of the rule's 28 v-panels takes max(4, nodes // 20) Gauss-Legendre
    points, so the default 200 gives 280 nodes (see the module docstring).
    """

    nodes: int = 200

    def __post_init__(self):
        if self.nodes < 16:
            raise ValueError(f"need at least 16 nodes, got {self.nodes}")


DEFAULT_SUBORDINATION = SubordinationQuadrature()


@lru_cache(maxsize=8)
def _square_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # v-panels: one from 0, a geometric climb from 1e-14 through the
    # singular scale, then linear panels across the gaussian bulk out to v = 6
    order = max(4, nodes // 20)
    edges = np.concatenate([
        [0.0], np.geomspace(1e-14, 1e-6, 9)[:-1], np.geomspace(1e-6, 1.2, 16),
        np.linspace(1.2, 6.0, 5)[1:],
    ])
    v, w = _panel_points(edges[:-1], edges[1:], order)
    u = v * v
    omega = 2.0 / math.sqrt(math.pi) * w * np.exp(-u)
    u.flags.writeable = False
    omega.flags.writeable = False
    return u, omega


def subordination_rule(quadrature: SubordinationQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes u_j and weights omega_j for the Bochner integral."""
    return _square_rule(quadrature.nodes)


def bochner_identity_error(lam: float) -> float:
    """|quadrature of the subordination integral at decay rate lam - e^{-lam}|."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError("decay rate must be nonnegative")
    u, omega = subordination_rule(DEFAULT_SUBORDINATION)
    val = float(np.sum(omega * np.exp(-(lam * lam) / (4.0 * u))))
    return abs(val - math.exp(-lam))


def _subordinated_times(t: float):
    """P_t's mixture (t^2/4u_j, omega_j), and the atom at t = inf."""
    if math.isinf(t):
        return (math.inf,), (1.0,)
    u, omega = subordination_rule(DEFAULT_SUBORDINATION)
    return t * t / (4.0 * u), omega


@lru_cache(maxsize=64)
def _kernel_rule(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes L_k (OU times) and weights for the r-integral taken in L = -log r."""
    lo = t * t / (4.0 * _KERNEL_U_CUT)
    if lo >= _KERNEL_L_HI:
        empty = np.empty(0)
        return empty, empty
    edges = np.geomspace(lo, _KERNEL_L_HI, _KERNEL_PANELS + 1)
    L, w = _panel_points(edges[:-1], edges[1:], _KERNEL_PANEL_ORDER)
    W = w * (t / (2.0 * math.sqrt(math.pi))) * L**-1.5 * np.exp(-(t * t) / (4.0 * L))
    L.flags.writeable = False
    W.flags.writeable = False
    return L, W


def _kernel_times(t: float):
    """The kernel route's mixture: the r-integral on (0, 1), and the atom at t = inf.

    r = e^{-t^2/4u} turns the u-integral into one over r in (0, 1), taken in
    L = -log r: panels graded geometrically between the essential-decay cut
    near r = 1 and the flat tail near r = 0, where T_L f is within about
    1e-8 of the gamma-mean and the rest of the integral is an erf, an
    analytic completion. Each T_L f is the same shifted gaussian quadrature
    the OU route uses.
    """
    if math.isinf(t):
        return (math.inf,), (1.0,)
    L, W = _kernel_rule(t)
    # the flat tail is an atom at L = inf: the gamma-mean, weighted by an erf
    cut = max(t * t / (4.0 * _KERNEL_U_CUT), _KERNEL_L_HI)
    return np.append(L, math.inf), np.append(W, math.erf(t / (2.0 * math.sqrt(cut))))


POISSON = Semigroup(
    "P", math.sqrt, {"subordination": _subordinated_times, "kernel": _kernel_times},
    ("gaussian",),
)

POISSON_ROUTES = (*POISSON.routes, "spectral")


def poisson_apply_subordination(
    f, x, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """P_t f(x) by quadrature of the u-integral; t > 0 (t = inf gives the mean).

    The inner T_{t^2/4u} evaluations are the shifted gaussian quadrature for
    every representation, series included: on a series the spectral factor
    sum_j omega_j e^{-t^2 k/4u_j} is the identity `bochner_identity_error`
    checks, so it would not be an independent route.
    """
    return POISSON.apply(f, x, t, "subordination", cfg)


def poisson_apply_kernel(
    f, x, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """P_t f(x) by the explicit r-integral on (0, 1); t > 0. See _kernel_times."""
    return POISSON.apply(f, x, t, "kernel", cfg)


def poisson_apply_spectral(f, x, t: float):
    """Termwise e^{-t sqrt(|beta|)} decay on a Hermite series; t >= 0."""
    return POISSON.apply(f, x, t, "spectral")


def poisson_apply(
    f, x, t: float, route: str = "auto", cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Dispatch P_t f(x); route 'auto' picks spectral for series, else subordination."""
    return POISSON.apply(f, x, t, route, cfg)


def poisson_transform(f, t: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> FunctionRep:
    """P_t f as a function of x; series stay series, else pointwise quadrature."""
    return POISSON.transform(f, t, cfg)


def poisson_maximal(
    f, x, cfg: QuadratureConfig = DEFAULT_CONFIG, times=None
) -> MaximalEstimate:
    """sup_t |P_t f(x)| over a log time grid, with the t = inf mean appended."""
    return POISSON.maximal(f, x, cfg, times)


def poisson_nontangential_maximal(
    f,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    times=None,
) -> MaximalEstimate:
    """sup |P_t f(y)| over the linear-aperture gaussian cone at apex x.

    Same product-grid contract as the OU nontangential sup: log times,
    aperture-fraction rings, ties resolved toward small t then lexicographic
    y, with the achieving (y, t) pair returned.
    """
    return POISSON.cone_maximal(f, x, "gaussian", cfg, times)
