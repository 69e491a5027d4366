"""The four workloads: fixed operation lists over seeded inputs, with checks.

An operation is one call into the public API of `mehler`. Each comes with a
check that compares its output to the closed forms in `oracles`; a check
raises `CheckFailed` with the reason. The seed draws apexes, points and
series coefficients from fixed boxes, so the list and the work behind every
operation are the same for every seed.

The tolerances sit in TOLERANCES. Black-box values of the smooth `bump`
are exact to rounding; the discontinuous `ball` carries the error of the
64-node Gauss-Hermite rule on an indicator (up to 4.4e-2 against the
closed form in d = 1). Ball averages carry the error of the masked
64 x 64 Gauss-Legendre rule of `hl_maximal`: on `bump` in d = 2 its
supremum was off by up to 0.96% relative over 2 000 apexes drawn from the
cone-sup box (worst near the corners), so hl_bump_rel allows 2%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

WORKLOADS = ("cone-sup", "poisson-path", "series-sweep", "verify-fast")

TOLERANCES = {
    "series_abs": 1e-10,
    "bump_abs": 1e-9,
    "ball_abs": 6e-2,
    "hl_bump_rel": 2e-2,
    "hl_ball_abs": 6e-2,
    "norm_bump_rel": 1e-9,
    "norm_ball_rel": 6e-2,
}

DEEP_ALPHAS = tuple(10.0**-k for k in range(1, 15))
CONES = ("parabolic-gaussian", "gaussian", "truncated-parabolic")


class CheckFailed(AssertionError):
    """An operation's output disagrees with its independent reference."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}, tolerance {tol:g}")


def _tol(name: str) -> float:
    return TOLERANCES["bump_abs" if name == "bump" else "ball_abs"]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# checks shared by several workloads
# ---------------------------------------------------------------------------


def _cone_grid_max(kind: str, apex, times, closed: Callable) -> tuple[float, int]:
    """Largest |closed form| over the searched (y, t) grid, and the grid's size."""
    cells = [(oracles.cross_section(kind, apex, t), t) for t in np.sort(times)]
    best = max(float(np.max(np.abs(closed(p, t)))) for p, t in cells)
    return best, sum(len(p) for p, _ in cells)


def _check_cone_sup(est, kind: str, apex, times, closed: Callable, tol: float) -> None:
    """A cone supremum against the closed form on the same (y, t) grid."""
    best, size = _cone_grid_max(kind, apex, times, closed)
    if est.grid_size != size:
        raise CheckFailed(f"cone grid has {est.grid_size} cells, expected {size}")
    _close("cone supremum", est.value, best, tol)
    y, t = est.argmax
    if not oracles.in_cone(kind, apex, y, t):
        raise CheckFailed(f"argmax (y={y}, t={t}) lies outside the {kind} cone at {tuple(apex)}")
    _close("value at the argmax", est.value, abs(float(closed(np.asarray([y]), t)[0])), tol)


def _check_time_sup(est, times, closed: Callable, tol: float) -> None:
    ts = list(np.sort(times)) + [math.inf]
    if est.grid_size != len(ts):
        raise CheckFailed(f"time grid has {est.grid_size} cells, expected {len(ts)}")
    vals = [abs(closed(t)) for t in ts]
    _close("time supremum", est.value, max(vals), tol)
    if est.argmax not in ts:
        raise CheckFailed(f"argmax time {est.argmax!r} is not on the ladder")
    _close("value at the argmax", est.value, abs(closed(est.argmax)), tol)


def _check_convergence(records, config, values_at: Callable, tol: float) -> None:
    """Sup errors below each alpha against the same paths evaluated by `values_at`."""
    apexes = sorted(config.apexes)
    if len(records) != len(apexes) * len(config.alphas):
        raise CheckFailed(f"{len(records)} records for {len(apexes)} apexes x {len(config.alphas)} scales")
    for i, apex in enumerate(apexes):
        target = values_at(np.asarray([apex]), np.zeros(1))[0]
        path = oracles.approach_path(config.cone, apex, config.path_points, config.eta, config.decay)
        ys, ts = np.asarray([y for y, _ in path]), np.asarray([t for _, t in path])
        errors = np.abs(values_at(ys, ts) - target)
        for rec in records[i * len(config.alphas):(i + 1) * len(config.alphas)]:
            if rec.apex != apex:
                raise CheckFailed(f"record for apex {rec.apex} where {apex} was expected")
            _close(f"sup error below {rec.alpha:g}", rec.sup_error, np.max(errors[ts < rec.alpha]), tol)
            y, t = np.asarray(rec.y_star), rec.t_star
            if not (t < rec.alpha and oracles.in_cone(config.cone, apex, y, t)):
                raise CheckFailed(f"argmax (y={rec.y_star}, t={t}) is not an in-cone point below {rec.alpha:g}")
            at = (ts == t) & np.all(np.abs(ys - y) <= 1e-12, axis=1)
            if not at.any():
                raise CheckFailed(f"argmax (y={rec.y_star}, t={t}) is not on the approach path")
            _close("error at the argmax", rec.sup_error, errors[at][0], tol)


# ---------------------------------------------------------------------------
# cone-sup
# ---------------------------------------------------------------------------


def _domination_op(m, name: str, apex) -> Op:
    config = m.ExperimentConfig(dimension=2, function=name, apexes=(tuple(apex),))
    closed = oracles.OU_CLOSED_FORMS[name]
    tol = _tol(name)

    def check(report) -> None:
        row, bound = report["rows"][0], report["bound_rows"][0]
        times = oracles.cone_ladder("truncated-parabolic", apex)
        best, _ = _cone_grid_max("truncated-parabolic", apex, times, closed)
        _close("truncated cone supremum", row["maximal"], best, tol)
        _check_hl_value(name, apex, oracles.radius_ladder(), row["hl_maximal"])
        if row["ratio"] != row["maximal"] / row["hl_maximal"]:
            raise CheckFailed("cone-to-ball ratio is not maximal / hl_maximal")
        lhs = max(float(closed(np.asarray([apex]), t)[0]) for t in oracles.time_ladder())
        lhs = max(lhs, oracles.gamma_mean(name, 2))
        _close("time supremum at the apex", bound["lhs"], lhs, tol)
        if bound["mgamma"] != row["hl_maximal"]:
            raise CheckFailed("bound report and cone row disagree on M_gamma f")
        xn = float(np.linalg.norm(apex))
        scale = max(2.0, xn) ** 2 * math.exp(xn * xn)
        norm_tol = TOLERANCES["norm_bump_rel" if name == "bump" else "norm_ball_rel"]
        _close("L^1 tail / scale", bound["tail"] / scale, oracles.gamma_mean(name, 2),
               norm_tol * oracles.gamma_mean(name, 2))

    return Op(f"dominate d=2 {name}", lambda: m.run_domination_report(config), check)


def _check_hl_value(name: str, center, radii, value: float) -> None:
    best = max(oracles.ball_average(name, center, float(r)) for r in radii)
    if name == "bump":
        _close("ball-average supremum", value, best, TOLERANCES["hl_bump_rel"] * best)
    else:
        _close("ball-average supremum", value, best, TOLERANCES["hl_ball_abs"])


def cone_sup(m, seed: int) -> list[Op]:
    rng = _rng(seed, "cone-sup")
    apexes2 = rng.uniform(-3.0, 3.0, size=(2, 2))
    apex3 = rng.uniform(-1.0, 1.0, size=3)
    ops = [_domination_op(m, name, apex) for name in ("bump", "ball") for apex in apexes2]
    # the d=3 cone keeps the 57-point x 64^3-node block of the default ladder
    # (and so its peak memory) at 2 of its 64 times, so that a pass is short
    # enough to repeat within one run
    ball3 = m.catalog_entry("ball", 3).rep
    hi = (1.0 - 1e-9) * oracles.time_cap("truncated-parabolic", apex3)
    times = np.geomspace(1e-4 * hi, hi, 2)
    radii = np.geomspace(1e-3, 8.0, 16)

    def check_hl(est) -> None:
        if est.grid_size != len(radii) or est.argmax not in radii:
            raise CheckFailed(f"radius grid: size {est.grid_size}, argmax {est.argmax!r}")
        _check_hl_value("ball", apex3, radii, est.value)
        _close("ball average at the argmax", est.value,
               oracles.ball_average("ball", apex3, est.argmax), TOLERANCES["hl_ball_abs"])

    ops.append(Op(
        "cone sup d=3 ball",
        lambda: m.nontangential_maximal(ball3, apex3, "truncated-parabolic", times=times),
        lambda est: _check_cone_sup(est, "truncated-parabolic", apex3, times, oracles.ou_ball,
                                    TOLERANCES["ball_abs"]),
    ))
    ops.append(Op("hl_maximal d=3 ball", lambda: m.hl_maximal(ball3, apex3, radii=radii), check_hl))
    return ops


# ---------------------------------------------------------------------------
# poisson-path
# ---------------------------------------------------------------------------


def _poisson_path_op(m, name: str, d: int, apex) -> Op:
    config = m.ExperimentConfig(dimension=d, semigroup="poisson", function=name, apexes=(tuple(apex),))

    def values_at(points, times) -> np.ndarray:
        return np.asarray([
            oracles.OU_CLOSED_FORMS[name](np.asarray([y]), 0.0)[0] if t == 0.0
            else oracles.poisson_closed(name, y, t)
            for y, t in zip(points, times)
        ])

    def check(records) -> None:
        _check_convergence(records, config, values_at, _tol(name))

    return Op(f"converge poisson d={d} {name}", lambda: m.run_convergence(config), check)


def poisson_path(m, seed: int) -> list[Op]:
    rng = _rng(seed, "poisson-path")
    apexes2 = rng.uniform(-2.0, 2.0, size=(3, 2))
    apexes1 = rng.uniform(-2.0, 2.0, size=(3, 1))
    return [_poisson_path_op(m, "bump", 2, a) for a in apexes2] + [
        _poisson_path_op(m, "ball", 1, a) for a in apexes1
    ]


# ---------------------------------------------------------------------------
# series-sweep
# ---------------------------------------------------------------------------


def _terms(series) -> list:
    return [(beta.entries, c) for beta, c in series.terms()]


def _series_path_op(m, d: int, name: str, cone: str, semigroup: str, apexes) -> Op:
    config = m.ExperimentConfig(
        dimension=d, semigroup=semigroup, function=name, apexes=tuple(map(tuple, apexes)), cone=cone,
        eta=0.05, decay=0.5, path_points=52, alphas=DEEP_ALPHAS,
    )
    terms = _terms(m.catalog_entry(name, d).rep.series)

    def values_at(points, times) -> np.ndarray:
        return oracles.series_values(terms, points, times, semigroup)

    def check(records) -> None:
        _check_convergence(records, config, values_at, TOLERANCES["series_abs"])

    return Op(f"converge {semigroup} d={d} {name} {cone}", lambda: m.run_convergence(config), check)


def _series_sup_ops(m, series, x) -> list[Op]:
    terms = _terms(series)
    tol = TOLERANCES["series_abs"]

    def at_apex(semigroup: str) -> Callable:
        return lambda t: float(oracles.series_values(terms, [x], t, semigroup)[0])

    def on_cone(semigroup: str) -> Callable:
        return lambda p, t: oracles.series_values(terms, p, t, semigroup)

    d = series.dimension
    return [
        Op(f"ou_maximal d={d}", lambda: m.ou_maximal(series, x),
           lambda est: _check_time_sup(est, oracles.time_ladder(), at_apex("ou"), tol)),
        Op(f"poisson_maximal d={d}", lambda: m.poisson_maximal(series, x),
           lambda est: _check_time_sup(est, oracles.time_ladder(), at_apex("poisson"), tol)),
        Op(f"nontangential_maximal d={d}", lambda: m.nontangential_maximal(series, x),
           lambda est: _check_cone_sup(est, "parabolic-gaussian", x,
                                       oracles.cone_ladder("parabolic-gaussian", x),
                                       on_cone("ou"), tol)),
        Op(f"poisson_nontangential_maximal d={d}", lambda: m.poisson_nontangential_maximal(series, x),
           lambda est: _check_cone_sup(est, "gaussian", x, oracles.time_ladder(),
                                       on_cone("poisson"), tol)),
    ]


def series_sweep(m, seed: int) -> list[Op]:
    rng = _rng(seed, "series-sweep")
    ops = []
    for d in (1, 2):
        names = [n for n, e in m.catalog(d).items() if "polynomial" in e.class_tags]
        for name in names:
            for cone in CONES:
                for semigroup in ("ou", "poisson"):
                    apexes = rng.uniform(-2.0, 2.0, size=(2, d))
                    ops.append(_series_path_op(m, d, name, cone, semigroup, apexes))
    for d in (1, 2, 3):
        index = m.enumerate_multi_indices(d, 6)
        coeffs = rng.normal(size=len(index))
        series = m.HermiteSeries(d, {b.entries: float(c) for b, c in zip(index, coeffs)})
        for x in rng.uniform(-1.5, 1.5, size=(4, d)):
            ops.extend(_series_sup_ops(m, series, x))
    return ops


# ---------------------------------------------------------------------------
# verify-fast
# ---------------------------------------------------------------------------


def verify_fast(m, seed: int) -> list[Op]:
    def check(report) -> None:
        failed = [r["invariant"] for r in report["records"] if not r["pass"]]
        if not report["pass"] or failed or not report["records"]:
            raise CheckFailed(f"verify suite failed invariants {failed}")

    return [Op("verify fast", lambda: m.run_verify_suite("fast", seed=int(seed)), check)]


BUILDERS = {
    "cone-sup": cone_sup,
    "poisson-path": poisson_path,
    "series-sweep": series_sweep,
    "verify-fast": verify_fast,
}


def build(workload: str, m, seed: int) -> list[Op]:
    return BUILDERS[workload](m, seed)
