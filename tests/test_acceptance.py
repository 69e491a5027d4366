"""Acceptance gate: one test per release criterion, tolerances pinned.

Each criterion is a single test function so a verbose run prints exactly one
pass/fail line per criterion.  Reference values for the nonsmooth catalog
entries (indicator ball, integrable spike) come from independent adaptive
quadrature of the defining average E[f(e^{-t}x + sqrt(1-e^{-2t}) u)], reduced
to radial profiles, because fixed Gauss-Hermite grids cannot resolve a jump
to 1e-6; the reductions are validated in-test by mass conservation at p = 1.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf
from scipy.special import gamma as gamma_fn

from mehler.catalog import catalog, catalog_entry
from mehler.cli import main as cli_main
from mehler.cones import ConeSpec, cone_contains
from mehler.experiments import (
    ExperimentConfig,
    run_convergence,
    run_domination_report,
    run_verify_suite,
    to_json,
)
from mehler.hermite import (
    DEFAULT_CONFIG,
    HermiteSeries,
    PointwiseFunction,
    enumerate_multi_indices,
    gauss_hermite_grid,
    generator_apply,
    hermite_values_1d,
)
from mehler.measure import gaussian_norm
from mehler.ou import (
    ou_apply_change_of_var,
    ou_apply_kernel,
    ou_apply_spectral,
    ou_transform,
)
from mehler.poisson import (
    bochner_identity_error,
    poisson_apply_kernel,
    poisson_apply_spectral,
    poisson_apply_subordination,
    poisson_transform,
)

CFG = DEFAULT_CONFIG
T_SAMPLE = (1e-4, 0.1, 1.0, 10.0)


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# independent norms for the nonsmooth entries (criterion 3 helpers)
# ---------------------------------------------------------------------------


def _decay(t):
    return math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))


@lru_cache(maxsize=8)
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


def _panels(edges, order):
    x, w = _gl(order)
    xs, ws = [], []
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * x)
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


def _ball_profile(rho, t, d):
    """gamma-probability that e^{-t} rho e1 + sqrt(1-e^{-2t}) u lies in |y| <= 1."""
    r, s = _decay(t)
    if d == 1:
        return 0.5 * (erf((1.0 - r * rho) / s) - erf((-1.0 - r * rho) / s))
    lo = max((-1.0 - r * rho) / s, -13.0)
    hi = min((1.0 - r * rho) / s, 13.0)
    if hi <= lo:
        return 0.0
    if d == 2:
        inner = lambda u1: math.exp(-u1 * u1) * erf(
            math.sqrt(max(1.0 - (r * rho + s * u1) ** 2, 0.0)) / s
        )
    else:
        # the two orthogonal gaussian axes integrate to 1 - e^{-c/s^2} exactly
        inner = lambda u1: math.exp(-u1 * u1) * -math.expm1(
            -max(1.0 - (r * rho + s * u1) ** 2, 0.0) / (s * s)
        )
    val, _ = integrate.quad(inner, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val / math.sqrt(math.pi)


def _spike_ghat(rho, t, d):
    """T_t spike(rho e1) with the e^{r^2 rho^2/2} growth factored out.

    Writing u = (u1, u_perp) and folding the spike's e^{|y|^2/2} into the
    gaussian weights leaves a tilted gaussian in u1 times a bounded core;
    the orthogonal block reduces to one radial variable (d-1 gaussian axes).
    """
    r, s = _decay(t)
    k = 1.0 - 0.5 * s * s
    b = r * s * rho
    if d == 1:
        core = lambda u1: (1.0 + abs(r * rho + s * u1)) ** -2
    else:
        V = 14.0 / math.sqrt(k)
        z, zw = _panels((0.0, V / 16.0, V / 4.0, V), 48)
        if d == 2:
            ez = np.exp(-k * z * z) * zw
            pref, power, jac = 2.0 / math.sqrt(math.pi), -3, np.ones_like(z)
        else:
            ez = np.exp(-k * z * z) * zw
            pref, power, jac = 2.0, -4, z  # w = z^2 keeps the rim smooth
        def core(u1):
            a = r * rho + s * u1
            return pref * float(np.dot(ez * jac, (1.0 + np.hypot(a, s * z)) ** power))
    center = b / (2.0 * k)
    width = 14.0 / math.sqrt(k)
    kink = -r * rho / s
    pts = [kink] if center - width < kink < center + width else None
    f = lambda u1: math.exp(-k * u1 * u1 + b * u1) * core(u1)
    val, _ = integrate.quad(
        f, center - width, center + width, epsabs=1e-14, epsrel=1e-10, limit=300, points=pts
    )
    return val / math.sqrt(math.pi)


def _radial_norm(profile, p, d, hi):
    """p-norm over gamma_d of a radial profile (profile includes any growth)."""
    if d == 1:
        g = lambda x: math.exp(-x * x) * abs(profile(x)) ** p
        val, _ = integrate.quad(g, -hi, hi, epsabs=1e-13, epsrel=1e-9, limit=400)
        return (val / math.sqrt(math.pi)) ** (1.0 / p)
    c = 2.0 / gamma_fn(d / 2.0)
    g = lambda rho: c * rho ** (d - 1) * math.exp(-rho * rho) * abs(profile(rho)) ** p
    val, _ = integrate.quad(g, 0.0, hi, epsabs=1e-13, epsrel=1e-9, limit=400)
    return val ** (1.0 / p)


def _ball_tt_norm(t, p, d):
    return _radial_norm(lambda rho: _ball_profile(rho, t, d), p, d, 13.0)


def _spike_tt_norm(t, p, d):
    r, _ = _decay(t)
    rate = 1.0 - 0.5 * p * r * r  # > 0 for p <= 2, r < 1
    hi = 14.0 / math.sqrt(rate)
    if d == 1:
        g = lambda x: math.exp(-rate * x * x) * _spike_ghat(x, t, 1) ** p
        val, _ = integrate.quad(g, -hi, hi, epsabs=1e-13, epsrel=1e-9, limit=400)
        return (val / math.sqrt(math.pi)) ** (1.0 / p)
    c = 2.0 / gamma_fn(d / 2.0)
    g = lambda rho: c * rho ** (d - 1) * math.exp(-rate * rho * rho) * _spike_ghat(rho, t, d) ** p
    val, _ = integrate.quad(g, 0.0, hi, epsabs=1e-13, epsrel=1e-9, limit=400)
    return val ** (1.0 / p)


def _bump_tt_norm(t, p, d):
    """|T_t bump|_p from the per-axis closed form (complete the square)."""
    r, _ = _decay(t)
    denom = 2.0 - r * r
    xi, wts = np.polynomial.hermite_e.hermegauss(160)  # weight e^{-x^2/2}
    x = xi / math.sqrt(2.0)
    w = wts / math.sqrt(math.pi) * math.sqrt(0.5)  # now sums against e^{-x^2}
    axis = np.exp(-((r * x - 1.0) ** 2) / denom) / math.sqrt(denom)
    per_axis = float(np.dot(w, axis**p))
    return per_axis ** (d / p)


def _x3_norm1(t):
    """|T_t x^3|_1 in closed form: T_t x^3 = beta x^3 + alpha x, both >= 0."""
    beta = math.exp(-3.0 * t)
    alpha = 1.5 * (math.exp(-t) - beta)
    # int_0^inf (alpha u + beta u^3) e^{-u^2} du = (alpha + beta)/2, no sign change
    return (alpha + beta) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# the ten criteria
# ---------------------------------------------------------------------------


def test_criterion_01_orthonormality():
    start = time.monotonic()
    worst = 0.0
    for d in (1, 2, 3):
        nodes, wts = gauss_hermite_grid(d, 64)
        tables = [hermite_values_1d(6, nodes[:, a]) for a in range(d)]
        index = enumerate_multi_indices(d, 6)
        mat = np.empty((len(index), nodes.shape[0]))
        for i, beta in enumerate(index):
            row = tables[0][beta.entries[0]].copy()
            for a in range(1, d):
                row *= tables[a][beta.entries[a]]
            mat[i] = row
        gram = (mat * wts[None, :]) @ mat.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(index))))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"orthonormality |a|,|b|<=6 d<=3: margin {worst:.3e} <= 1e-8, {elapsed:.1f}s < 10s")


def test_criterion_02_eigenrelation():
    rng = np.random.default_rng(422)
    worst = 0.0
    for d in (1, 2, 3):
        pts = rng.uniform(-2.5, 2.5, size=(20, d))
        for beta in enumerate_multi_indices(d, 6):
            s = HermiteSeries(d, {beta.entries: 1.0})
            resid = generator_apply(s, pts) + beta.degree * s.evaluate(pts)
            worst = max(worst, float(np.max(np.abs(resid))))
    ok = worst <= 1e-8
    _report(2, ok, f"eigenrelation L h = -|b| h, |b|<=6 d<=3: margin {worst:.3e} <= 1e-8")


def test_criterion_03_markov_and_contraction():
    one = PointwiseFunction(1, lambda p: np.ones(p.shape[0]), name="one")
    markov = max(
        abs(ou_apply_kernel(one, x, t, CFG) - 1.0)
        for t in T_SAMPLE
        for x in (-4.0, -1.3, 0.0, 2.1, 4.0)
    )

    worst = -math.inf
    worst_cell = None
    for d in (1, 2, 3):
        for name, entry in catalog(d).items():
            for p in (1.0, 2.0, 4.0):
                if p > entry.max_p:
                    continue  # spike is L1/L2 only; noted, not weakened
                if name == "ball":
                    ref = entry.norm(p, CFG)
                    cells = ((t, _ball_tt_norm(t, p, d)) for t in T_SAMPLE)
                elif name == "spike":
                    ref = entry.norm(p, CFG)
                    cells = ((t, _spike_tt_norm(t, p, d)) for t in T_SAMPLE)
                elif name == "bump":
                    ref = entry.norm(p, CFG)
                    cells = ((t, _bump_tt_norm(t, p, d)) for t in T_SAMPLE)
                elif name == "x3" and p == 1.0:
                    ref = _x3_norm1(0.0)
                    cells = ((t, _x3_norm1(t)) for t in T_SAMPLE)
                else:
                    # series entries: T_t is exact; same rule both sides
                    ref = gaussian_norm(entry.rep, p, CFG)
                    cells = (
                        (t, gaussian_norm(ou_transform(entry.rep, t, CFG), p, CFG))
                        for t in T_SAMPLE
                    )
                for t, lhs in cells:
                    excess = lhs / ref - 1.0
                    if excess > worst:
                        worst, worst_cell = excess, (d, name, p, t)
    ok = markov <= 1e-10 and worst <= 1e-6
    _report(
        3,
        ok,
        f"Markov margin {markov:.3e} <= 1e-10; contraction worst excess "
        f"{worst:.3e} <= 1e-6 at {worst_cell}",
    )


def test_criterion_04_route_agreement():
    rng = np.random.default_rng(77)
    ou_worst = 0.0
    for d in (1, 2, 3):
        idx = enumerate_multi_indices(d, 6)
        series = HermiteSeries(
            d, {b.entries: float(c) for b, c in zip(idx, rng.normal(size=len(idx)))}
        )
        x = rng.uniform(-1.5, 1.5, size=d)
        for t in T_SAMPLE:
            want = ou_apply_spectral(series, x, t)
            ou_worst = max(ou_worst, abs(ou_apply_kernel(series, x, t, CFG) - want))
            ou_worst = max(ou_worst, abs(ou_apply_change_of_var(series, x, t, CFG) - want))
    po_worst = 0.0
    for d in (1, 2):
        idx = enumerate_multi_indices(d, 6)
        series = HermiteSeries(
            d, {b.entries: float(c) for b, c in zip(idx, rng.normal(size=len(idx)))}
        )
        x = rng.uniform(-1.0, 1.0, size=d)
        for t in (0.1, 0.5, 1.0, 2.0, 4.0):
            want = poisson_apply_spectral(series, x, t)
            po_worst = max(po_worst, abs(poisson_apply_subordination(series, x, t, CFG) - want))
            po_worst = max(po_worst, abs(poisson_apply_kernel(series, x, t, CFG) - want))
    ok = ou_worst <= 1e-8 and po_worst <= 1e-6
    _report(
        4,
        ok,
        f"route agreement: OU margin {ou_worst:.3e} <= 1e-8, "
        f"Poisson margin {po_worst:.3e} <= 1e-6",
    )


def test_criterion_05_bochner_identity():
    worst = max(bochner_identity_error(lam) for lam in (0.0, 0.5, 1.0, 2.0, 5.0))
    ok = worst <= 1e-10
    _report(5, ok, f"Bochner subordination identity: margin {worst:.3e} <= 1e-10")


def test_criterion_06_semigroup_law():
    # polynomial hidden behind a black-box wrapper so the quadrature routes
    # really compose two numerical applications
    cubic = catalog_entry("x3", 1).rep
    poly = PointwiseFunction(1, lambda p: cubic.values(p), name="cubic")
    t, s = 0.35, 0.6
    quad_worst = 0.0
    for x in (-1.1, 0.0, 0.7):
        inner = ou_transform(poly, s, CFG)
        lhs = ou_apply_kernel(inner, x, t, CFG)
        rhs = ou_apply_kernel(poly, x, t + s, CFG)
        quad_worst = max(quad_worst, abs(lhs - rhs))
        p_inner = poisson_transform(poly, s, CFG)
        p_lhs = poisson_apply_subordination(p_inner, x, t, CFG)
        p_rhs = poisson_apply_subordination(poly, x, t + s, CFG)
        quad_worst = max(quad_worst, abs(p_lhs - p_rhs))
    rng = np.random.default_rng(5)
    idx = enumerate_multi_indices(2, 5)
    series = HermiteSeries(
        2, {b.entries: float(c) for b, c in zip(idx, rng.normal(size=len(idx)))}
    )
    spec_worst = 0.0
    for x in ((0.3, -0.8), (1.0, 0.2)):
        x = np.asarray(x)
        spec_worst = max(
            spec_worst,
            abs(ou_apply_spectral(ou_transform(series, s), x, t) - ou_apply_spectral(series, x, t + s)),
            abs(
                poisson_apply_spectral(poisson_transform(series, s), x, t)
                - poisson_apply_spectral(series, x, t + s)
            ),
        )
    ok = quad_worst <= 1e-7 and spec_worst <= 1e-12
    _report(
        6,
        ok,
        f"semigroup law: quadrature-route margin {quad_worst:.3e} <= 1e-7, "
        f"spectral margin {spec_worst:.3e} <= 1e-12",
    )


APEX_GRIDS = {
    1: ((-3.0,), (-1.5,), (0.0,), (1.5,), (3.0,)),
    2: ((0.0, 0.0), (3.0, 0.0), (0.0, -3.0), (1.5, 1.5), (-2.0, 1.0)),
}
DEEP_ALPHAS = tuple(10.0 ** -k for k in range(1, 15))
CONT_ALPHAS = tuple(10.0 ** -k for k in range(1, 7))


def test_criterion_07_nontangential_convergence():
    start = time.monotonic()
    poly_worst = {"ou": 0.0, "poisson": 0.0}
    monotone_ok = True
    for d in (1, 2):
        names = [n for n, e in catalog(d).items() if "polynomial" in e.class_tags]
        for name in names:
            for cone in ("parabolic-gaussian", "gaussian", "truncated-parabolic"):
                for semigroup in ("ou", "poisson"):
                    config = ExperimentConfig(
                        dimension=d,
                        semigroup=semigroup,
                        function=name,
                        apexes=APEX_GRIDS[d],
                        cone=cone,
                        eta=0.05,
                        decay=0.5,
                        path_points=52,
                        alphas=DEEP_ALPHAS,
                    )
                    records = run_convergence(config)
                    by_apex = {}
                    for rec in records:
                        by_apex.setdefault(rec.apex, []).append(rec)
                    for recs in by_apex.values():
                        recs.sort(key=lambda r: -r.alpha)
                        final = recs[-1].sup_error
                        poly_worst[semigroup] = max(poly_worst[semigroup], final)
                        monotone_ok &= all(
                            b.sup_error <= a.sup_error for a, b in zip(recs, recs[1:])
                        )
    cont_worst = 0.0
    for d in (1, 2):
        names = [n for n, e in catalog(d).items() if "bounded-continuous" in e.class_tags]
        for name in names:
            for cone in ("parabolic-gaussian", "gaussian", "truncated-parabolic"):
                for semigroup in ("ou", "poisson"):
                    config = ExperimentConfig(
                        dimension=d,
                        semigroup=semigroup,
                        function=name,
                        apexes=APEX_GRIDS[d],
                        cone=cone,
                        eta=0.05,
                        decay=0.5,
                        path_points=52,
                        alphas=CONT_ALPHAS,
                    )
                    records = run_convergence(config)
                    by_apex = {}
                    for rec in records:
                        by_apex.setdefault(rec.apex, []).append(rec)
                    for recs in by_apex.values():
                        recs.sort(key=lambda r: -r.alpha)
                        monotone_ok &= all(
                            b.sup_error <= a.sup_error for a, b in zip(recs, recs[1:])
                        )
                        at_1e3 = next(r for r in recs if r.alpha == 1e-3)
                        cont_worst = max(cont_worst, at_1e3.sup_error)
    elapsed = time.monotonic() - start
    ok = (
        poly_worst["ou"] <= 1e-6
        and poly_worst["poisson"] <= 1e-5
        and cont_worst <= 1e-2
        and monotone_ok
        and elapsed < 300.0
    )
    _report(
        7,
        ok,
        f"non-tangential convergence: poly final OU {poly_worst['ou']:.3e} <= 1e-6, "
        f"Poisson {poly_worst['poisson']:.3e} <= 1e-5; bounded-continuous at alpha=1e-3 "
        f"{cont_worst:.3e} <= 1e-2; monotone={monotone_ok}; {elapsed:.0f}s < 300s",
    )


def test_criterion_08_maximal_domination():
    ratios_finite = True
    worst_drift = 0.0
    exact_one = True
    for d in (1, 2):
        apexes = APEX_GRIDS[d]
        for name, entry in catalog(d).items():
            if not entry.nonnegative:
                continue
            config = ExperimentConfig(dimension=d, function=name, apexes=apexes)
            base = run_domination_report(config, refine_factor=1)
            ratios_finite &= all(math.isfinite(row["ratio"]) for row in base["rows"])
            fine = run_domination_report(config, refine_factor=2)
            worst_drift = max(
                worst_drift, abs(fine["max_ratio"] - base["max_ratio"]) / base["max_ratio"]
            )
            if name == "one":
                exact_one &= all(row["ratio"] == 1.0 for row in base["rows"])
    ok = ratios_finite and worst_drift <= 0.05 and exact_one
    _report(
        8,
        ok,
        f"domination: ratios finite={ratios_finite}, max-ratio drift {worst_drift:.3e} "
        f"<= 5e-2 under 2x refinement, f=1 ratio exactly 1: {exact_one}",
    )


def test_criterion_09_cone_inclusion():
    rng = np.random.default_rng(20240814)
    violations = 0
    for _ in range(100_000):
        d = int(rng.integers(1, 4))
        x = rng.uniform(-5.0, 5.0, size=d)
        t = float(rng.uniform(1e-6, 0.3))
        y = x + rng.uniform(-1.0, 1.0, size=d)
        if cone_contains(ConeSpec(x, "truncated-parabolic"), y, t):
            if not cone_contains(ConeSpec(x, "parabolic-gaussian"), y, t):
                violations += 1
    ok = violations == 0
    _report(9, ok, f"cone inclusion on 1e5 samples: {violations} violations (need 0)")


def test_criterion_10_determinism(tmp_path):
    first = to_json(run_verify_suite("fast"))
    second = to_json(run_verify_suite("fast"))
    verify_ok = first == second and '"pass": true' in first
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "converge", "--function", "h_2", "--apex", "1.0", "--apex", "-0.5",
        "--path-points", "40",
    ]
    code1 = cli_main(argv + ["--out", str(out1)])
    code2 = cli_main(argv + ["--out", str(out2)])
    converge_ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    ok = verify_ok and converge_ok
    _report(
        10,
        ok,
        f"determinism: verify-fast JSON byte-identical={verify_ok}, "
        f"converge CSV byte-identical={converge_ok}",
    )
