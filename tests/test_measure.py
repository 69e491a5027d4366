"""Oracle tests for the gaussian measure module.

Frozen values come from the error function, polar closed forms for centered
balls in d = 2, 3, and moments of gamma computed by hand.
"""

from __future__ import annotations

import importlib.util
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import mehler.hermite as hermite_module
from mehler import (
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    catalog_entry,
    fourier_hermite_coeff,
    hermite_eval,
    hermite_expand,
    ou_apply,
    poisson_apply,
)
from mehler.measure import (
    GaussianBall,
    MaximalEstimate,
    _ball_profile,
    gaussian_ball_measure,
    gaussian_density,
    gaussian_norm,
    hl_maximal,
)

CFG = QuadratureConfig()

_ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES_PATH)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_frozen_values():
    assert gaussian_density(0.0) == pytest.approx(0.5641895835477563, abs=1e-14)
    assert gaussian_density(np.zeros(2)) == pytest.approx(0.3183098861837907, abs=1e-14)
    assert gaussian_density(2.0) == pytest.approx(math.exp(-4.0) / math.sqrt(math.pi), abs=1e-14)


def test_density_integrates_to_one():
    from mehler import gauss_hermite_grid

    for d in (1, 2):
        pts, wts = gauss_hermite_grid(d, 48)
        # integral of gamma_d against its own quadrature: sum w * 1
        assert np.sum(wts) == pytest.approx(1.0, abs=1e-12)
        assert np.all(gaussian_density(pts) > 0)


# ---------------------------------------------------------------------------
# ball measure
# ---------------------------------------------------------------------------


def test_ball_measure_d1_frozen():
    assert gaussian_ball_measure(GaussianBall((0.0,), 1.0)) == pytest.approx(
        0.8427007929497149, abs=1e-14
    )
    # off-center closed form: (erf(2.5) - erf(1.5)) / 2 = 0.016743950...
    got = gaussian_ball_measure(GaussianBall((2.0,), 0.5))
    assert got == pytest.approx(0.5 * (erf(2.5) - erf(1.5)), abs=1e-14)


def test_ball_measure_d1_off_center_frozen_digits():
    got = gaussian_ball_measure(GaussianBall((2.0,), 0.5))
    assert got == pytest.approx(0.0167439505, abs=1e-9)


def test_ball_measure_full_space_limit():
    assert gaussian_ball_measure(GaussianBall((0.0,), 10.0)) >= 1 - 1e-8
    assert gaussian_ball_measure(GaussianBall((0.0,), math.inf)) == 1.0


def test_ball_measure_d1_quadrature_cross_check():
    # independent midpoint rule on the interval
    c, r = 0.7, 1.3
    grid = np.linspace(c - r, c + r, 400_001)
    mid = 0.5 * (grid[1:] + grid[:-1])
    h = grid[1] - grid[0]
    oracle = np.sum(np.exp(-mid * mid)) * h / math.sqrt(math.pi)
    got = gaussian_ball_measure(GaussianBall((c,), r))
    assert got == pytest.approx(oracle, abs=1e-10)


def test_ball_measure_d1_far_centre_keeps_its_digits():
    # erf(c + r) - erf(c - r) cancels to 0.0 here; the mass is 1.92e-20 (mpmath)
    for c in (7.0, -7.0):
        got = gaussian_ball_measure(GaussianBall((c,), 0.5))
        assert got == pytest.approx(1.9210727752356307e-20, rel=1e-13)


@pytest.mark.parametrize("r", [1e-6, 0.01, 0.37, 1.0, math.pi, 7.0])
def test_ball_measure_d1_matches_mpmath(r):
    # (erf(c + r) - erf(c - r)) / 2 at 400 digits: every mass here is above
    # 1e-300, so the difference keeps at least 100 of them
    centres = np.concatenate([np.linspace(-20.0, 20.0, 41), [-16.574033314255026, 0.6696073048545479]])
    worst = 0.0
    with mpmath.workdps(400):
        for c in centres:
            mc = mpmath.mpf(float(c))
            ref = float((mpmath.erf(mc + r) - mpmath.erf(mc - r)) / 2)
            got = gaussian_ball_measure(GaussianBall((float(c),), r))
            worst = max(worst, abs(got / ref - 1.0))
    assert worst <= 1e-13


def test_ball_measure_d2_centered_polar_oracle():
    # gamma_2(B(0, r)) = 1 - exp(-r^2), at the default and a finer rule
    # (test_ball_profile_matches_the_oracles holds every radius to 1e-10)
    for r in (0.5, 1.0, 2.0):
        exact = 1.0 - math.exp(-r * r)
        got = gaussian_ball_measure(GaussianBall((0.0, 0.0), r), CFG)
        assert got == pytest.approx(exact, rel=2e-2)
        fine = gaussian_ball_measure(
            GaussianBall((0.0, 0.0), r), replace(CFG, ball_nodes=512)
        )
        assert fine == pytest.approx(exact, rel=1e-3)


def test_ball_measure_d3_centered_polar_oracle():
    # gamma_3(B(0, r)) = erf(r) - (2 r / sqrt(pi)) exp(-r^2)
    for r in (0.8, 1.5):
        got = gaussian_ball_measure(GaussianBall((0.0, 0.0, 0.0), r), CFG)
        exact = erf(r) - 2 * r * math.exp(-r * r) / math.sqrt(math.pi)
        assert got == pytest.approx(exact, rel=5e-3)


# the oracle test's settings: the default ladder, cone-sup's 16 radii (on and
# off the ladder), refined(2), whose ladder and rule are both finer, and radii
# past the ladder's top
ORACLE_SETTINGS = {
    "ladder": (CFG, CFG.radius_grid.values()),
    "cone-sup": (CFG, np.geomspace(1e-3, 8.0, 16)),
    "refined": (CFG.refined(2), CFG.refined(2).radius_grid.values()),
    "beyond": (CFG, np.geomspace(5.0, 40.0, 7)),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("setting", list(ORACLE_SETTINGS))
def test_ball_profile_matches_the_oracles(setting, d):
    # perfbench/oracles.py is written without mehler: noncentral chi^2 CDFs
    cfg, radii = ORACLE_SETTINGS[setting]
    f = catalog_entry("bump", d).rep
    box = 3.0 if d < 3 else 1.0
    centers = np.random.default_rng(d).uniform(-box, box, size=(5, d))
    if d < 3:
        # |c| = 4: the panels past the ladder's top carry ~1e-7 of a ball's mass
        centers = np.vstack([centers, np.full(d, 4.0 / math.sqrt(d))])
    for center in centers:
        num, mass = _ball_profile(f.values, center, radii, cfg)
        want_mass = np.array([oracles.ball_mass(center, r) for r in radii])
        want_avg = np.array([oracles.ball_average("bump", center, r) for r in radii])
        np.testing.assert_allclose(mass, want_mass, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(num / mass, want_avg, rtol=1e-10, atol=0.0)
        if d > 1:
            got = gaussian_ball_measure(GaussianBall(tuple(center), float(radii[-1])), cfg)
            assert got == mass[-1]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_value_does_not_depend_on_the_other_radii(d):
    f = catalog_entry("bump", d).rep
    x = np.full(d, 0.3)
    ladder = CFG.radius_grid.values()
    for r in (ladder[10], 0.0123, 20.0, 5e-4):
        alone = hl_maximal(f, x, CFG, radii=[r]).value
        for others in (ladder, np.geomspace(1e-4, 30.0, 37)):
            radii = np.concatenate([others, [r]])
            num, mass = _ball_profile(f.values, x, np.sort(radii), CFG)
            assert (num / mass)[np.searchsorted(np.sort(radii), r)] == alone


def test_d3_ball_measure_memory_is_bounded():
    # refined(2) in d = 3: 127 panels x 16 radii x 2048 directions, 4.2 M
    # points; the walk holds a few blocks of 2^14, never the whole ball
    cfg = CFG.refined(2)
    ball = GaussianBall((0.3, -0.6, 0.5), 7.5)
    gaussian_ball_measure(ball, cfg)
    tracemalloc.start()
    try:
        gaussian_ball_measure(ball, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 3 * hermite_module._BLOCK_POINTS * 8


def test_ball_measure_monotone_in_radius():
    vals = [
        gaussian_ball_measure(GaussianBall((0.3, -0.2), r), CFG)
        for r in (0.5, 1.0, 1.5, 2.5)
    ]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_ball_validation():
    with pytest.raises(ValueError):
        GaussianBall((0.0,), 0.0)
    with pytest.raises(ValueError):
        GaussianBall((0.0,), -1.0)
    with pytest.raises(ValueError):
        GaussianBall((math.nan,), 1.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_of_constant():
    f = PointwiseFunction(1, lambda p: np.full(p.shape[0], -3.0))
    for p in (1.0, 2.0, 4.0):
        assert gaussian_norm(f, p) == pytest.approx(3.0, abs=1e-12)


def test_norm_of_coordinate_frozen():
    f = PointwiseFunction(1, lambda p: p[:, 0])
    assert gaussian_norm(f, 2.0) == pytest.approx(0.7071067811865476, abs=1e-12)


def test_norm_of_hermite_is_one():
    for beta in ((3,), (1, 2)):
        s = HermiteSeries(len(beta), {beta: 1.0})
        assert gaussian_norm(s, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_norm_rejects_p_below_one():
    f = PointwiseFunction(1, lambda p: p[:, 0])
    with pytest.raises(ValueError):
        gaussian_norm(f, 0.5)


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------


def test_hl_of_constant_is_exactly_one():
    f = PointwiseFunction(1, lambda p: np.ones(p.shape[0]))
    est = hl_maximal(f, 0.3, CFG)
    assert est.value == 1.0
    assert est.grid_size == CFG.radius_grid.count
    # every radius ties: the smallest wins, whatever order the radii come in
    radii = CFG.radius_grid.values()[::-1]
    est = hl_maximal(f, 0.3, CFG, radii=radii)
    assert est.value == 1.0
    assert est.argmax == min(radii)


def test_hl_of_unit_ball_indicator_at_center():
    f = PointwiseFunction(1, lambda p: (np.abs(p[:, 0]) <= 1.0).astype(float))
    est = hl_maximal(f, 0.0, CFG)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.argmax <= 1.0  # attained by a small ball inside the support


def test_hl_of_abs_x_matches_refined_grid_oracle():
    f = PointwiseFunction(1, lambda p: np.abs(p[:, 0]))
    est = hl_maximal(f, 0.0, CFG)
    fine = hl_maximal(f, 0.0, CFG, radii=np.geomspace(1e-3, 8.0, 640))
    assert est.value == pytest.approx(fine.value, rel=1e-2)
    # the average of |u| over a huge ball tends to the full mean 1/sqrt(pi);
    # the kink at the origin limits the fixed rule to a couple of percent
    assert est.value == pytest.approx(1.0 / math.sqrt(math.pi), rel=2.5e-2)


def test_hl_monotone_under_grid_superset():
    f = PointwiseFunction(1, lambda p: np.exp(-((p[:, 0] - 1.0) ** 2)))
    base = np.geomspace(1e-3, 8.0, 16)
    extra = np.concatenate([base, np.geomspace(2e-3, 5.0, 13)])
    v1 = hl_maximal(f, 0.5, CFG, radii=base).value
    v2 = hl_maximal(f, 0.5, CFG, radii=extra).value
    assert v2 >= v1 - 1e-15


def test_hl_dominates_plain_average_with_large_radius():
    f = PointwiseFunction(1, lambda p: np.abs(p[:, 0]) + 0.5)
    est = hl_maximal(f, 0.0, CFG)
    # the gamma-mean of |x| + 1/2 in closed form; the 64-node Gauss-Hermite
    # value of gaussian_norm errs by 3.6e-3 on the kink, more than the margin
    plain = 1.0 / math.sqrt(math.pi) + 0.5
    assert est.value >= plain - 1e-3


@given(c=st.floats(min_value=0.1, max_value=20.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_hl_positive_homogeneity(c):
    f = PointwiseFunction(1, lambda p: np.abs(p[:, 0]))
    g = PointwiseFunction(1, lambda p: c * np.abs(p[:, 0]))
    radii = np.geomspace(0.1, 4.0, 8)
    a = hl_maximal(f, 1.0, CFG, radii=radii).value
    b = hl_maximal(g, 1.0, CFG, radii=radii).value
    assert b == pytest.approx(c * a, rel=1e-12)


def test_hl_argmax_belongs_to_grid():
    f = PointwiseFunction(1, lambda p: np.abs(p[:, 0]))
    radii = np.geomspace(0.01, 4.0, 12)
    est = hl_maximal(f, 0.7, CFG, radii=radii)
    assert any(est.argmax == pytest.approx(r, rel=1e-15) for r in radii)
    assert est.grid_size == 12


def test_hl_takes_one_finite_center():
    f = PointwiseFunction(2, lambda p: np.exp(-np.sum(p * p, axis=1)))
    with pytest.raises(ValueError, match="single point"):
        hl_maximal(f, [[0.1, 0.2], [2.5, 2.5]], CFG)
    with pytest.raises(ValueError, match="finite"):
        hl_maximal(f, [0.1, math.nan], CFG)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("d", [1, 2])
def test_hl_rejects_non_finite_radii_without_warnings(d, bad):
    f = PointwiseFunction(d, lambda p: np.exp(-np.sum(p * p, axis=1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            hl_maximal(f, np.zeros(d), CFG, radii=[1.0, bad])


@pytest.mark.parametrize("d", [1, 2])
def test_hl_rejects_a_ball_of_zero_mass_without_warnings(d):
    f = catalog_entry("bump", d).rep
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"radius 1\.0 about \(30\.0.*underflows to 0"):
            hl_maximal(f, np.full(d, 30.0), CFG, radii=[1.0, 4.0])


def test_maximal_estimate_validation():
    with pytest.raises(ValueError):
        MaximalEstimate(value=-1.0, argmax=0.5, grid_size=4)
    with pytest.raises(ValueError):
        MaximalEstimate(value=1.0, argmax=0.5, grid_size=0)


# ---------------------------------------------------------------------------
# scope: d <= 3
# ---------------------------------------------------------------------------


def test_d4_raises_before_any_quadrature():
    from mehler.cones import _directions

    calls = []
    f = PointwiseFunction(4, lambda p: calls.append(p.shape) or np.ones(p.shape[0]))
    with pytest.raises(ValueError, match="d <= 3"):
        hl_maximal(f, np.zeros(4), CFG)
    with pytest.raises(ValueError, match="d <= 3"):
        gaussian_ball_measure(GaussianBall((0.0,) * 4, 1.0), CFG)
    with pytest.raises(ValueError, match="d <= 3"):
        _directions(4, CFG.cross_angular)
    # the Gauss-Hermite grid: 64^4 nodes would take 0.67 GB, so take 4 per
    # axis, which the grid would build if d = 4 were admitted
    small, x = QuadratureConfig(gh_nodes=4), np.zeros(4)
    for run in (
        lambda: ou_apply(f, x, 0.5, "auto", small),
        lambda: poisson_apply(f, x, 0.5, "auto", small),
        lambda: gaussian_norm(f, 2.0, small),
        lambda: fourier_hermite_coeff(f, (0, 0, 0, 0), small),
        lambda: hermite_expand(f, 1, small),
    ):
        with pytest.raises(ValueError, match="d <= 3"):
            run()
    assert calls == []


def test_d4_series_keep_their_spectral_routes():
    s = HermiteSeries(4, {(1, 0, 0, 0): 1.0, (0, 2, 0, 1): 0.5})
    x, t = (0.3, -0.2, 0.1, 0.4), 0.5
    h1, h2 = hermite_eval((1, 0, 0, 0), x), hermite_eval((0, 2, 0, 1), x)
    ou = ou_apply(s, x, t, "spectral")
    assert ou == pytest.approx(math.exp(-t) * h1 + 0.5 * math.exp(-3 * t) * h2, rel=1e-14)
    po = poisson_apply(s, x, t, "spectral")
    assert po == pytest.approx(math.exp(-t) * h1 + 0.5 * math.exp(-math.sqrt(3) * t) * h2,
                               rel=1e-14)
