"""Oracle tests for the gaussian measure module.

Frozen values come from the error function, polar closed forms for centered
balls in d = 2, 3, and moments of gamma computed by hand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mehler import HermiteSeries, PointwiseFunction, QuadratureConfig
from mehler.measure import (
    GaussianBall,
    MaximalEstimate,
    _ball_rule,
    gaussian_ball_measure,
    gaussian_density,
    gaussian_norm,
    hl_maximal,
)

CFG = QuadratureConfig()


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


def test_ball_measure_d2_centered_polar_oracle():
    # gamma_2(B(0, r)) = 1 - exp(-r^2); the masked tensor rule carries a
    # boundary error of order 1/ball_nodes, so the check is calibrated to
    # that and a refined rule must land much closer
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


def masked_tensor_rule(center: np.ndarray, r: float, n: int):
    """The ball rule built per ball: the n^d tensor grid, masked by the ball."""
    d = center.size
    gx, gw = np.polynomial.legendre.leggauss(n)
    grids = np.meshgrid(*[center[i] + r * gx for i in range(d)], indexing="ij")
    pts_t = np.stack([g.ravel() for g in grids])
    wt = r * gw
    for _ in range(d - 1):
        wt = np.multiply.outer(wt, r * gw)
    wts = wt.ravel() * np.exp(-np.sum(pts_t * pts_t, axis=0)) / math.pi ** (d / 2.0)
    inside = np.sum((pts_t - center[:, None]) ** 2, axis=0) <= r * r
    return pts_t[:, inside].T, wts[inside]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [37, 64, 128])
def test_ball_rule_is_the_masked_tensor_rule_bit_for_bit(d, n):
    cfg = replace(CFG, ball_nodes=n)
    rng = np.random.default_rng(100 * d + n)
    for r in np.geomspace(1e-3, 8.0, 9):
        center = rng.uniform(-5.0, 5.0, d)
        pts, wts = _ball_rule(center, float(r), cfg)
        want_pts, want_wts = masked_tensor_rule(center, float(r), n)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(wts, want_wts)
        assert pts.flags.f_contiguous
        f = PointwiseFunction(d, lambda p: np.abs(np.sin(p[:, 0])) + p[:, -1] ** 2)
        avg = np.sum(wts * f.values(pts)) / np.sum(wts)
        assert avg == np.sum(want_wts * f.values(want_pts)) / np.sum(want_wts)


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
    plain = gaussian_norm(f, 1.0, CFG)
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


def test_maximal_estimate_validation():
    with pytest.raises(ValueError):
        MaximalEstimate(value=-1.0, argmax=0.5, grid_size=4)
    with pytest.raises(ValueError):
        MaximalEstimate(value=1.0, argmax=0.5, grid_size=0)


# ---------------------------------------------------------------------------
# scope: d <= 3
# ---------------------------------------------------------------------------


def test_d4_raises_before_any_quadrature():
    from mehler.ou import _directions

    calls = []
    f = PointwiseFunction(4, lambda p: calls.append(p.shape) or np.ones(p.shape[0]))
    with pytest.raises(ValueError, match="d <= 3"):
        hl_maximal(f, np.zeros(4), CFG)
    with pytest.raises(ValueError, match="d <= 3"):
        gaussian_ball_measure(GaussianBall((0.0,) * 4, 1.0), CFG)
    with pytest.raises(ValueError, match="d <= 3"):
        _directions(4, CFG.cross_angular)
    assert calls == []
