"""Membership and path tests for the gaussian approach regions.

The frozen cases below are direct evaluations of the three aperture rules;
the randomized blocks check the truncated-in-parabolic inclusion and that
generated paths never step outside their own cone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehler.cones import (
    CONE_KINDS,
    ApproachPath,
    ConeSpec,
    _cone_grid,
    _cross_fractions,
    _directions,
    cone_contains,
    cone_path,
    tangential_path,
)
from mehler.hermite import QuadratureConfig

PARABOLIC = "parabolic-gaussian"
GAUSSIAN = "gaussian"
TRUNCATED = "truncated-parabolic"


# ---------------------------------------------------------------------------
# membership: frozen cases
# ---------------------------------------------------------------------------


def test_parabolic_origin_inside():
    spec = ConeSpec((0.0,), PARABOLIC)
    # |y| = 0.1 < min(sqrt(0.04), inf, 1) = 0.2
    assert cone_contains(spec, 0.1, 0.04)


def test_truncated_time_window_excludes_large_t():
    spec = ConeSpec((3.0,), TRUNCATED)
    # t = 0.2 >= 1/9, so even the apex itself is out
    assert spec.time_cap == pytest.approx(1.0 / 9.0)
    assert not cone_contains(spec, 3.0, 0.2)
    assert cone_contains(spec, 3.0, 0.1)


def test_gaussian_linear_aperture_excludes():
    spec = ConeSpec((0.0,), GAUSSIAN)
    # |y| = 0.05 >= t = 0.04
    assert not cone_contains(spec, 0.05, 0.04)
    assert cone_contains(spec, 0.03, 0.04)


def test_membership_is_strict_on_the_wall():
    spec = ConeSpec((0.0,), PARABOLIC)
    assert not cone_contains(spec, 0.2, 0.04)  # |y| = sqrt(t) exactly
    assert not cone_contains(ConeSpec((0.0,), GAUSSIAN), 0.04, 0.04)
    assert not cone_contains(ConeSpec((0.0,), TRUNCATED), 0.2, 0.04)


def test_unit_clamp_binds_for_large_t():
    spec = ConeSpec((0.0,), PARABOLIC)
    assert cone_contains(spec, 0.999, 9.0)
    assert not cone_contains(spec, 1.0, 9.0)


def test_inverse_norm_clamp_binds_far_from_origin():
    spec = ConeSpec((2.0,), PARABOLIC)
    # aperture = min(2, 1/2, 1) = 1/2 at t = 4
    assert cone_contains(spec, 2.45, 4.0)
    assert not cone_contains(spec, 2.55, 4.0)


def test_apex_degeneracy_at_origin():
    # at x = 0 the 1/|x| clause reads +inf and drops out
    spec = ConeSpec((0.0, 0.0), PARABOLIC)
    for t in (0.01, 0.5, 4.0):
        assert spec.aperture(t) == pytest.approx(min(math.sqrt(t), 1.0))
    gspec = ConeSpec((0.0, 0.0), GAUSSIAN)
    for t in (0.01, 0.5, 4.0):
        assert gspec.aperture(t) == pytest.approx(min(t, 1.0))


def test_aperture_shrinks_with_apex_norm():
    t = 1.0
    radii = [ConeSpec((float(c),), PARABOLIC).aperture(t) for c in (0.0, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    caps = [ConeSpec((float(c),), TRUNCATED).time_cap for c in (2.0, 3.0, 4.0)]
    assert all(a > b for a, b in zip(caps, caps[1:]))


def test_truncated_aperture_vanishes_outside_window():
    spec = ConeSpec((0.0,), TRUNCATED)
    assert spec.aperture(0.3) == 0.0
    assert spec.aperture(0.2) == pytest.approx(math.sqrt(0.2))


# ---------------------------------------------------------------------------
# the cone grid of the suprema
# ---------------------------------------------------------------------------


def loop_grid(spec: ConeSpec, cfg: QuadratureConfig, times):
    """The grid built one time at a time: the ladder, then each cross-section."""
    if times is None:
        cap = spec.time_cap
        lo, hi = cfg.time_grid.lo, cfg.time_grid.hi
        if math.isfinite(cap):
            hi = (1.0 - 1e-9) * cap
            lo = min(lo, 1e-4 * hi)
        ts = np.geomspace(lo, hi, cfg.time_grid.count)
    else:
        ts = np.sort(np.asarray(times, dtype=float))
    apex = spec.apex_array()
    sections = []
    for t in ts:
        aperture = spec.aperture(float(t))
        offsets = [np.zeros(apex.size)]
        for fr in _cross_fractions(cfg.cross_radial):
            if fr == 0.0:
                continue
            for u in _directions(apex.size, cfg.cross_angular):
                offsets.append(fr * aperture * u)
        pts = apex[None, :] + np.asarray(offsets)
        sections.append(pts[np.lexsort(pts.T[::-1])])
    return ts, np.stack(sections)


@pytest.mark.parametrize("kind", CONE_KINDS)
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("refine", [1, 2])
def test_cone_grid_is_the_per_time_loop(kind, dimension, refine):
    # bit for bit, on the default ladder and an unsorted list below every
    # cap, at the origin and at |x| = 3, where 1/|x| and the cap 1/9 bind
    cfg = QuadratureConfig() if refine == 1 else QuadratureConfig().refined(refine)
    for norm in (0.0, 3.0):
        apex = (norm,) + (0.0,) * (dimension - 1)
        spec = ConeSpec(apex, kind)
        for times in (None, (0.05, 1e-3, 0.1, 0.02)):
            ts, cells = _cone_grid(spec, cfg, times)
            want_ts, want_cells = loop_grid(spec, cfg, times)
            assert np.array_equal(ts, want_ts)
            assert np.array_equal(cells, want_cells)


# ---------------------------------------------------------------------------
# membership: randomized inclusion
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    apex=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3),
    offset=st.floats(-1.0, 1.0),
    t=st.floats(1e-6, 0.3),
)
def test_truncated_membership_implies_parabolic(apex, offset, t):
    d = len(apex)
    y = np.asarray(apex, dtype=float)
    y[0] += offset
    if cone_contains(ConeSpec(apex, TRUNCATED), y, t):
        assert cone_contains(ConeSpec(apex, PARABOLIC), y, t)


def test_path_points_always_in_cone_randomized():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        apex = rng.uniform(-3.0, 3.0, size=d)
        kind = CONE_KINDS[int(rng.integers(0, 3))]
        eta = float(rng.uniform(1e-6, 1.0 - 1e-9))
        decay = float(rng.uniform(0.2, 0.9))
        path = cone_path(ConeSpec(apex, kind), 20, eta, decay)
        for y, t in path:
            assert cone_contains(path.spec, y, t)


# ---------------------------------------------------------------------------
# cone_path behavior
# ---------------------------------------------------------------------------


def test_radial_path_at_zero_fraction():
    spec = ConeSpec((0.5, -0.5), PARABOLIC)
    path = cone_path(spec, 8, 0.0, 0.5)
    for y, _ in path:
        assert y == spec.apex


def test_path_times_decrease_and_points_approach_apex():
    spec = ConeSpec((1.0,), PARABOLIC)
    path = cone_path(spec, 40, 0.9, 0.6)
    ts = path.times()
    assert np.all(np.diff(ts) < 0)
    first = abs(path.points[0][0][0] - 1.0)
    last = abs(path.points[-1][0][0] - 1.0)
    assert last < first
    assert last < 1e-3


def test_path_travels_at_requested_fraction():
    spec = ConeSpec((0.0,), PARABOLIC)
    path = cone_path(spec, 5, 0.5, 0.25)
    for y, t in path:
        assert abs(y[0]) == pytest.approx(0.5 * spec.aperture(t), rel=1e-12)


def test_truncated_path_starts_below_time_cap():
    spec = ConeSpec((3.0,), TRUNCATED)
    path = cone_path(spec, 10, 0.5, 0.5)
    assert path.points[0][1] < spec.time_cap


def test_path_direction_override():
    spec = ConeSpec((0.0, 0.0), PARABOLIC)
    path = cone_path(spec, 4, 0.5, 0.5, direction=(0.0, 2.0))
    for y, _ in path:
        assert y[0] == 0.0
        assert y[1] > 0.0


def test_path_rejects_bad_arguments():
    spec = ConeSpec((0.0,), PARABOLIC)
    with pytest.raises(ValueError):
        cone_path(spec, 0, 0.5, 0.5)
    with pytest.raises(ValueError):
        cone_path(spec, 4, 1.0, 0.5)
    with pytest.raises(ValueError):
        cone_path(spec, 4, -0.1, 0.5)
    with pytest.raises(ValueError):
        cone_path(spec, 4, 0.5, 1.0)
    with pytest.raises(ValueError):
        cone_path(spec, 4, 0.5, 0.5, direction=(0.0,))


BAD_DIRECTIONS = [(math.inf, 0.0), (math.nan, 1.0), (0.0, 0.0)]


@pytest.mark.parametrize("direction", BAD_DIRECTIONS)
def test_cone_path_rejects_non_finite_or_zero_direction(direction):
    spec = ConeSpec((0.0, 0.0), PARABOLIC)
    with pytest.raises(ValueError, match="finite nonzero"):
        cone_path(spec, 2, 0.5, 0.5, direction=direction)


@pytest.mark.parametrize("direction", BAD_DIRECTIONS)
def test_tangential_path_rejects_non_finite_or_zero_direction(direction):
    with pytest.raises(ValueError, match="finite nonzero"):
        tangential_path((0.0, 0.0), 2, 0.25, direction=direction)


# finite directions whose squared norm overflows or underflows
EXTREME_DIRECTIONS = [(1e200, 1e200), (1e-200, 1e-200)]


@pytest.mark.parametrize("direction", EXTREME_DIRECTIONS)
def test_cone_path_accepts_extreme_finite_direction(direction):
    spec = ConeSpec((0.0, 0.0), PARABOLIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = cone_path(spec, 3, 0.5, 0.5, direction=direction)
    assert path.points == cone_path(spec, 3, 0.5, 0.5, direction=(1.0, 1.0)).points


@pytest.mark.parametrize("direction", EXTREME_DIRECTIONS)
def test_tangential_path_accepts_extreme_finite_direction(direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = tangential_path((0.0, 0.0), 3, 0.25, direction=direction)
    assert pts == tangential_path((0.0, 0.0), 3, 0.25, direction=(1.0, 1.0))


def test_approach_path_validates_membership():
    spec = ConeSpec((0.0,), PARABOLIC)
    with pytest.raises(ValueError):
        ApproachPath(spec, (((5.0,), 0.01),), 0.5)
    with pytest.raises(ValueError):  # times must strictly decrease
        ApproachPath(spec, (((0.0,), 0.01), ((0.0,), 0.01)), 0.5)
    with pytest.raises(ValueError):
        ApproachPath(spec, (), 0.5)


# ---------------------------------------------------------------------------
# tangential contrast paths
# ---------------------------------------------------------------------------


def test_tangential_path_leaves_parabolic_cone():
    pts = tangential_path(0.0, 20, 0.25)
    spec = ConeSpec((0.0,), PARABOLIC)
    # t^{1/4} > sqrt(t) for small t, so the tail is outside
    assert not cone_contains(spec, pts[-1][0], pts[-1][1])
    ts = [t for _, t in pts]
    assert all(a > b for a, b in zip(ts, ts[1:]))
    for y, t in pts:
        assert abs(y[0]) == pytest.approx(t**0.25, rel=1e-12)


def test_tangential_path_near_boundary_exponent():
    pts = tangential_path(0.0, 10, 0.499)
    for y, t in pts:
        assert abs(y[0]) == pytest.approx(t**0.499, rel=1e-12)
        assert abs(y[0]) > math.sqrt(t)  # still outside, barely


def test_tangential_path_converges_to_apex():
    pts = tangential_path((1.0, 2.0), 40, 0.3, direction=(1.0, 1.0))
    y_last, t_last = pts[-1]
    assert t_last < 1e-10
    assert np.linalg.norm(np.asarray(y_last) - (1.0, 2.0)) < 1e-3


def test_tangential_path_rejects_flat_or_steep_exponent():
    with pytest.raises(ValueError):
        tangential_path(0.0, 5, 0.5)
    with pytest.raises(ValueError):
        tangential_path(0.0, 5, 0.0)
    with pytest.raises(ValueError):
        tangential_path(0.0, 5, 0.25, decay=1.5)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec((0.0,), "round")
    with pytest.raises(ValueError):
        ConeSpec((math.nan,), PARABOLIC)
    with pytest.raises(ValueError):
        cone_contains(ConeSpec((0.0,), PARABOLIC), 0.0, 0.0)
    with pytest.raises(ValueError):
        cone_contains(ConeSpec((0.0, 0.0), PARABOLIC), (0.0,), 0.1)
