"""Oracle tests for the Poisson-Hermite semigroup.

The subordination identity pi^{-1/2} int u^{-1/2} e^{-u} e^{-lam^2/4u} du
= e^{-lam} is first confirmed symbolically-numerically with mpmath, then the
package quadrature is held to it, next to a second rule of the same integral
built here (split_rule). Eigenvalue decay e^{-t sqrt(|beta|)} against
frozen Hermite values gives independent pointwise references.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mehler.hermite as hermite_module
from mehler import (
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    as_function,
    catalog_entry,
    gauss_hermite_grid,
    hermite_eval,
)
from mehler.cones import ConeSpec, _cone_grid, cone_path
from mehler.ou import _mixture_values, _row_table, _time_rows
from mehler.poisson import (
    DEFAULT_SUBORDINATION,
    POISSON,
    SubordinationQuadrature,
    _ANGLE_R,
    _ANGLE_S,
    _ANGLES,
    _angle_rows,
    _kernel_rule,
    _kernel_times,
    _subordinated_times,
    bochner_identity_error,
    poisson_apply,
    poisson_apply_kernel,
    poisson_apply_spectral,
    poisson_apply_subordination,
    poisson_maximal,
    poisson_nontangential_maximal,
    poisson_transform,
    subordination_rule,
)
from mehler.measure import gaussian_norm

CFG = QuadratureConfig()

_ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES_PATH)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

ONE = HermiteSeries(1, {(0,): 1.0})
H1 = HermiteSeries(1, {(1,): 1.0})
H2 = HermiteSeries(1, {(2,): 1.0})


def bump(dimension: int = 1) -> PointwiseFunction:
    return PointwiseFunction(
        dimension,
        lambda p: np.exp(-np.sum(p * p, axis=1)),
        name="bump",
    )


def split_rule(nodes: int = 560, cutoff: float = 30.0) -> tuple[np.ndarray, np.ndarray]:
    """An independent rule (u_j, omega_j) of the Bochner u-integral.

    Gauss-Legendre panels in u itself: geometric toward the u^{-1/2} endpoint
    on [1e-22, 1], linear on [1, cutoff], where the dropped tail is below
    e^{-cutoff}/sqrt(cutoff) ~ 1.7e-14.
    """
    n_geo, n_lin = 44, 12
    xs, ws = np.polynomial.legendre.leggauss(max(4, nodes // (n_geo + n_lin)))
    edges = np.concatenate(
        [np.geomspace(1e-22, 1.0, n_geo + 1), np.linspace(1.0, cutoff, n_lin + 1)[1:]]
    )
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    u = (mids[:, None] + halves[:, None] * xs[None, :]).ravel()
    w = (halves[:, None] * ws[None, :]).ravel()
    return u, w * np.exp(-u) / (np.sqrt(u) * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# the subordination identity
# ---------------------------------------------------------------------------


def test_subordination_identity_mpmath_reference():
    # independent high-precision check that the identity itself holds
    for lam in (0.5, 2.0):
        val = mpmath.quad(
            lambda u: mpmath.exp(-u) / mpmath.sqrt(mpmath.pi * u) * mpmath.exp(-(lam**2) / (4 * u)),
            [0, lam * lam / 4, mpmath.inf],
        )
        assert abs(float(val) - math.exp(-lam)) < 1e-12


def test_bochner_identity_square_scheme():
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
        assert bochner_identity_error(lam) <= 1e-10


def test_bochner_identity_square_scheme_range():
    # the documented range: below 1e-11 at 0 and over [1e-12, 5], where the
    # step of e^{-lam^2/4v^2} at v ~ lam/2 crosses the geometric panels
    assert bochner_identity_error(0.0) <= 1e-11
    for lam in (*np.geomspace(1e-12, 1e-5, 120), *np.geomspace(1e-5, 5.0, 200)):
        assert bochner_identity_error(lam) <= 1e-11, lam


def test_bochner_identity_split_scheme():
    u, omega = split_rule()
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
        val = float(np.sum(omega * np.exp(-(lam * lam) / (4.0 * u))))
        assert abs(val - math.exp(-lam)) <= 1e-10


def test_subordination_weights_sum_to_one():
    for _, omega in (subordination_rule(DEFAULT_SUBORDINATION), split_rule()):
        assert float(np.sum(omega)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# pointwise evaluations
# ---------------------------------------------------------------------------


def test_constant_passes_through():
    f = PointwiseFunction(1, lambda p: np.ones(p.shape[0]))
    assert poisson_apply_subordination(f, 0.3, 1.0, CFG) == pytest.approx(1.0, abs=1e-10)
    assert poisson_apply_kernel(f, 0.3, 1.0, CFG) == pytest.approx(1.0, abs=1e-8)


def test_h1_decay_oracle():
    # P_1 h_1(1) = e^{-1} sqrt(2) = 0.52028757...
    want = math.exp(-1.0) * hermite_eval((1,), 1.0)
    assert want == pytest.approx(0.5203, abs=1e-4)
    got = poisson_apply_subordination(H1, 1.0, 1.0, CFG)
    assert got == pytest.approx(want, abs=1e-9)


def test_h4_decay_oracle():
    # P_1 h_4(0) = e^{-2} h_4(0), sqrt(|beta|) = 2, h_4(0) = 12/sqrt(384)
    want = math.exp(-2.0) * 12.0 / math.sqrt(384.0)
    assert hermite_eval((4,), 0.0) == pytest.approx(12.0 / math.sqrt(384.0), rel=1e-14)
    got = poisson_apply_subordination(HermiteSeries(1, {(4,): 1.0}), 0.0, 1.0, CFG)
    assert got == pytest.approx(want, abs=1e-9)
    assert want == pytest.approx(0.08288, abs=1e-4)


def test_kernel_route_spectral_oracle():
    # P_{0.8} h_2(0.5) = e^{-0.8 sqrt(2)} h_2(0.5)
    want = math.exp(-0.8 * math.sqrt(2.0)) * hermite_eval((2,), 0.5)
    kernel = poisson_apply_kernel(H2, 0.5, 0.8, CFG)
    subord = poisson_apply_subordination(H2, 0.5, 0.8, CFG)
    assert kernel == pytest.approx(want, abs=1e-6)
    assert kernel == pytest.approx(subord, abs=1e-6)


def test_kernel_route_with_an_empty_rule_is_the_weighted_mean():
    # at t = 60 the essential-decay cut t^2/120 = 30 lies past the flat-tail
    # cut 18.42, so no L_k is left and only the gamma-mean atom remains
    t = 60.0
    L, W = _kernel_rule(t)
    assert L.size == 0 and W.size == 0
    f = bump(2)
    nodes, wts = gauss_hermite_grid(2, CFG.gh_nodes)
    mean = float(f.values(nodes) @ wts)
    cut = max(t * t / 120.0, 18.42)
    want = mean * math.erf(t / (2.0 * math.sqrt(cut)))
    assert poisson_apply_kernel(f, (0.4, -1.0), t, CFG) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_split_scheme_cross_check():
    # P_t f(0.4) as the OU-time mixture of the split rule, against the package
    f = bump()
    u, omega = split_rule()
    for t in (0.3, 1.5):
        a = poisson_apply_subordination(f, 0.4, t, CFG)
        rows = _row_table([_time_rows(t * t / (4.0 * u), omega)])
        b = float(_mixture_values(f, np.array([[0.4]]), rows, CFG)[0])
        assert a == pytest.approx(b, abs=1e-9)


def test_subordination_on_a_series_is_the_mixture_quadrature():
    # a series takes the same OU-time mixture as a black box, on the same
    # fixed angle rows, so the route stays independent of the spectral
    # factor that bochner_identity_error checks
    s = HermiteSeries(2, {(0, 0): 0.3, (2, 1): 1.0, (0, 3): -0.5})
    x = np.array([0.4, -0.7])
    for t in (0.1, 1.5):
        u, omega = subordination_rule(DEFAULT_SUBORDINATION)
        rows = _angle_rows(t * t / (4.0 * u), omega)
        want = float(_mixture_values(as_function(s), x[None, :], rows, CFG)[0])
        assert poisson_apply_subordination(s, x, t, CFG) == want


# ---------------------------------------------------------------------------
# the fixed angle rows of the default route
# ---------------------------------------------------------------------------


def unprojected(f, points, t, cfg=CFG) -> np.ndarray:
    # the subordination mixture on its own folded rows
    return _mixture_values(f, points, _row_table([_time_rows(*_subordinated_times(t))]), cfg)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_angle_rows_match_the_unprojected_mixture_on_bump(dimension):
    # d = 3 takes a 16-node rule, so that the reference of up to 186 rows stays cheap
    cfg = CFG if dimension < 3 else QuadratureConfig(gh_nodes=16)
    f = catalog_entry("bump", dimension).rep
    points = np.random.default_rng(dimension).uniform(-1.5, 1.5, size=(3, dimension))
    for t in (*cfg.time_grid.values()[::4], 200.0, 1e3):
        r, s, _ = POISSON.routes["subordination"](t)
        assert np.array_equal(r, _ANGLE_R) and np.array_equal(s, _ANGLE_S), t
        got = POISSON.values(f, points, t, "subordination", cfg)
        np.testing.assert_allclose(got, unprojected(f, points, t, cfg), rtol=0.0, atol=1e-14,
                                   err_msg=str(t))


def test_angle_rows_are_exact_at_both_ends():
    r, s, c = _angle_rows((math.inf,), (1.0,))
    assert r.size == s.size == c.size == _ANGLES + 1
    assert (r[0], s[0]) == (1.0, 0.0) and (r[-1], s[-1]) == (0.0, 1.0)
    assert c.tolist() == [0.0] * _ANGLES + [1.0]
    # t = 0 is the angle 0: all of its weight on the first row
    assert _angle_rows((0.0,), (0.5,))[2].tolist() == [0.5] + [0.0] * _ANGLES
    xi = 0.5 * (1.0 - np.cos(np.arange(_ANGLES + 1) * math.pi / _ANGLES))
    np.testing.assert_allclose(np.arctan2(s, r), (math.pi / 2.0) * xi**1.5, rtol=0.0, atol=1e-15)


def test_angle_weights_keep_the_mixture_mass():
    for t in (*CFG.time_grid.values(), 1e-9, 50.0):
        _, weights = _subordinated_times(t)
        _, _, c = POISSON.routes["subordination"](t)
        assert c.size == _ANGLES + 1
        assert float(np.sum(c)) == pytest.approx(float(np.sum(weights)), rel=0.0, abs=1e-15), t


def test_kernel_route_keeps_its_own_rows():
    f = catalog_entry("bump", 2).rep
    points = np.array([[0.3, 0.2], [-1.0, 0.5]])
    for t in (0.1, 1.0, 4.0):
        rows = _row_table([_time_rows(*_kernel_times(t))])
        want = _mixture_values(f, points, rows, CFG)
        assert rows[0].size > _ANGLES + 1
        assert POISSON.values(f, points, t, "kernel", CFG).tolist() == want.tolist(), t


def test_a_projected_value_does_not_depend_on_its_batch():
    f = catalog_entry("bump", 2).rep
    points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 2))
    times = [0.05, 1.0, 0.05, 3.0]
    batch = POISSON.values(f, points, times, "auto", CFG)
    assert batch.tolist() == [poisson_apply(f, p, t, cfg=CFG) for p, t in zip(points, times)]


def test_nontangential_maximal_on_bump_d2():
    # the gaussian cone's sections take the fixed angle rows too
    est = poisson_nontangential_maximal(catalog_entry("bump", 2).rep, (0.3, 0.2), CFG)
    assert est.value == pytest.approx(0.43721424632052985, rel=0.0, abs=1e-14)
    assert est.argmax == ((0.6163990867908431, 0.5163990867908431), 0.44750062972504484)


APEXES = {1: (0.5,), 2: (0.3, -0.2), 3: (0.4, 0.1, -0.3)}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_apex_values_match_the_values_of_each_point(dimension):
    # about an apex a pair takes its row's anchor where its tilt allows; on
    # bump every value is the one its point gets with no apex, on a path, a
    # gaussian cone grid and a time supremum. d = 3 takes 32 nodes, so that
    # the reference's shifted pairs stay cheap: at 32 the rules agree to
    # 3e-17, at 16 the tilted one is 7e-10 off
    cfg = CFG if dimension < 3 else QuadratureConfig(gh_nodes=32)
    f = catalog_entry("bump", dimension).rep
    spec = ConeSpec(APEXES[dimension], "gaussian")
    apex = spec.apex_array()
    path = cone_path(spec, 40, 0.5, 0.7, cfg=cfg).points
    times, cells = _cone_grid(spec, cfg, (1e-4, 0.3))
    ladder = np.append(cfg.time_grid.values(), math.inf)
    cases = {
        "path": (np.array([y for y, _ in path]), np.array([t for _, t in path])),
        "cone": (cells.reshape(-1, dimension), np.repeat(times, cells.shape[1])),
        "time": (np.repeat(apex[None, :], ladder.size, axis=0), ladder),
    }
    for name, (points, ts) in cases.items():
        got = POISSON.values(f, points, ts, "auto", cfg, apex)
        want = POISSON.values(f, points, ts, "auto", cfg)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("scale", [1.0, 1e-2])
def test_ball_path_at_the_rim_stays_near_the_closed_form(scale):
    # the path of `run_convergence`'s default cone at apex 0.9912 (the
    # perfbench poisson-path apex of seed 3) crosses the rim near t = 3e-4,
    # where the row integrals turn within 1e-4 of angle 0: on 33 angles
    # evenly spread in theta the value at y = 1.00017, t = 3.2e-4 was 0.138
    # off the closed form. The projection is linear in f, so the bound
    # scales with it
    ball = catalog_entry("ball", 1).rep
    f = PointwiseFunction(1, lambda p: scale * ball.values(p), vectorized=True)
    spec = ConeSpec((0.9912,), "parabolic-gaussian")
    path = cone_path(spec, 40, 0.5, 0.7, cfg=CFG).points
    points, ts = np.array([y for y, _ in path]), np.array([t for _, t in path])
    want = scale * np.array([oracles.poisson_closed("ball", y, t) for y, t in path])
    for apex in (None, spec.apex_array()):
        got = POISSON.values(f, points, ts, "auto", CFG, apex)
        assert np.max(np.abs(got - want)) < 6e-2 * scale, apex


def counted(f):
    # f, and a list holding the number of points it has been handed
    seen = [0]

    def evaluator(p):
        seen[0] += p.shape[0]
        return f.values(p)

    return PointwiseFunction(f.dimension, evaluator, vectorized=True, name=f.name), seen


@pytest.mark.parametrize("name, dimension", [("ball", 1), ("bump", 2)])
def test_path_work_does_not_depend_on_the_apex(name, dimension):
    # inside a cone a pair's rule depends on its time and row alone, so a
    # path takes f on as many points at every apex, near the origin, on the
    # ball's rim or where 1/|x| caps the aperture
    f, seen = counted(catalog_entry(name, dimension).rep)
    counts = set()
    for norm in (0.2, 0.9912, 1.0, 2.7):
        apex = (norm,) + (0.0,) * (dimension - 1)
        path = cone_path(ConeSpec(apex, "parabolic-gaussian"), 40, 0.5, 0.7, cfg=CFG).points
        seen[0] = 0
        POISSON.values(f, [y for y, _ in path], [t for _, t in path], "auto", CFG, apex,
                       "parabolic-gaussian")
        counts.add(seen[0])
    assert len(counts) == 1, counts


@pytest.mark.parametrize("apex, kind", [((0.5,), "gaussian"), ((0.3, 0.2), "parabolic-gaussian")])
def test_a_path_is_one_flat_call_and_one_walk(apex, kind):
    # the tilted, plain and shifted anchors of a path share one walk, so
    # every call after the flat one (f at the path's points) is a full block
    # but the last; a walk per kind of anchor leaves a partial block mid-path
    f = catalog_entry("bump", len(apex)).rep
    calls = []

    def evaluator(p):
        calls.append(p.shape[0])
        return f.values(p)

    path = cone_path(ConeSpec(apex, kind), 40, 0.5, 0.7, cfg=CFG).points
    POISSON.values(PointwiseFunction(len(apex), evaluator, vectorized=True),
                   [y for y, _ in path], [t for _, t in path], "auto", CFG, apex, kind)
    assert calls[0] == 40
    assert all(c == hermite_module._BLOCK_POINTS for c in calls[1:-1]), calls
    assert 0 < calls[-1] <= hermite_module._BLOCK_POINTS


def test_infinite_time_gives_the_mean():
    assert poisson_apply_subordination(bump(), 0.9, math.inf, CFG) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-12
    )


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------


def test_spectral_identity_at_zero_time():
    s = HermiteSeries(1, {(0,): 0.2, (1,): 1.0, (4,): -0.3})
    for x in (-0.7, 1.1):
        assert poisson_apply_spectral(s, x, 0.0) == pytest.approx(s.evaluate(x), rel=1e-14)


def test_spectral_d2_mixed_index():
    s = HermiteSeries(2, {(1, 1): 1.0})
    x = (0.6, -0.4)
    for t in (0.5, 2.0):
        want = math.exp(-t * math.sqrt(2.0)) * s.evaluate(x)
        assert poisson_apply_spectral(s, x, t) == pytest.approx(want, rel=1e-13)


def test_second_time_derivative_matches_degree():
    # d^2/dt^2 e^{-t sqrt(k)} = k e^{-t sqrt(k)}
    h = 1e-3
    for k, x in ((2, 0.9), (3, -0.5)):
        s = HermiteSeries(1, {(k,): 1.0})
        t = 0.7
        plus = poisson_apply_spectral(s, x, t + h)
        mid = poisson_apply_spectral(s, x, t)
        minus = poisson_apply_spectral(s, x, t - h)
        second = (plus - 2.0 * mid + minus) / (h * h)
        assert second == pytest.approx(k * mid, rel=1e-5)


# ---------------------------------------------------------------------------
# route agreement and structure
# ---------------------------------------------------------------------------


def test_routes_agree_on_series():
    rng = np.random.default_rng(23)
    from mehler import enumerate_multi_indices

    for d in (1, 2):
        idx = enumerate_multi_indices(d, 6)
        s = HermiteSeries(
            d, {b.entries: float(c) for b, c in zip(idx, rng.normal(size=len(idx)))}
        )
        x = rng.uniform(-1.0, 1.0, size=d)
        for t in (0.1, 1.0, 4.0):
            spectral = poisson_apply_spectral(s, x, t)
            subord = poisson_apply_subordination(s, x, t, CFG)
            kernel = poisson_apply_kernel(s, x, t, CFG)
            assert subord == pytest.approx(spectral, abs=1e-6)
            assert kernel == pytest.approx(spectral, abs=1e-6)


def test_semigroup_law_spectral_exact():
    s = HermiteSeries(1, {(0,): 0.4, (2,): 1.0, (5,): -0.2})
    for x in (0.0, 0.8):
        direct = poisson_apply_spectral(s, x, 1.3)
        composed = poisson_apply_spectral(
            poisson_transform(poisson_transform(s, 0.5), 0.8), x, 0.0
        )
        assert composed == pytest.approx(direct, rel=1e-13)


def test_semigroup_law_subordination():
    f = bump()
    t, s = 0.6, 0.9
    inner = poisson_transform(f, s, CFG)
    direct = poisson_apply_subordination(f, 0.5, t + s, CFG)
    composed = poisson_apply_subordination(inner, 0.5, t, CFG)
    assert composed == pytest.approx(direct, abs=1e-5)


def test_monotone_decay_in_time():
    for x in (1.2, -0.4):
        vals = [abs(poisson_apply_spectral(H2, x, t)) for t in np.linspace(0.0, 5.0, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_contraction_in_lp():
    s = HermiteSeries(1, {(0,): 0.5, (1,): -0.8, (3,): 0.3})
    for p in (1.0, 2.0, 4.0):
        base = gaussian_norm(s, p, CFG)
        for t in (0.2, 1.0, 4.0):
            moved = gaussian_norm(poisson_transform(s, t), p, CFG)
            assert moved <= base * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------


def test_maximal_of_constant_is_one():
    est = poisson_maximal(ONE, 0.3, CFG)
    assert est.value == 1.0
    nt = poisson_nontangential_maximal(ONE, 0.3, CFG)
    assert nt.value == 1.0


def test_maximal_h1_attained_at_small_time():
    est = poisson_maximal(H1, 1.0, CFG)
    assert est.argmax == CFG.time_grid.lo
    assert est.value == pytest.approx(math.sqrt(2.0), rel=2e-4)


def test_nontangential_dominates_on_grid_members():
    for t0 in (0.01, 0.1, 1.0):
        ref = abs(poisson_apply(H2, 1.0, t0, cfg=CFG))
        est = poisson_nontangential_maximal(H2, 1.0, CFG, times=CFG.time_grid.values())
        assert est.value >= ref - 1e-12


@pytest.mark.parametrize("dimension", [1, 2])
def test_argmax_of_a_constant_is_the_first_cell(dimension):
    # every cell of P_t 1 = 1 ties: the smallest time wins, then the
    # lexicographically smallest point of its cross-section
    from mehler.cones import ConeSpec, _cross_fractions, _directions

    one = HermiteSeries(dimension, {(0,) * dimension: 1.0})
    apex = np.linspace(0.3, -0.4, dimension)
    times = (0.02, 0.01)
    est = poisson_nontangential_maximal(one, apex, CFG, times)
    a = ConeSpec(tuple(apex), "gaussian").aperture(0.01)
    fractions = _cross_fractions(CFG.cross_radial)
    assert fractions[0] == 0.0
    cells = [tuple(apex)] + [
        tuple(apex + fr * a * u)
        for fr in fractions[1:]
        for u in _directions(dimension, CFG.cross_angular)
    ]
    assert est.value == 1.0
    assert est.argmax == (min(cells), 0.01)
    assert poisson_maximal(one, apex, CFG, times).argmax == 0.01


def test_nontangential_argmax_in_gaussian_cone():
    from mehler.cones import ConeSpec, cone_contains

    est = poisson_nontangential_maximal(H2, 0.5, CFG)
    y, t = est.argmax
    assert cone_contains(ConeSpec((0.5,), "gaussian"), y, t)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_quadrature_validation():
    with pytest.raises(ValueError):
        SubordinationQuadrature(nodes=8)
    with pytest.raises(ValueError, match="decay rate must be nonnegative"):
        bochner_identity_error(-1.0)


def test_time_validation():
    with pytest.raises(ValueError):
        poisson_apply_subordination(H1, 0.0, 0.0, CFG)
    with pytest.raises(ValueError):
        poisson_apply_kernel(bump(), 0.0, -1.0, CFG)
    with pytest.raises(TypeError):
        poisson_apply_spectral(bump(), 0.0, 1.0)
    with pytest.raises(ValueError):
        poisson_apply(H1, 0.0, 1.0, route="mystery")
