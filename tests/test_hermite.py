"""Oracle tests for the normalized Hermite core.

Expected values in this file are frozen from independent computations:
the Rodrigues formula evaluated symbolically, numpy's hermgauss rule coded
directly in the tests, and closed-form expansions worked out by hand.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss, hermval
from scipy.special import roots_hermite

import mehler.hermite as hermite_module
from mehler import (
    HermiteSeries,
    MultiIndex,
    NonFiniteValueError,
    PointwiseFunction,
    QuadratureConfig,
    SeriesFunction,
    as_function,
    enumerate_multi_indices,
    fourier_hermite_coeff,
    gauss_hermite_grid,
    generator_apply,
    hermite_deriv,
    hermite_eval,
    hermite_expand,
    project_chaos,
)
from mehler.catalog import catalog_entry
from mehler.experiments import _orthonormality_margin
from mehler.hermite import LogGrid, _hermite_rows, hermite_values_1d
from mehler.measure import gaussian_norm

SQRT2 = math.sqrt(2.0)


def normalizer(n: int) -> float:
    return math.sqrt(2.0**n * math.factorial(n))


# ---------------------------------------------------------------------------
# frozen scalar values
# ---------------------------------------------------------------------------


def test_h1_at_one_frozen():
    # sqrt(2) * 1, from H_1(x) = 2x and normalizer sqrt(2)
    assert hermite_eval((1,), 1.0) == pytest.approx(1.4142135623730951, abs=1e-14)


def test_h2_at_one_frozen():
    # H_2(1) = 2, normalizer sqrt(8)
    assert hermite_eval((2,), 1.0) == pytest.approx(0.7071067811865476, abs=1e-14)


def test_h4_at_zero_frozen():
    # H_4(0) = 12, normalizer sqrt(384)
    assert hermite_eval((4,), 0.0) == pytest.approx(12.0 / math.sqrt(384.0), abs=1e-14)


def test_tensor_value_factorizes():
    x = np.array([0.4, -1.1])
    v = hermite_eval((2, 1), x)
    assert v == pytest.approx(hermite_eval((2,), 0.4) * hermite_eval((1,), -1.1), rel=1e-14)


# ---------------------------------------------------------------------------
# recurrence vs independent oracles
# ---------------------------------------------------------------------------


def test_recurrence_matches_rodrigues_symbolic():
    """Rodrigues formula H_n = (-1)^n e^{x^2} d^n/dx^n e^{-x^2}, n <= 8."""
    xs = sp.symbols("x")
    grid = [-3.0, -1.3, -0.45, 0.2, 0.8, 1.7, 2.9]
    table = hermite_values_1d(8, np.array(grid))
    for n in range(9):
        expr = sp.expand((-1) ** n * sp.exp(xs**2) * sp.diff(sp.exp(-(xs**2)), xs, n))
        for j, xv in enumerate(grid):
            exact = float(expr.subs(xs, sp.Float(xv, 30))) / normalizer(n)
            assert table[n, j] == pytest.approx(exact, rel=1e-10, abs=1e-12)


@given(
    n=st.integers(min_value=0, max_value=10),
    x=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_recurrence_matches_hermval(n, x):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    exact = hermval(x, coeffs) / normalizer(n)
    got = hermite_eval((n,), x)
    assert got == pytest.approx(exact, rel=1e-11, abs=1e-11)


def test_derivative_identity_against_finite_differences():
    """d/dx_axis h_beta = sqrt(2 beta_axis) h_{beta - e_axis}, vs central FD."""
    rng = np.random.default_rng(5)
    step = 1e-5
    for beta in enumerate_multi_indices(2, 5):
        x = rng.uniform(-2.5, 2.5, size=2)
        for axis in range(2):
            up = hermite_eval(beta, x + step * np.eye(2)[axis])
            dn = hermite_eval(beta, x - step * np.eye(2)[axis])
            fd = (up - dn) / (2 * step)
            exact = hermite_deriv(beta, x, axis)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-5)


def test_derivative_at_zero_frozen():
    assert hermite_deriv((1,), 0.0, 0) == pytest.approx(SQRT2, abs=1e-14)
    assert hermite_deriv((0,), 1.3, 0) == 0.0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_count_d3_max4_frozen():
    assert len(enumerate_multi_indices(3, 4)) == 35


def test_enumeration_order_d2_max1_frozen():
    assert [b.entries for b in enumerate_multi_indices(2, 1)] == [(0, 0), (1, 0), (0, 1)]


@given(d=st.integers(1, 4), m=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_enumeration_is_graded_lex_and_complete(d, m):
    out = enumerate_multi_indices(d, m)
    assert len(out) == math.comb(d + m, d)
    assert len(set(out)) == len(out)
    assert out == sorted(out, key=lambda b: b.graded_key())
    assert all(b.degree <= m for b in out)


def test_enumeration_rejects_zero_dimension():
    with pytest.raises(ValueError):
        enumerate_multi_indices(0, 3)


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        MultiIndex((61,))
    with pytest.raises(ValueError):
        enumerate_multi_indices(1, 61)


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((-1, 2))
    with pytest.raises(ValueError):
        MultiIndex((1.5,))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_gh_rule_matches_mpmath(n):
    with mpmath.workdps(40):
        ref_x, ref_w = mpmath.gauss_quadrature(n, "hermite")
    ref_x, ref_w = np.array([float(v) for v in ref_x]), np.array([float(v) for v in ref_w])
    order = np.argsort(ref_x)
    ref_x, ref_w = ref_x[order], ref_w[order]
    x, w = hermite_module._gh_rule_1d(n)
    assert np.max(np.abs(x - ref_x)) <= 1e-14
    assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-13


@pytest.mark.parametrize("n", [128, 151, 256, 1024])
def test_gh_rule_matches_scipy(n):
    ref_x, ref_w = roots_hermite(n)
    x, w = hermite_module._gh_rule_1d(n)
    assert np.max(np.abs(x - ref_x)) <= 1e-13
    # weights below 1e-290 are subnormal or zero on either side
    big = ref_w > 1e-290
    assert np.array_equal(big, w > 1e-290)
    assert np.max(np.abs(w[big] / ref_w[big] - 1.0)) <= 2e-12


@pytest.mark.parametrize("n", [2, 5, 8, 16, 64, 128, 151, 256, 1024])
def test_gh_rule_is_symmetric_and_sums_to_sqrt_pi(n):
    x, w = hermite_module._gh_rule_1d(n)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - math.sqrt(math.pi)) <= 1e-14


def test_gamma_weights_normalized():
    for d in (1, 2, 3):
        pts, wts = gauss_hermite_grid(d, 16)
        assert wts.sum() == pytest.approx(1.0, abs=1e-13)
        # coordinate variance of gamma_d is 1/2
        assert np.dot(wts, pts[:, 0] ** 2) == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_is_coordinate_major_and_read_only(d):
    pts, wts = gauss_hermite_grid(d, 8)
    assert pts.flags.f_contiguous and pts.T.flags.c_contiguous
    assert not pts.flags.writeable and not wts.flags.writeable
    x, _ = roots_hermite(8)
    rows = np.stack([g.ravel() for g in np.meshgrid(*([x] * d), indexing="ij")], axis=1)
    assert np.array_equal(pts, rows)


def test_orthonormality_against_independent_rule():
    """Gram matrix via hermgauss coded here, not the package's node path."""
    x, w = hermgauss(48)
    wq = w / math.sqrt(math.pi)
    table = hermite_values_1d(6, x)
    gram = (table * wq) @ table.T
    assert np.max(np.abs(gram - np.eye(7))) < 1e-13


def test_orthonormality_d2():
    betas = enumerate_multi_indices(2, 4)
    pts, wts = gauss_hermite_grid(2, 32)
    vals = np.stack([hermite_eval(b, pts) for b in betas])
    gram = (vals * wts) @ vals.T
    assert np.max(np.abs(gram - np.eye(len(betas)))) < 1e-12


def per_beta_product(beta, pts):
    # one 1-d table per beta and axis, multiplied in place: the evaluation
    # the shared row generator replaced, kept as a bitwise oracle
    out = np.ones(pts.shape[0])
    for axis, deg in enumerate(beta):
        if deg:
            out *= hermite_values_1d(deg, pts[:, axis])[deg]
    return out


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_rows_are_the_per_beta_product(dimension):
    cfg = QuadratureConfig(gh_nodes=16)
    pts = np.random.default_rng(5).normal(scale=1.5, size=(40, dimension))
    betas = enumerate_multi_indices(dimension, 6)
    rows = list(_hermite_rows([(b, 1.0) for b in betas], pts))
    assert len(rows) == len(betas)
    for b, row in zip(betas, rows):
        want = per_beta_product(b, pts)
        assert np.array_equal(row, want)
        assert np.array_equal(hermite_eval(b, pts), want)
    f = catalog_entry("bump", dimension).rep
    nodes, wts = gauss_hermite_grid(dimension, cfg.gh_nodes)
    fvals = f.values(nodes)
    for b in betas:
        want = float(np.dot(wts, fvals * per_beta_product(b, nodes)))
        assert fourier_hermite_coeff(f, b, cfg) == want
    mat = np.array([per_beta_product(b, nodes) for b in betas])
    gram = (mat * wts[None, :]) @ mat.T
    want = float(np.max(np.abs(gram - np.eye(len(betas)))))
    assert _orthonormality_margin(dimension, 6, cfg) == want


def shifted_bump(dimension: int) -> PointwiseFunction:
    # off-centre, so no coefficient vanishes by symmetry
    centre = np.array([0.3, -0.2, 0.1][:dimension])
    return PointwiseFunction(dimension, lambda p: np.exp(-np.sum((p - centre) ** 2, axis=1)))


@pytest.mark.parametrize("budget", [7, 64, 4096])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_block_budget_does_not_change_integrals(monkeypatch, dimension, budget):
    # d = 3 takes a 16-node rule so that 7-point blocks stay cheap
    cfg = QuadratureConfig() if dimension < 3 else QuadratureConfig(gh_nodes=16)
    f = shifted_bump(dimension)
    betas = enumerate_multi_indices(dimension, 3)
    nodes, wts = gauss_hermite_grid(dimension, cfg.gh_nodes)
    fvals = f.values(nodes)
    coeffs = np.array([np.dot(wts, fvals * per_beta_product(b, nodes)) for b in betas])
    mat = np.array([per_beta_product(b, nodes) for b in enumerate_multi_indices(dimension, 6)])
    margin = float(np.max(np.abs((mat * wts[None, :]) @ mat.T - np.eye(mat.shape[0]))))
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", budget)
    for p in (1.0, 2.0, 3.0):
        want = float(np.dot(wts, np.abs(fvals) ** p) ** (1.0 / p))
        assert gaussian_norm(f, p, cfg) == pytest.approx(want, rel=1e-14, abs=0.0)
    got = [fourier_hermite_coeff(f, b, cfg) for b in betas]
    np.testing.assert_allclose(got, coeffs, rtol=1e-14, atol=0.0)
    expanded = hermite_expand(f, 3, cfg)
    assert list(expanded.coefficients) == betas
    np.testing.assert_allclose([expanded.coefficient(b) for b in betas], coeffs, rtol=1e-14, atol=0.0)
    layer = project_chaos(f, 2, cfg)
    assert layer.coefficients == {b: c for b, c in expanded.coefficients.items() if b.degree == 2}
    # the margins are rounding noise on unit Gram entries: compared in absolute terms
    assert abs(_orthonormality_margin(dimension, 6, cfg) - margin) <= 1e-14


# ---------------------------------------------------------------------------
# coefficients and projections
# ---------------------------------------------------------------------------


def coord_poly(power: int) -> PointwiseFunction:
    return PointwiseFunction(1, lambda p, k=power: p[:, 0] ** k)


def test_coeff_of_x_frozen():
    # integral of x * sqrt(2) x dgamma = sqrt(2)/2
    got = fourier_hermite_coeff(coord_poly(1), (1,))
    assert got == pytest.approx(0.7071067811865476, abs=1e-12)


def test_expansion_of_x_squared_frozen():
    s = hermite_expand(coord_poly(2), 4)
    coeffs = {b.entries: c for b, c in s.terms()}
    assert set(coeffs) == {(0,), (2,)}
    assert coeffs[(0,)] == pytest.approx(0.5, abs=1e-12)
    assert coeffs[(2,)] == pytest.approx(1.0 / SQRT2, abs=1e-12)


def test_expansion_of_x_cubed_frozen():
    # x^3 = (sqrt(3)/2) h_3 + (3 / (2 sqrt(2))) h_1, from H_3 = 8x^3 - 12x
    s = hermite_expand(coord_poly(3), 5)
    coeffs = {b.entries: c for b, c in s.terms()}
    assert set(coeffs) == {(1,), (3,)}
    assert coeffs[(3,)] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert coeffs[(1,)] == pytest.approx(3.0 / (2.0 * SQRT2), abs=1e-12)


def test_project_chaos_above_degree_is_empty():
    assert project_chaos(coord_poly(2), 3).coefficients == {}


def test_project_chaos_picks_out_layer():
    s = project_chaos(coord_poly(2), 2)
    coeffs = {b.entries: c for b, c in s.terms()}
    assert set(coeffs) == {(2,)}
    assert coeffs[(2,)] == pytest.approx(1.0 / SQRT2, abs=1e-12)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_project_chaos_is_the_layer_of_the_expansion(dimension):
    cfg = QuadratureConfig(gh_nodes=16)
    f = catalog_entry("bump", dimension).rep
    full = hermite_expand(f, 5, cfg)
    for n in range(6):
        layer = {b: c for b, c in full.coefficients.items() if b.degree == n}
        assert project_chaos(f, n, cfg).coefficients == layer
        assert project_chaos(full, n).coefficients == layer


def test_series_coefficient_read_back_exactly():
    s = HermiteSeries(2, {(1, 0): 0.25, (0, 2): -1.5})
    assert fourier_hermite_coeff(SeriesFunction(s), (1, 0)) == 0.25
    assert fourier_hermite_coeff(SeriesFunction(s), (2, 0)) == 0.0


def test_parseval_for_polynomial():
    f = coord_poly(3)
    s = hermite_expand(f, 3)
    energy = sum(c * c for _, c in s.terms())
    pts, wts = gauss_hermite_grid(1, 64)
    norm_sq = float(np.dot(wts, f.values(pts) ** 2))
    assert energy == pytest.approx(norm_sq, rel=1e-10)


def test_expansion_reproduces_polynomial_pointwise():
    rng = np.random.default_rng(11)
    f = PointwiseFunction(2, lambda p: p[:, 0] ** 2 * p[:, 1] - 3.0 * p[:, 1] + 0.5)
    s = hermite_expand(f, 3)
    pts = rng.uniform(-2, 2, size=(40, 2))
    assert np.max(np.abs(s.evaluate(pts) - f.values(pts))) < 1e-10


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_eigenrelation_series_route():
    rng = np.random.default_rng(3)
    for beta in enumerate_multi_indices(2, 5):
        pts = rng.uniform(-2.5, 2.5, size=(6, 2))
        s = HermiteSeries(2, {beta: 1.0})
        lhs = generator_apply(s, pts)
        rhs = -beta.degree * hermite_eval(beta, pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_generator_black_box_matches_series_route():
    f_series = HermiteSeries(1, {(0,): 0.5, (2,): 1.0 / SQRT2})  # this is x^2
    f_black = coord_poly(2)
    for xv in (-1.4, 0.0, 0.9, 2.2):
        exact = generator_apply(f_series, np.array([xv]))
        fd = generator_apply(f_black, np.array([xv]))
        # L x^2 = 1 - 2 x^2
        assert exact == pytest.approx(1 - 2 * xv * xv, abs=1e-12)
        assert fd == pytest.approx(exact, abs=1e-6)


# ---------------------------------------------------------------------------
# series algebra and representations
# ---------------------------------------------------------------------------


@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    x=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_series_evaluation_is_linear(a, b, x):
    s1 = HermiteSeries(1, {(1,): 1.0})
    s2 = HermiteSeries(1, {(2,): 1.0})
    combo = HermiteSeries(1, {(1,): a, (2,): b})
    lhs = combo.evaluate(x)
    rhs = a * s1.evaluate(x) + b * s2.evaluate(x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_series_drops_zero_coefficients():
    s = HermiteSeries(1, {(0,): 0.0, (1,): 2.0})
    assert [b.entries for b, _ in s.terms()] == [(1,)]


def test_series_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        HermiteSeries(1, {(0,): float("nan")})
    with pytest.raises(ValueError):
        HermiteSeries(2, {(1,): 1.0})  # wrong index dimension


def test_as_function_coercions():
    s = HermiteSeries(1, {(1,): 1.0})
    assert isinstance(as_function(s), SeriesFunction)
    g = as_function(lambda p: float(p[0]) ** 2, dimension=1)
    assert g(2.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        as_function(lambda p: p)  # callable without a dimension


def test_point_normalization_errors():
    with pytest.raises(ValueError):
        hermite_eval((1, 1), 0.5)  # scalar point for d=2
    with pytest.raises(ValueError):
        hermite_eval((1,), np.zeros((2, 2)))  # wrong width


def test_non_finite_integrand_reports_node():
    g = PointwiseFunction(1, lambda p: np.where(p[:, 0] > 0, np.inf, 1.0))
    with pytest.raises(NonFiniteValueError) as info:
        fourier_hermite_coeff(g, (0,))
    assert np.isfinite(info.value.node).all()


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(gh_nodes=1)
    with pytest.raises(ValueError):
        LogGrid(1, 1e-3, 1.0)
    with pytest.raises(ValueError):
        LogGrid(8, 2.0, 1.0)


@pytest.mark.parametrize("lo,hi", [(1e-4, math.inf), (1e-4, math.nan), (math.nan, 1.0)])
def test_log_grid_bounds_must_be_finite(lo, hi):
    # an infinite top gave the grid [1e-4, inf, inf, inf]: duplicate inf times
    # in ou_maximal and a radius grid that hl_maximal rejects
    with pytest.raises(ValueError, match="grid bounds must be finite"):
        LogGrid(4, lo, hi)
    with pytest.raises(ValueError, match="grid bounds must be finite"):
        QuadratureConfig(time_grid=LogGrid(4, lo, hi))


@pytest.mark.parametrize("value", [64.5, 8.0, True, "8"])
@pytest.mark.parametrize("name", ["gh_nodes", "ball_nodes", "cross_radial", "cross_angular"])
def test_quadrature_counts_must_be_integers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        QuadratureConfig(**{name: value})


@pytest.mark.parametrize("value", [8.5, 8.0, True])
def test_log_grid_count_must_be_an_integer(value):
    with pytest.raises(ValueError, match="count must be an integer"):
        LogGrid(value, 1e-3, 1.0)


def test_integer_counts_of_any_integer_type_pass():
    cfg = QuadratureConfig(gh_nodes=np.int64(16), cross_angular=np.int32(4))
    assert cfg.refined(2).gh_nodes == 32
    assert LogGrid(np.int64(9), 1e-3, 1.0).values().size == 9


def test_gauss_hermite_grid_scope():
    with pytest.raises(ValueError, match="d <= 3"):
        gauss_hermite_grid(4, 2)
    with pytest.raises(ValueError, match="d <= 3"):
        gauss_hermite_grid(0, 8)
    # d = 3 keeps the 40M-node cap: 341^3 is under it, 342^3 over
    with pytest.raises(ValueError, match="too large"):
        gauss_hermite_grid(3, 342)
