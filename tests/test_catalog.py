"""Catalog sanity: exact expansions, norm references, integrability ceilings."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mehler import QuadratureConfig
from mehler.catalog import TestFunction, catalog, catalog_entry
from mehler.measure import gaussian_norm

CFG = QuadratureConfig()


def test_names_unique_and_expected_members():
    for d in (1, 2, 3):
        table = catalog(d)
        for name in ("one", "x", "x2", "x3", "bump", "ball", "spike"):
            assert name in table
        assert "h_2" in catalog(1)
        assert "h_1-1" in catalog(2)


def test_hermite_entries_cover_degrees_up_to_four():
    table = catalog(1)
    for k in (1, 2, 3, 4):
        assert f"h_{k}" in table
    assert "h_5" not in table
    assert "h_0" not in table  # that's the constant entry


def test_monomials_evaluate_exactly():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(50, 1))
    assert np.allclose(catalog_entry("x", 1).rep.values(pts), pts[:, 0], atol=1e-13)
    assert np.allclose(catalog_entry("x2", 1).rep.values(pts), pts[:, 0] ** 2, atol=1e-13)
    assert np.allclose(catalog_entry("x3", 1).rep.values(pts), pts[:, 0] ** 3, atol=1e-12)


def test_monomials_use_first_coordinate_in_d2():
    pts = np.array([[0.5, 9.0], [-1.0, 3.0]])
    assert np.allclose(catalog_entry("x2", 2).rep.values(pts), [0.25, 1.0], atol=1e-13)


def test_every_entry_has_finite_l1_norm():
    for d in (1, 2, 3):
        for entry in catalog(d).values():
            norm1 = entry.norm(1.0)
            assert math.isfinite(norm1)
            assert norm1 > 0.0


def test_bump_norm_closed_form_against_quadrature():
    entry = catalog_entry("bump", 1)
    for p in (1.0, 2.0, 4.0):
        ref = entry.norm(p)
        quad_norm = gaussian_norm(entry.rep, p, CFG)
        assert quad_norm == pytest.approx(ref, rel=1e-10)


def test_ball_norm_is_mass_to_the_inverse_p():
    entry = catalog_entry("ball", 1)
    assert entry.norm(1.0) == pytest.approx(math.erf(1.0), rel=1e-14)
    assert entry.norm(2.0) == pytest.approx(math.sqrt(math.erf(1.0)), rel=1e-14)
    assert catalog_entry("ball", 2).norm(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_spike_leaves_lp_above_two():
    entry = catalog_entry("spike", 1)
    assert entry.max_p == 2.0
    assert math.isfinite(entry.norm(2.0))
    assert entry.norm(4.0) == math.inf


def test_spike_norm_reference_cross_check():
    # independent 1-d adaptive quadrature of the defining integral
    entry = catalog_entry("spike", 1)
    direct, _ = quad(
        lambda u: (1.0 + abs(u)) ** -2 * math.exp(-0.5 * u * u) / math.sqrt(math.pi),
        -math.inf,
        math.inf,
        epsabs=1e-13,
    )
    assert entry.norm(1.0) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spike_norm_matches_adaptive_quadrature(d):
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    for p in (1.0, 1.5, 2.0):
        val, _ = quad(
            lambda r: r ** (d - 1) * (1.0 + r) ** -(p * (d + 1)) * math.exp((p / 2.0 - 1.0) * r * r),
            0.0,
            math.inf,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=400,
        )
        ref = (surface / math.pi ** (d / 2.0) * val) ** (1.0 / p)
        assert catalog_entry("spike", d).norm(p) == pytest.approx(ref, rel=1e-13)


def test_spike_values_match_formula():
    entry = catalog_entry("spike", 2)
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    vals = entry.rep.values(pts)
    assert vals[0] == pytest.approx(1.0, rel=1e-14)
    r = math.sqrt(2.0)
    assert vals[1] == pytest.approx((1.0 + r) ** -3 * math.exp(1.0), rel=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_spike_squared_norm_taken_once_is_bitwise_the_two_pass_formula(d):
    p = np.random.default_rng(d).uniform(-3.0, 3.0, size=(500, d))
    two_pass = (1.0 + np.sqrt(np.sum(p * p, axis=1))) ** -(d + 1) * np.exp(
        0.5 * np.sum(p * p, axis=1)
    )
    assert np.array_equal(catalog_entry("spike", d).rep.values(p), two_pass)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pointwise_entries_do_not_depend_on_memory_layout(d):
    # the quadrature routes hand f Fortran-ordered (n, d) blocks
    rng = np.random.default_rng(10 + d)
    block = np.asfortranarray(np.vstack([rng.uniform(-2.0, 2.0, size=(400, d)), np.eye(d)]))
    assert block.flags.f_contiguous and (d == 1 or not block.flags.c_contiguous)
    for name in ("bump", "ball", "spike"):
        rep = catalog_entry(name, d).rep
        assert np.array_equal(rep.values(block), rep.values(np.ascontiguousarray(block))), name


def test_tags_and_nonnegativity():
    assert "polynomial" in catalog_entry("x3", 1).class_tags
    assert "bounded-continuous" in catalog_entry("bump", 1).class_tags
    assert "indicator" in catalog_entry("ball", 1).class_tags
    assert "L1-only" in catalog_entry("spike", 1).class_tags
    for name in ("one", "x2", "bump", "ball", "spike"):
        assert catalog_entry(name, 1).nonnegative
    assert not catalog_entry("h_1", 1).nonnegative


def test_lookup_errors():
    with pytest.raises(KeyError):
        catalog_entry("missing", 1)
    with pytest.raises(ValueError):
        catalog(4)
    with pytest.raises(ValueError):
        TestFunction(
            name="bad",
            rep=catalog_entry("one", 1).rep,
            class_tags=frozenset({"mystery"}),
        )
