"""The tilted Gauss-Hermite rule of the cone cross-sections, and nested refinement.

A cone supremum takes f once per folded mixture row and reweights those
values per cell (`mehler.ou._section_values`). The oracles here:
  * the shifted per-cell rule `_mixture_values`, which every cell used before;
  * the closed forms of `perfbench/oracles.py` for the unit-ball indicator;
  * a 200-node shifted rule for the spike, which has no closed form.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import mehler.hermite as hermite_module
import mehler.ou as ou_module
from mehler import PointwiseFunction, QuadratureConfig, catalog_entry
from mehler.cones import ConeSpec, _cone_grid
from mehler.hermite import LogGrid
from mehler.measure import hl_maximal
from mehler.ou import (
    OU,
    _TILT_CAP,
    _folded_rows,
    _mixture_values,
    _section_values,
    _tilted_integrals,
    nontangential_maximal,
    ou_maximal,
)
from mehler.poisson import POISSON

CFG = QuadratureConfig()

_ORACLES_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracles", _ORACLES_PATH)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

APEXES = {1: (0.5,), 2: (0.3, -0.2), 3: (0.4, 0.1, -0.3)}
# (semigroup, cone, times): two OU cross-sections, and one Poisson time small
# enough that its rows' tilts spread across [0, _TILT_CAP] and beyond
SEMIGROUPS = {
    "ou": (OU, "truncated-parabolic", (1e-3, 0.05)),
    "poisson": (POISSON, "gaussian", (0.05,)),
}


def section(sg, kind: str, apex, t: float, cfg=CFG):
    """(apex, cells, folded rows) of the cross-section of the cone at time t."""
    xa = np.asarray(apex, dtype=float)
    pts = _cone_grid(ConeSpec(tuple(apex), kind), cfg, (t,))[1][0]
    return xa, pts, _folded_rows(*sg.mixture(t))


def counted(f):
    # f, plus the number of points of every block it is handed
    sizes = []

    def evaluator(p):
        sizes.append(p.shape[0])
        return f.values(p)

    return PointwiseFunction(f.dimension, evaluator, vectorized=True, name=f.name), sizes


# ---------------------------------------------------------------------------
# every cell against the shifted per-cell rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semigroup", sorted(SEMIGROUPS))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_bump_cells_match_the_shifted_rule(semigroup, dimension):
    # the Poisson mixture has ~150 rows: in d = 3 the shifted oracle takes a
    # 24-node rule, so that it stays cheap; the OU row keeps the default 64
    sg, kind, times = SEMIGROUPS[semigroup]
    cfg = CFG if semigroup == "ou" or dimension < 3 else QuadratureConfig(gh_nodes=24)
    f = catalog_entry("bump", dimension).rep
    for t in times:
        xa, pts, rows = section(sg, kind, APEXES[dimension], t, cfg)
        tilted = _section_values(f, xa, pts, rows, cfg)
        shifted = _mixture_values(f, pts, rows, cfg)
        np.testing.assert_allclose(tilted, shifted, rtol=0.0, atol=1e-14, err_msg=str(t))


def tilted_integrals(semigroup: str, apex):
    """(apex, cells, r, s) of mixture rows whose every cell takes the tilted rule.

    OU: the one row of each section of the truncated cone's default ladder
    (every 8th section in d = 3). P_t: four rows of the section at t = 0.05,
    whose largest tilts sit near 0.25, 0.75, 1.5 and just below _TILT_CAP.
    """
    dimension = len(apex)
    if semigroup == "ou":
        times = _cone_grid(ConeSpec(apex, "truncated-parabolic"), CFG)[0]
        for t in times[:: 8 if dimension == 3 else 1]:
            xa, pts, (r, s, _) = section(OU, "truncated-parabolic", apex, t)
            yield xa, pts, r[0], s[0]
        return
    xa, pts, (r, s, _) = section(POISSON, "gaussian", apex, 0.05)
    reach = (r / s) * np.max(np.linalg.norm(pts - xa, axis=1))
    below = np.where(reach < _TILT_CAP, reach, np.inf)
    for target in (0.25, 0.75, 1.5, _TILT_CAP):
        k = int(np.argmin(np.abs(below - target)))
        assert abs(reach[k] - target) < 0.1
        yield xa, pts, r[k], s[k]


def reference(name: str, pts: np.ndarray, r: float, s: float) -> np.ndarray:
    """The unweighted integral of one row at each point: closed form, or 200 nodes."""
    if name == "ball":
        return oracles.ou_ball(pts, -math.log(r))
    row = (np.array([r]), np.array([s]), np.ones(1))
    return _mixture_values(catalog_entry(name, pts.shape[1]).rep, pts, row,
                           QuadratureConfig(gh_nodes=200))


def worst_errors(semigroup: str, name: str, apex):
    # per (row, cell) integral, unweighted: the worst error of the tilted
    # and of the shifted rule against the reference. An indicator's error at
    # one cell depends on where the nodes fall against the rim, so single
    # cells are not compared. In d = 3 the 200-node spike reference (8M
    # points a cell) is taken at the apex and at two cells of the outer
    # ring, where the tilt is largest.
    dimension = len(apex)
    f = catalog_entry(name, dimension).rep
    worst_tilted = worst_shifted = 0.0
    for xa, pts, r, s in tilted_integrals(semigroup, apex):
        if name == "spike" and dimension == 3:
            pts = pts[np.argsort(np.linalg.norm(pts - xa, axis=1))[[0, -1, -2]]]
        want = reference(name, pts, r, s)
        tilted = _tilted_integrals(f, r * xa, s, (r / s) * (pts - xa), CFG)
        shifted = _mixture_values(f, pts, (np.array([r]), np.array([s]), np.ones(1)), CFG)
        worst_tilted = max(worst_tilted, float(np.max(np.abs(tilted - want))))
        worst_shifted = max(worst_shifted, float(np.max(np.abs(shifted - want))))
    return worst_tilted, worst_shifted


@pytest.mark.parametrize("semigroup", sorted(SEMIGROUPS))
@pytest.mark.parametrize("name", ["ball", "spike"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_non_smooth_cells_are_no_worse_than_the_shifted_rule(semigroup, name, dimension):
    # over all pairs, the tilted rule's worst error is within 1.25x the
    # shifted rule's, plus rounding
    worst_tilted, worst_shifted = worst_errors(semigroup, name, APEXES[dimension])
    assert worst_tilted <= 1.25 * worst_shifted + 1e-14, (worst_tilted, worst_shifted)


@pytest.mark.parametrize("semigroup", sorted(SEMIGROUPS))
@pytest.mark.parametrize("name", ["ball", "spike"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_cells_at_the_kink_are_no_worse_than_the_shifted_rule(semigroup, name, dimension):
    # the same bound with the apex on the non-smooth set, where the nodes of
    # both rules meet it: the ball's rim |x| = 1, the spike's kink at 0
    apex = (float(name == "ball"),) + (0.0,) * (dimension - 1)
    worst_tilted, worst_shifted = worst_errors(semigroup, name, apex)
    assert worst_tilted <= 1.25 * worst_shifted + 1e-14, (worst_tilted, worst_shifted)


# ---------------------------------------------------------------------------
# the per-cell fallback
# ---------------------------------------------------------------------------


def test_poisson_section_straddles_the_tilt_cap():
    # at t = 1e-3 the gaussian cone's rows tilt up to ~8.5 at the rim: pairs
    # at or above _TILT_CAP take the shifted rule, each on its own n^d nodes
    f, sizes = counted(catalog_entry("bump", 2).rep)
    xa, pts, rows = section(POISSON, "gaussian", APEXES[2], 1e-3)
    r, s, _ = rows
    tilt = (r / s)[:, None] * np.linalg.norm(pts - xa, axis=1)[None, :]
    far = tilt >= _TILT_CAP
    straddling = far.any(axis=1) & ~far.all(axis=1)
    assert straddling.sum() > 10 and (~far).any(axis=1).all()
    sizes.clear()
    values = _section_values(f, xa, pts, rows, CFG)
    assert sum(sizes) == (r.size + int(far.sum())) * CFG.gh_nodes**2
    np.testing.assert_allclose(values, _mixture_values(f, pts, rows, CFG), rtol=0.0, atol=1e-14)
    # a cell's rule does not depend on the other cells of its section, and
    # its value only in the rounding of the contraction they share
    for i in (0, pts.shape[0] // 2, pts.shape[0] - 1):
        alone = _section_values(f, xa, pts[i : i + 1], rows, CFG)[0]
        assert alone == pytest.approx(values[i], rel=1e-14, abs=0.0)


def test_rows_whose_scale_underflows_take_the_shifted_rule():
    # at t = 1e-170 every OU time t^2/4u of P_t underflows to 0, so s = 0:
    # no cell is tilted, none divides by s, and each cell is f(y) to rounding
    f = catalog_entry("bump", 1).rep
    xa, pts, rows = section(POISSON, "gaussian", APEXES[1], 1e-170)
    assert np.all(rows[1] == 0.0)
    with np.errstate(all="raise"):
        values = _section_values(f, xa, pts, rows, CFG)
    np.testing.assert_allclose(values, f.values(pts), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["parabolic-gaussian", "truncated-parabolic"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_no_ou_cone_cell_falls_back(monkeypatch, kind, dimension):
    # |delta| = e^{-t}|y - x| / sqrt(1 - e^{-2t}) < 1/sqrt(2) <= _TILT_CAP on
    # both OU cones, so a cone supremum never reaches the shifted rule; the
    # fallback does not depend on the rule, so a 4-node one keeps this cheap
    def shifted(*args):
        raise AssertionError("an OU cone cell took the shifted rule")

    monkeypatch.setattr(ou_module, "_mixture_values", shifted)
    assert _TILT_CAP >= 1.0 / math.sqrt(2.0)
    cfg = QuadratureConfig(gh_nodes=4)
    f = catalog_entry("bump", dimension).rep
    rng = np.random.default_rng(dimension)
    for norm in (0.0, 0.5, 1.0, 2.0, 5.0):
        u = rng.normal(size=dimension)
        apex = norm * u / np.linalg.norm(u)
        assert nontangential_maximal(f, apex, kind, cfg).grid_size > 0


# ---------------------------------------------------------------------------
# blocks that straddle leading-axis slices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension,nodes", [(2, 150), (3, 70)])
def test_blocks_straddling_slices(monkeypatch, dimension, nodes):
    # 2^14 is not a multiple of 150 or 70^2, so blocks start and end inside
    # a leading-axis slice; the result matches one whole-rule block and the
    # shifted rule
    assert hermite_module._BLOCK_POINTS % nodes ** (dimension - 1) != 0
    cfg = QuadratureConfig(gh_nodes=nodes)
    f, sizes = counted(catalog_entry("bump", dimension).rep)
    xa, pts, rows = section(OU, "truncated-parabolic", APEXES[dimension], 0.05, cfg)
    sizes.clear()
    split = _section_values(f, xa, pts, rows, cfg)
    assert len(sizes) > 1 and max(sizes) <= hermite_module._BLOCK_POINTS
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", 1 << 22)
    whole = _section_values(f, xa, pts, rows, cfg)
    np.testing.assert_allclose(split, whole, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(split, _mixture_values(f, pts, rows, cfg), rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# nested refinement
# ---------------------------------------------------------------------------


def test_refined_ladders_contain_the_default_ones():
    for grid in (CFG.time_grid, CFG.radius_grid, LogGrid(5, 0.1, 2.0)):
        fine = grid.refined(3)
        assert fine.count == (grid.count - 1) * 3 + 1
        np.testing.assert_allclose(fine.values()[::3], grid.values(), rtol=1e-14, atol=0.0)
    fine_cfg = CFG.refined(2)
    for kind in ("parabolic-gaussian", "truncated-parabolic"):
        spec = ConeSpec((1.5, 1.5), kind)
        coarse = _cone_grid(spec, CFG)[0]
        fine = _cone_grid(spec, fine_cfg)[0]
        np.testing.assert_allclose(fine[::2], coarse, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("dimension", [1, 2])
def test_bump_suprema_do_not_fall_under_refinement(dimension):
    # refined(2) keeps every default time and radius and, in d <= 2, every
    # cone cell; bump's Gauss-Hermite values and polar ball averages are
    # exact to rounding at the default and refined rules
    f = catalog_entry("bump", dimension).rep
    x = np.full(dimension, 1.5)
    fine_cfg = CFG.refined(2)
    suprema = {
        "time": lambda cfg: ou_maximal(f, x, cfg),
        "parabolic-gaussian": lambda cfg: nontangential_maximal(f, x, "parabolic-gaussian", cfg),
        "truncated-parabolic": lambda cfg: nontangential_maximal(f, x, "truncated-parabolic", cfg),
        "ball": lambda cfg: hl_maximal(f, x, cfg),
    }
    for name, sup in suprema.items():
        coarse, fine = sup(CFG), sup(fine_cfg)
        assert fine.grid_size > coarse.grid_size, name
        assert fine.value >= coarse.value - 1e-14, (name, coarse.value, fine.value)
