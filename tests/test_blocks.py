"""The one f-pass walker, `hermite._gh_blocks`, against the packing loops it replaced.

Each reference below is a caller's own packing loop as it stood before the
walker packed for every caller: the Gauss-Hermite node slices of
`_node_blocks`, the (row, point) anchor groups of `ou._mixture_values` and
the (radius, direction) blocks of `measure._ball_profile`. The walker must
reproduce their f-calls and their values bit for bit, at any block budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import mehler.hermite as hermite_module
from mehler import QuadratureConfig, catalog_entry
from mehler.experiments import _orthonormality_margin
from mehler.hermite import _hermite_rows, _require_finite, enumerate_multi_indices
from mehler.measure import _ball_profile, _panel_points, _sphere_rule
from mehler.ou import _folded_rows, _mixture_values

CFG = QuadratureConfig()
CONFIGS = {"default": CFG, "refined": CFG.refined(2)}


def reference_node_blocks(dimension, cfg):
    nodes, wts = hermite_module.gauss_hermite_grid(dimension, cfg.gh_nodes)
    block = hermite_module._BLOCK_POINTS
    for lo in range(0, wts.size, block):
        yield nodes[lo : lo + block], wts[lo : lo + block]


def reference_anchor_blocks(values, centres, scales, dimension, cfg, what):
    for nodes, wts in reference_node_blocks(dimension, cfg):
        pts = centres.T[:, :, None] + scales[None, :, None] * nodes.T[:, None, :]
        pts = pts.reshape(dimension, -1).T
        vals = values(pts)
        _require_finite(vals, pts, what)
        yield pts, vals.reshape(scales.size, -1), wts


def reference_mixture_values(f, points, rows, cfg):
    d = f.dimension
    r, s, w = rows
    n_points = points.shape[0]
    rows_per_block = max(1, hermite_module._BLOCK_POINTS // cfg.gh_nodes**d)
    n_rows = r.size * n_points
    acc = np.zeros(n_points)
    for start in range(0, n_rows, rows_per_block):
        k, p = np.divmod(np.arange(start, min(start + rows_per_block, n_rows)), n_points)
        blocks = reference_anchor_blocks(f.values, r[k, None] * points[p], s[k], d, cfg,
                                         "semigroup integrand")
        row_vals = np.zeros(k.size)
        for _, vals, wts in blocks:
            row_vals += np.vecdot(vals, wts)
        np.add.at(acc, p, w[k] * row_vals)
    return acc


def reference_ball_profile(values, center, radii, cfg):
    d = center.size
    dirs, sw = _sphere_rule(d, cfg.ball_nodes)
    dirs = dirs.T
    order = max(1, cfg.ball_nodes // 8)
    ladder = cfg.radius_grid.values()
    ratio = ladder[-1] / ladder[-2]
    extra = max(0, math.ceil(math.log(radii.max() / ladder[-1], ratio)))
    edges = np.concatenate([[0.0], ladder, ladder[-1] * ratio ** np.arange(1, extra + 1)])
    k = np.searchsorted(edges, radii, side="right") - 1
    off = edges[k] != radii
    n_ladder = int(k.max())
    lo = np.concatenate([edges[:n_ladder], edges[k[off]]])
    hi = np.concatenate([edges[1 : n_ladder + 1], radii[off]])
    rho, rw = _panel_points(lo, hi, order)
    rw = rw * rho ** (d - 1)
    block = hermite_module._BLOCK_POINTS
    rows_per_block = max(1, block // sw.size)
    sums = np.zeros((2, rho.size))
    for start in range(0, rho.size, rows_per_block):
        rows = slice(start, start + rows_per_block)
        for first in range(0, sw.size, block):
            u, w = dirs[:, first : first + block], sw[first : first + block]
            buf = (center[:, None, None] + rho[None, rows, None] * u[:, None, :]).reshape(d, -1)
            g = np.exp(-np.sum(buf * buf, axis=0)).reshape(-1, w.size) * w
            sums[1, rows] += g.sum(axis=1)
            if values is not None:
                pts = buf.T
                vals = values(pts)
                _require_finite(vals, pts, "integrand")
                sums[0, rows] += (g * np.abs(vals).reshape(g.shape)).sum(axis=1)
    panels = (rw * sums).reshape(2, -1, order).sum(axis=2)
    out = np.concatenate([np.zeros((2, 1)), np.cumsum(panels[:, :n_ladder], axis=1)], axis=1)[:, k]
    out[:, off] += panels[:, n_ladder:]
    return out


def reference_orthonormality_margin(dimension, max_degree, cfg):
    terms = [(b, 1.0) for b in enumerate_multi_indices(dimension, max_degree)]
    gram = np.zeros((len(terms), len(terms)))
    for nodes, wts in reference_node_blocks(dimension, cfg):
        mat = np.array(list(_hermite_rows(terms, nodes)))
        gram += (mat * wts[None, :]) @ mat.T
    return float(np.max(np.abs(gram - np.eye(len(terms)))))


def counted(f):
    """f.values, recording the shape of every block it is called on."""
    shapes = []

    def values(pts):
        shapes.append(pts.shape)
        return f.values(pts)

    return values, shapes


# the smallest budgets split d = 3 rules into tens of thousands of calls
# (and refined d = 3 rules into hundreds of thousands), so they run in d <= 2
CASES = [
    (d, name, budget)
    for d in (1, 2, 3)
    for name in CONFIGS
    for budget in (7, 64, 1 << 14)
    if d < 3 or budget == 1 << 14 or (name == "default" and budget == 64)
]


@pytest.mark.parametrize("dimension,config,budget", CASES)
def test_mixture_values_match_the_packing_loop(monkeypatch, dimension, config, budget):
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", budget)
    cfg = CONFIGS[config]
    f = catalog_entry("ball", dimension).rep
    points = np.random.default_rng(dimension).uniform(-0.8, 0.8, size=(3, dimension))
    rows = _folded_rows((0.05, 0.7, math.inf), (0.25, 0.5, 0.25))
    values, shapes = counted(f)
    got = _mixture_values(type(f)(dimension, values), points, rows, cfg)
    want_values, want_shapes = counted(f)
    want = reference_mixture_values(type(f)(dimension, want_values), points, rows, cfg)
    assert np.array_equal(got, want)
    assert shapes == want_shapes


@pytest.mark.parametrize("dimension,config,budget", CASES)
def test_ball_profile_matches_the_packing_loop(monkeypatch, dimension, config, budget):
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", budget)
    cfg = CONFIGS[config]
    f = catalog_entry("bump", dimension).rep
    center = np.linspace(0.4, -0.3, dimension)
    # ladder points, radii between them and one past the ladder's top
    radii = np.concatenate([cfg.radius_grid.values()[::9], [0.3, 2.5, 30.0]])
    radii.sort()
    values, shapes = counted(f)
    got = _ball_profile(values, center, radii, cfg)
    want_values, want_shapes = counted(f)
    want = reference_ball_profile(want_values, center, radii, cfg)
    assert np.array_equal(got, want)
    assert shapes == want_shapes
    assert np.array_equal(_ball_profile(None, center, radii, cfg)[1], want[1])


@pytest.mark.parametrize("dimension,config,budget", CASES)
def test_gram_matrix_matches_the_node_slices(monkeypatch, dimension, config, budget):
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", budget)
    cfg = CONFIGS[config]
    assert _orthonormality_margin(dimension, 3, cfg) == \
        reference_orthonormality_margin(dimension, 3, cfg)
