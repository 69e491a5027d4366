"""Oracle tests for the Ornstein-Uhlenbeck semigroup.

Independent references used here:
  * eigenfunction decay e^{-t|beta|} applied to frozen Hermite values
  * the closed form T_t[e^{-u^2}](x) = e^{-r^2 x^2/(2-r^2)} / sqrt(2-r^2)
    with r = e^{-t}, worked out by completing the square
  * dense brute-force grids for the cone suprema
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mehler
import mehler.hermite as hermite_module
import mehler.ou as ou_module
from mehler import (
    HermiteSeries,
    NonFiniteValueError,
    PointwiseFunction,
    QuadratureConfig,
    catalog_entry,
    fourier_hermite_coeff,
    gauss_hermite_grid,
    hermite_eval,
    hermite_expand,
    project_chaos,
)
from mehler.cli import build_parser
from mehler.cones import ConeSpec, _cross_fractions, _directions
from mehler.experiments import SEMIGROUPS
from mehler.ou import (
    OU,
    OU_ROUTES,
    _mixture_values,
    _row_table,
    _time_rows,
    maximal_bound_report,
    nontangential_maximal,
    ou_apply,
    ou_apply_change_of_var,
    ou_apply_kernel,
    ou_apply_spectral,
    ou_maximal,
    ou_transform,
)
from mehler.measure import gaussian_norm, hl_maximal
from mehler.poisson import (
    POISSON,
    POISSON_ROUTES,
    _subordinated_times,
    poisson_apply,
    poisson_apply_kernel,
    poisson_apply_spectral,
    poisson_apply_subordination,
    poisson_maximal,
    poisson_nontangential_maximal,
    poisson_transform,
)

CFG = QuadratureConfig()

ONE = HermiteSeries(1, {(0,): 1.0})
H1 = HermiteSeries(1, {(1,): 1.0})
H2 = HermiteSeries(1, {(2,): 1.0})


def bump(dimension: int = 1) -> PointwiseFunction:
    return PointwiseFunction(
        dimension,
        lambda p: np.exp(-np.sum(p * p, axis=1)),
        name="bump",
    )


def mixture(f, points, times, weights, cfg) -> np.ndarray:
    # sum_k w_k T_{t_k} f at each point, on the folded rows of (times, weights)
    return _mixture_values(f, points, _row_table([_time_rows(times, weights)]), cfg)


def bump_transform_exact(x: float, t: float) -> float:
    # T_t[e^{-u^2}](x), d = 1, by completing the square
    r2 = math.exp(-2.0 * t)
    return math.exp(-r2 * x * x / (2.0 - r2)) / math.sqrt(2.0 - r2)


# ---------------------------------------------------------------------------
# pointwise evaluations
# ---------------------------------------------------------------------------


def test_markov_property_kernel_route():
    f = PointwiseFunction(1, lambda p: np.ones(p.shape[0]))
    for t in (1e-4, 0.03, 0.5, 2.0, 10.0):
        for x in (-4.0, 0.0, 1.7, 4.0):
            assert abs(ou_apply_kernel(f, x, t, CFG) - 1.0) <= 1e-10


def test_markov_property_d2():
    f = PointwiseFunction(2, lambda p: np.ones(p.shape[0]))
    for t in (1e-3, 1.0):
        assert abs(ou_apply_kernel(f, (2.0, -2.0), t, CFG) - 1.0) <= 1e-10


def test_spectral_identity_oracle_h2():
    # T_{1/2} h_2(1) = e^{-1} h_2(1) = 0.26013004...
    want = math.exp(-1.0) * hermite_eval((2,), 1.0)
    assert ou_apply_kernel(H2, 1.0, 0.5, CFG) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(0.2601300475114445, abs=1e-12)


def test_long_time_limit_is_the_mean():
    f = PointwiseFunction(1, lambda p: p[:, 0], name="x")
    assert ou_apply_change_of_var(f, 1.3, math.inf, CFG) == pytest.approx(0.0, abs=1e-12)
    assert ou_apply_kernel(bump(), -0.4, math.inf, CFG) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-12
    )


def test_bump_closed_form_oracle():
    f = bump()
    for t in (0.05, 0.3, 1.0, 3.0):
        for x in (0.0, 0.7, -1.2, 2.5):
            want = bump_transform_exact(x, t)
            assert ou_apply_kernel(f, x, t, CFG) == pytest.approx(want, abs=1e-10)
            assert ou_apply_change_of_var(f, x, t, CFG) == pytest.approx(want, abs=1e-10)


def test_spectral_identity_at_zero_time():
    s = HermiteSeries(1, {(0,): 0.3, (1,): -1.1, (3,): 0.25})
    for x in (-1.0, 0.2, 2.0):
        assert ou_apply_spectral(s, x, 0.0) == pytest.approx(s.evaluate(x), rel=1e-14)


def test_eigen_decay_is_exact():
    for beta, x in (((2,), 1.0), ((3,), 0.7), ((1,), -2.0)):
        base = hermite_eval(beta, x)
        assert base != 0.0
        got = ou_apply_spectral(HermiteSeries(1, {beta: 1.0}), x, 0.8)
        assert got / base == pytest.approx(math.exp(-0.8 * sum(beta)), rel=1e-14)


def test_spectral_handles_infinite_time():
    s = HermiteSeries(1, {(0,): 2.0, (4,): 5.0})
    assert ou_apply_spectral(s, 0.3, math.inf) == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------


def test_routes_agree_on_series():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        from mehler import enumerate_multi_indices

        idx = enumerate_multi_indices(d, 6)
        coeffs = {b.entries: float(c) for b, c in zip(idx, rng.normal(size=len(idx)))}
        s = HermiteSeries(d, coeffs)
        x = rng.uniform(-1.5, 1.5, size=d)
        for t in (0.1, 1.0):
            spectral = ou_apply_spectral(s, x, t)
            kernel = ou_apply_kernel(s, x, t, CFG)
            change = ou_apply_change_of_var(s, x, t, CFG)
            assert kernel == pytest.approx(spectral, abs=1e-8)
            assert change == pytest.approx(spectral, abs=1e-8)


def test_dispatch_and_evaluation_record():
    assert ou_apply(H2, 1.0, 0.5) == pytest.approx(ou_apply_spectral(H2, 1.0, 0.5), rel=1e-14)
    # auto picks change_of_var for a black box
    assert ou_apply(bump(), 0.5, 0.25, cfg=CFG) == ou_apply_change_of_var(bump(), 0.5, 0.25, CFG)


def test_route_validation():
    with pytest.raises(ValueError):
        ou_apply_kernel(H2, 0.0, 0.0, CFG)
    with pytest.raises(ValueError):
        ou_apply_change_of_var(bump(), 0.0, -1.0, CFG)
    with pytest.raises(TypeError):
        ou_apply_spectral(bump(), 0.0, 1.0)
    with pytest.raises(ValueError):
        ou_apply(H2, 0.0, 1.0, route="secret")
    with pytest.raises(ValueError, match="unknown route 'kernel'"):
        ou_apply(bump(), 0.0, 1.0, route="kernel", cfg=CFG)


# the public function of each route, per semigroup table
ROUTE_FUNCTIONS = {
    "ou": {"change_of_var": ou_apply_change_of_var, "spectral": ou_apply_spectral},
    "poisson": {
        "subordination": poisson_apply_subordination,
        "kernel": poisson_apply_kernel,
        "spectral": poisson_apply_spectral,
    },
}


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_route_functions_are_the_semigroup_table(name):
    sg, functions = SEMIGROUPS[name], ROUTE_FUNCTIONS[name]
    routes = {"ou": OU_ROUTES, "poisson": POISSON_ROUTES}[name]
    assert routes == (*sg.routes, "spectral") == tuple(functions)
    choices = build_parser().commands[f"{name}-apply"]._option_string_actions["--route"].choices
    assert tuple(c for c in choices if c != "auto") == routes
    for route, call in functions.items():
        if route == "spectral":
            assert call(H2, 0.4, 0.7) == sg.apply(H2, 0.4, 0.7, route)
            continue
        for f, x in ((H2, 0.4), (bump(2), (0.3, -0.2))):
            assert call(f, x, 0.7, CFG) == sg.apply(f, x, 0.7, route, CFG)
    want = OU.apply(bump(), 0.4, 0.7, "change_of_var", CFG)
    assert ou_apply_kernel(bump(), 0.4, 0.7, CFG) == want
    # t = inf is one gamma-mean row, the same for every quadrature route
    for f in (bump(), H2):
        means = [s.apply(f, 0.4, math.inf, r, CFG) for s in (OU, POISSON) for r in s.routes]
        assert means == [means[0]] * 3


def test_cone_kinds_are_the_semigroup_table():
    assert set(SEMIGROUPS.values()) == {OU, POISSON}
    assert OU.cones == ("parabolic-gaussian", "truncated-parabolic")
    assert POISSON.cones == ("gaussian",)
    with pytest.raises(ValueError, match=r"kind must be one of \('gaussian',\)"):
        POISSON.maximal(H2, 0.5, cone="truncated-parabolic")
    with pytest.raises(ValueError, match="got 'gaussian'"):
        nontangential_maximal(H2, 0.5, "gaussian")


@pytest.mark.parametrize("call", [ou_apply, poisson_apply])
@pytest.mark.parametrize("f", [ONE, H2])
def test_spectral_apply_rejects_nan_time(call, f):
    with pytest.raises(ValueError, match="time must be nonnegative, got nan"):
        call(f, 0.3, math.nan)


@pytest.mark.parametrize("transform", [ou_transform, poisson_transform])
def test_spectral_transform_rejects_nan_time(transform):
    with pytest.raises(ValueError, match="time must be nonnegative, got nan"):
        transform(H2, math.nan)


# the kernel integral is the change_of_var integral: one quadrature, so the
# two names agree bitwise (d = 3 at 16 nodes keeps the test small)
KERNEL_NODES = {1: 64, 2: 64, 3: 16}


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("name", ["bump", "ball", "spike"])
def test_kernel_is_the_change_of_var_integral(name, dimension):
    cfg = QuadratureConfig(gh_nodes=KERNEL_NODES[dimension])
    f = catalog_entry(name, dimension).rep
    x = np.linspace(0.3, -0.2, dimension)
    for t in (1e-4, 0.5, math.inf):
        assert ou_apply_kernel(f, x, t, cfg) == ou_apply_change_of_var(f, x, t, cfg)


# ---------------------------------------------------------------------------
# semigroup structure
# ---------------------------------------------------------------------------


def test_semigroup_law_spectral_exact():
    s = HermiteSeries(1, {(0,): 1.0, (2,): -0.7, (5,): 0.4})
    for x in (-1.0, 0.5):
        direct = ou_apply_spectral(s, x, 1.1)
        composed = ou_apply_spectral(ou_transform(ou_transform(s, 0.4), 0.7), x, 0.0)
        assert composed == pytest.approx(direct, rel=1e-13)


def test_semigroup_law_kernel_quadrature():
    f = bump()
    t, s = 0.35, 0.6
    inner = ou_transform(f, s, CFG)
    for x in (0.0, 1.2):
        direct = ou_apply_kernel(f, x, t + s, CFG)
        composed = ou_apply_kernel(inner, x, t, CFG)
        assert composed == pytest.approx(direct, abs=1e-7)


def test_contraction_in_lp_sample():
    s = HermiteSeries(1, {(0,): 0.5, (2,): 1.0})
    for p in (1.0, 2.0, 4.0):
        base = gaussian_norm(s, p, CFG)
        for t in (0.2, 1.0, 5.0):
            moved = gaussian_norm(ou_transform(s, t), p, CFG)
            assert moved <= base * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------


def test_maximal_of_constant_is_exactly_one():
    est = ou_maximal(ONE, 0.7, CFG)
    assert est.value == 1.0
    assert est.grid_size == CFG.time_grid.count + 1


def test_maximal_of_h2_attained_at_smallest_time():
    est = ou_maximal(H2, 1.0, CFG)
    assert est.argmax == CFG.time_grid.lo
    assert est.value == pytest.approx(abs(hermite_eval((2,), 1.0)), rel=3e-4)


def test_maximal_of_indicator_refined_grid_oracle():
    f = PointwiseFunction(1, lambda p: (np.abs(p[:, 0]) <= 1.0).astype(float))
    est = ou_maximal(f, 0.0, CFG)
    assert math.erf(1.0) < est.value <= 1.0
    fine = ou_maximal(f, 0.0, CFG, times=np.geomspace(1e-4, 10.0, 640))
    assert est.value == pytest.approx(fine.value, abs=1e-3)


def test_maximal_includes_long_time_mean():
    # h_2 part dies out, the mean 2 survives as t -> inf
    s = HermiteSeries(1, {(0,): 2.0, (2,): 0.01})
    est = ou_maximal(s, 0.0, CFG)
    assert est.value >= 2.0
    assert est.argmax == math.inf or est.argmax <= 10.0


def test_nontangential_constant_is_one_both_kinds():
    for kind in ("parabolic-gaussian", "truncated-parabolic"):
        est = nontangential_maximal(ONE, 0.5, kind, CFG)
        assert est.value == 1.0


def test_truncated_below_parabolic():
    # same f, x, and time grid: the truncated cross-sections nest inside
    # the parabolic ones, so the sup cannot exceed the parabolic sup
    for x in (0.0, 1.0, 2.0):
        spec = ConeSpec((x,), "truncated-parabolic")
        ts = np.geomspace(1e-6, (1.0 - 1e-9) * spec.time_cap, 64)
        tr = nontangential_maximal(H2, x, "truncated-parabolic", CFG, times=ts)
        pa = nontangential_maximal(H2, x, "parabolic-gaussian", CFG, times=ts)
        assert tr.value <= pa.value + 1e-12


def test_truncated_h1_brute_force_oracle():
    # inside the truncated cone at 0: sup e^{-t} sqrt(2) |y|, |y| < sqrt(t), t < 1/4
    est = nontangential_maximal(H1, 0.0, "truncated-parabolic", CFG)
    ts = np.linspace(1e-6, 0.25 * (1.0 - 1e-12), 20001)
    brute = float(np.max(np.exp(-ts) * math.sqrt(2.0) * np.sqrt(ts)))
    assert est.value == pytest.approx(brute, abs=1e-3)
    (y_star, t_star) = est.argmax
    assert abs(y_star[0]) < math.sqrt(t_star)


def test_nontangential_argmax_is_in_cone():
    est = nontangential_maximal(H2, 1.0, "parabolic-gaussian", CFG)
    from mehler.cones import cone_contains

    y, t = est.argmax
    assert cone_contains(ConeSpec((1.0,), "parabolic-gaussian"), y, t)


def test_nontangential_rejects_gaussian_kind():
    with pytest.raises(ValueError):
        nontangential_maximal(H1, 0.0, "gaussian", CFG)


# ---------------------------------------------------------------------------
# maximal-bound report
# ---------------------------------------------------------------------------


def test_bound_report_for_constant():
    rec = maximal_bound_report(ONE, 0.0, CFG)
    assert rec["lhs"] == 1.0
    assert rec["mgamma"] == pytest.approx(1.0, abs=1e-12)
    assert rec["tail"] == pytest.approx(2.0, rel=1e-10)  # (2 v 0)^1 * e^0 * 1
    assert rec["ratio"] == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_bound_report_h2_ingredients_finite():
    rec = maximal_bound_report(H2, 1.0, CFG)
    for key in ("lhs", "mgamma", "tail", "rhs", "ratio"):
        assert math.isfinite(rec[key])
    assert rec["lhs"] <= rec["rhs"] * max(1.0, rec["ratio"])


# ---------------------------------------------------------------------------
# blocked shifted quadrature
# ---------------------------------------------------------------------------

# (dimension, f-points per block): d = 1, 2 split rows and nodes, d = 3 splits
# its 64^3 nodes at both budgets
BLOCK_CASES = [(1, 7), (1, 64), (1, 4096), (2, 7), (2, 64), (2, 4096), (3, 4096), (3, 1 << 14)]


def one_shot_ou(f, x, t: float) -> float:
    # the unsplit OU block: every node of the rule in one call of f
    r, s = math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))
    nodes, wts = gauss_hermite_grid(f.dimension, CFG.gh_nodes)
    return float(f.values(r * x + s * nodes) @ wts)


@pytest.mark.parametrize("name", ["bump", "ball", "spike"])
@pytest.mark.parametrize("dimension,budget", BLOCK_CASES)
def test_block_budget_does_not_change_values(monkeypatch, name, dimension, budget):
    f = catalog_entry(name, dimension).rep
    points = np.random.default_rng(dimension).uniform(-0.8, 0.8, size=(2, dimension))
    times = np.array([0.05, 0.7, 3.0])
    weights = np.array([0.25, 0.5, 0.25])
    reference = np.array([
        sum(w * one_shot_ou(f, x, t) for t, w in zip(times, weights)) for x in points
    ])
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", 1 << 22)
    whole = mixture(f, points, times, weights, CFG)
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", budget)
    split = mixture(f, points, times, weights, CFG)
    np.testing.assert_allclose(whole, reference, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(split, whole, rtol=1e-14, atol=0.0)
    for x in points:
        single = mixture(f, x[None, :], (0.7,), (1.0,), CFG)[0]
        assert single == pytest.approx(one_shot_ou(f, x, 0.7), rel=1e-14, abs=0.0)


def test_empty_mixture_is_zero():
    points = np.zeros((3, 2))
    assert np.array_equal(mixture(bump(2), points, (), (), CFG), np.zeros(3))


def test_non_finite_value_in_a_later_block_is_reported(monkeypatch):
    monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", 64)
    calls = []

    def wall(p):
        calls.append(p.shape[0])
        return np.where(p[:, 0] > 4.0, np.inf, 1.0)

    f = PointwiseFunction(2, wall, name="wall")
    x = (0.0, 0.0)
    routes = {
        "ou_apply": lambda: ou_apply(f, x, 1.0),
        "poisson_apply": lambda: poisson_apply(f, x, 1.0, route="subordination"),
        "poisson_apply_kernel": lambda: poisson_apply_kernel(f, x, 1.0),
    }
    for route, call in routes.items():
        calls.clear()
        with pytest.raises(NonFiniteValueError) as info:
            call()
        assert len(calls) > 1, route
        assert max(calls) <= 64, route
        node = info.value.node
        assert node.shape == (2,) and node[0] > 4.0, route
        assert info.value.value == math.inf, route
        assert str(node.tolist()) in str(info.value), route


def test_d3_cone_supremum_memory_is_bounded():
    # the truncated-cone supremum of the d = 3 ball at 2 times: 57 points
    # against 64^3 nodes per time, ~920 MB if each time were one block.
    # The child reports VmHWM, the peak of its own address space: ru_maxrss
    # would also carry the peak of this test process, which it inherits
    # across fork and exec.
    script = """
import numpy as np
from mehler import catalog_entry, nontangential_maximal
from mehler.cones import ConeSpec
apex = (0.3, -0.2, 0.5)
hi = (1.0 - 1e-9) * ConeSpec(apex, "truncated-parabolic").time_cap
times = np.geomspace(1e-4 * hi, hi, 2)
est = nontangential_maximal(catalog_entry("ball", 3).rep, apex, "truncated-parabolic", times=times)
assert est.grid_size == 2 * 57
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
    src = str(Path(mehler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    peak_mb = int(done.stdout.split()[-1]) / 1024.0
    assert peak_mb < 300.0


# ---------------------------------------------------------------------------
# folded mixture rows
# ---------------------------------------------------------------------------


def counted(f):
    # f, plus the number of points of every block it is handed
    sizes = []

    def evaluator(p):
        sizes.append(p.shape[0])
        return f.values(p)

    return PointwiseFunction(f.dimension, evaluator, vectorized=True, name=f.name), sizes


def row_by_row(f, points, times, weights, cfg) -> np.ndarray:
    # the mixture folded by a dict, weights summed in input order, then one
    # full rule per (distinct row, point), summed over the node slices of
    # the block budget, the rows in ascending time
    folded = {}
    for t, w in zip(times, weights):
        pair = (math.exp(-t), math.sqrt(-math.expm1(-2.0 * t)))
        folded[pair] = folded.get(pair, 0.0) + float(w)
    nodes, wts = gauss_hermite_grid(f.dimension, cfg.gh_nodes)
    block = hermite_module._BLOCK_POINTS
    out = np.zeros(points.shape[0])
    for (r, s), w in sorted(folded.items(), key=lambda row: (-row[0][0], row[0][1])):
        for i, x in enumerate(points):
            vals, integral = f.values(r * x + s * nodes), 0.0
            for lo in range(0, wts.size, block):
                integral += float(vals[lo : lo + block] @ wts[lo : lo + block])
            out[i] += w * integral
    return out


def far_points(dimension: int) -> np.ndarray:
    # one point inside the unit cube, then one at |x| = 4 with mixed signs
    far = np.array([1.0, -1.0, 1.0][:dimension])
    inner = np.random.default_rng(dimension).uniform(-1.0, 1.0, size=dimension)
    return np.stack([inner, 4.0 * far / np.linalg.norm(far)])


POISSON_TIMES = [1e-3, 0.1, 0.95, 4.0]


@pytest.mark.parametrize("name", ["bump", "ball", "spike"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_folded_mixture_matches_the_row_by_row_sum(monkeypatch, name, dimension):
    # d = 3 takes a 16-node rule, split into node slices by a small budget,
    # so the unfolded reference stays cheap
    cfg = CFG if dimension < 3 else QuadratureConfig(gh_nodes=16)
    if dimension == 3:
        monkeypatch.setattr(hermite_module, "_BLOCK_POINTS", 1024)
    f, sizes = counted(catalog_entry(name, dimension).rep)
    points = far_points(dimension)
    n_nodes = cfg.gh_nodes ** dimension
    for t in POISSON_TIMES:
        times, weights = _subordinated_times(t)
        sizes.clear()
        folded = mixture(f, points, times, weights, cfg)
        assert 0 < sum(sizes) < len(times) * points.shape[0] * n_nodes, t
        assert np.array_equal(folded, row_by_row(f, points, times, weights, cfg)), t


def test_equal_rows_fold_at_the_first_position():
    # equal rows fold in ascending time, their weights summed in input order
    times = (0.5, 800.0, 0.7, math.inf, 0.5)
    weights = (0.1, 0.2, 0.3, 0.4, 0.5)
    r, s, w = _row_table([_time_rows(times, weights)])
    assert r.tolist() == [math.exp(-0.5), math.exp(-0.7), 0.0]
    assert s.tolist() == [math.sqrt(-math.expm1(-1.0)), math.sqrt(-math.expm1(-1.4)), 1.0]
    assert w.tolist() == [[0.1 + 0.5, 0.3, 0.2 + 0.4]]


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("dimension", [1, 2])
def test_only_equal_pairs_fold(n, dimension):
    # odd and even rules alike: the Poisson rows at r == 0.0 become one, the
    # rows come out in ascending time, and every other row keeps its own
    # f-points
    cfg = QuadratureConfig(gh_nodes=n)
    f, sizes = counted(bump(dimension))
    points = np.vstack([far_points(dimension), np.zeros((1, dimension))])
    for t in POISSON_TIMES:
        times, weights = _subordinated_times(t)
        pairs = [ou_module._decay_pair(float(u)) for u in times]
        kept = [pair for pair in pairs if pair[0] != 0.0]
        assert len(kept) < len(pairs) and any(pair[1] == 1.0 for pair in kept), t
        expected = sorted(set(pairs), key=lambda pair: (-pair[0], pair[1]))
        assert len(expected) == len(kept) + 1, t
        r, s, _ = _row_table([_time_rows(times, weights)])
        assert list(zip(r.tolist(), s.tolist())) == expected, t
        sizes.clear()
        mixture(f, points, times, weights, cfg)
        assert sum(sizes) == len(expected) * points.shape[0] * n**dimension, t


def test_a_saturated_row_with_r_above_zero_keeps_its_points():
    # at t = 700, s == 1.0 but r = e^{-700} > 0: the row is not the t = inf row
    t = 700.0
    r, s = ou_module._decay_pair(t)
    assert s == 1.0 and r > 0.0
    f, sizes = counted(bump(1))
    times, weights = (t, math.inf), (0.5, 0.5)
    points = np.array([[4.0]])
    value = mixture(f, points, times, weights, CFG)
    assert sum(sizes) == 2 * CFG.gh_nodes
    reference = row_by_row(f, points, times, weights, CFG)
    assert value[0] == pytest.approx(reference[0], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("dimension", [1, 2])
def test_a_point_does_not_depend_on_its_batch(dimension):
    # the fold reads the times alone, so a point alone and beside a far
    # point gets the same rows in the same order
    f = catalog_entry("bump", dimension).rep
    points = far_points(dimension)
    for t in POISSON_TIMES:
        times, weights = _subordinated_times(t)
        alone = mixture(f, points[:1], times, weights, CFG)
        batch = mixture(f, points, times, weights, CFG)
        assert alone[0] == batch[0], t


def small_series(dimension: int) -> HermiteSeries:
    return HermiteSeries(dimension, {(0,) * dimension: 0.5, (2,) + (1,) * (dimension - 1): 1.0})


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("kind", ["series", "black-box"])
def test_values_are_each_pair_alone(name, dimension, kind):
    # mixed, repeated and infinite times, one per point, then one time for all
    sg = SEMIGROUPS[name]
    f = small_series(dimension) if kind == "series" else bump(dimension)
    routes = ("auto", *sg.routes, *(("spectral",) if kind == "series" else ()))
    ys = np.random.default_rng(dimension).uniform(-2.0, 2.0, size=(5, dimension))
    for ts in ([0.3, 0.05, 0.3, math.inf, 1.0], [0.3] * 5):
        for route in routes:
            batch = sg.values(f, ys, ts, route, CFG)
            assert batch.tolist() == [sg.apply(f, y, t, route, CFG) for y, t in zip(ys, ts)]
            if ts[0] == ts[1]:
                assert sg.values(f, ys, ts[0], route, CFG).tolist() == batch.tolist()


@pytest.mark.parametrize("transform", [ou_transform, poisson_transform])
def test_a_transform_point_does_not_depend_on_its_batch(transform):
    moved = transform(bump(2), 0.3, CFG)
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(16, 2))
    assert moved.values(pts).tolist() == [moved.values(p[None, :])[0] for p in pts]


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_one_bad_time_among_many_raises(name):
    sg = SEMIGROUPS[name]
    pts = np.zeros((3, 1))
    with pytest.raises(ValueError, match="time must be positive, got 0.0"):
        sg.values(bump(), pts, [0.5, 0.0, 1.0], "auto", CFG)
    with pytest.raises(ValueError, match="time must be positive, got -1.0"):
        sg.values(H2, pts, [0.5, 1.0, -1.0], next(iter(sg.routes)), CFG)
    with pytest.raises(ValueError, match="time must be nonnegative, got -0.1"):
        sg.values(H2, pts, [0.0, -0.1, 1.0], "auto")
    with pytest.raises(ValueError, match="expected one time or 3"):
        sg.values(H2, pts, [0.5, 1.0], "auto")


@pytest.mark.parametrize("name", sorted(SEMIGROUPS))
def test_no_points_give_an_empty_array(name):
    # every route, one time or none, with and without an apex and its cone
    sg = SEMIGROUPS[name]
    for route in ("auto", *sg.routes, "spectral"):
        f = H2 if route == "spectral" else bump()
        for times in (0.5, np.zeros(0)):
            for about in ({}, {"apex": 0.5}, {"apex": 0.5, "cone": sg.cones[0]}):
                out = sg.values(f, np.zeros((0, 1)), times, route, CFG, **about)
                assert out.dtype == np.float64 and out.shape == (0,), (route, times, about)


# ---------------------------------------------------------------------------
# block layout handed to f
# ---------------------------------------------------------------------------


def layout_spy(dimension: int):
    # a black box that records (f_contiguous, shape) of every block it is handed
    seen = []

    def evaluator(p):
        seen.append((p.flags.f_contiguous, p.shape))
        return np.exp(-np.sum(p * p, axis=1))

    return PointwiseFunction(dimension, evaluator, name="spy"), seen


# 2 times x 3 points = 6 rows of 64^d nodes at budgets of 2^14 points:
# d = 1 fits in one block, d = 2 takes 4 rows a block, d = 3 splits each row
MIXTURE_BLOCKS = {
    1: [(384, 1)],
    2: [(16384, 2), (8192, 2)],
    3: [(16384, 3)] * 96,
}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_mixture_blocks_are_coordinate_major(dimension):
    f, seen = layout_spy(dimension)
    points = np.random.default_rng(dimension).uniform(-0.5, 0.5, size=(3, dimension))
    mixture(f, points, (0.1, 1.0), (0.5, 0.5), CFG)
    assert [shape for _, shape in seen] == MIXTURE_BLOCKS[dimension]
    assert all(f_contiguous for f_contiguous, _ in seen)


# one rule of 64^d nodes: d <= 2 fits in one block, d = 3 splits into 16
RULE_BLOCKS = {1: [(64, 1)], 2: [(4096, 2)], 3: [(16384, 3)] * 16}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_rule_blocks_are_coordinate_major(dimension):
    x = np.full(dimension, 0.2)
    f, seen = layout_spy(dimension)
    for integral in (
        lambda: ou_apply_kernel(f, x, 0.5, CFG),
        lambda: gaussian_norm(f, 2.0, CFG),
        lambda: fourier_hermite_coeff(f, (1,) * dimension, CFG),
        lambda: project_chaos(f, 2, CFG),
        lambda: hermite_expand(f, 2, CFG),
    ):
        seen.clear()
        integral()
        assert seen == [(True, shape) for shape in RULE_BLOCKS[dimension]]
    assert all(n <= hermite_module._BLOCK_POINTS for _, (n, _) in seen)
    # the ball profile: whole radii of the sphere rule, or slices of one
    for cfg in (CFG, CFG.refined(2)):
        for radii in (None, (0.1, 0.5, 2.0)):
            seen.clear()
            hl_maximal(f, x, cfg, radii=radii)
            assert seen and all(f_contiguous and d == dimension for f_contiguous, (_, d) in seen)
            assert all(1 < n <= hermite_module._BLOCK_POINTS for _, (n, _) in seen)


# ---------------------------------------------------------------------------
# tie-breaking of the suprema
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_cone_argmax_of_a_constant_is_the_first_cell(dimension):
    # every cell of T_t 1 = 1 ties: the smallest time wins, then the
    # lexicographically smallest point of its cross-section
    one = HermiteSeries(dimension, {(0,) * dimension: 1.0})
    apex = np.linspace(0.3, -0.4, dimension)
    times = (0.02, 0.01)
    est = nontangential_maximal(one, apex, "parabolic-gaussian", CFG, times)
    a = ConeSpec(tuple(apex), "parabolic-gaussian").aperture(0.01)
    fractions = _cross_fractions(CFG.cross_radial)
    assert fractions[0] == 0.0
    cells = [tuple(apex)] + [
        tuple(apex + fr * a * u)
        for fr in fractions[1:]
        for u in _directions(dimension, CFG.cross_angular)
    ]
    assert est.value == 1.0
    assert est.argmax == (min(cells), 0.01)
    assert ou_maximal(one, apex, CFG, times).argmax == 0.01


# ---------------------------------------------------------------------------
# the suprema and transforms shared by T_t and P_t
# ---------------------------------------------------------------------------

# the four suprema, each at apex 0.5, where the truncated cone's cap is 1/4
SUPREMA = {
    "ou_maximal": lambda f, **kw: ou_maximal(f, 0.5, CFG, **kw),
    "poisson_maximal": lambda f, **kw: poisson_maximal(f, 0.5, CFG, **kw),
    "nontangential_maximal": lambda f, **kw: nontangential_maximal(
        f, 0.5, "truncated-parabolic", CFG, **kw
    ),
    "poisson_nontangential_maximal": lambda f, **kw: poisson_nontangential_maximal(
        f, 0.5, CFG, **kw
    ),
}


@pytest.mark.parametrize("name", sorted(SUPREMA))
@pytest.mark.parametrize("f", [H2, bump()], ids=["series", "pointwise"])
def test_suprema_reject_bad_time_lists(name, f):
    sup = SUPREMA[name]
    assert sup(f, times=(0.2, 0.1)).value > 0.0
    for times in ((), (0.1, 0.0), (-0.1,), (0.1, -math.inf)):
        with pytest.raises(ValueError, match="positive"):
            sup(f, times=times)


@pytest.mark.parametrize(
    "name, times",
    [
        ("nontangential_maximal", (0.1, 0.25)),
        ("nontangential_maximal", (0.3,)),
        # the gaussian cone's cap is +inf, so t = inf itself is outside it
        ("poisson_nontangential_maximal", (0.1, math.inf)),
    ],
)
def test_cone_suprema_reject_times_at_or_above_the_cap(name, times):
    with pytest.raises(ValueError, match="time cap"):
        SUPREMA[name](H2, times=times)


def test_transform_names_carry_the_semigroup_letter():
    # perfbench's tracer tells a transform from a black-box f by this prefix
    for f in (H2, bump()):
        assert ou_transform(f, 0.5, CFG).name.startswith("T_0.5[")
        assert poisson_transform(f, 0.5, CFG).name.startswith("P_0.5[")
    assert ou_transform(bump(), 0.5, CFG).name == "T_0.5[bump]"
    assert poisson_transform(bump(), 0.5, CFG).name == "P_0.5[bump]"


def test_cross_sections_stop_at_dimension_three():
    assert _directions(3, CFG.cross_angular).shape == (8, 3)
    with pytest.raises(ValueError, match="d <= 3"):
        _directions(4, CFG.cross_angular)
