"""Tests for the experiment runners and their serialization."""

import math

import numpy as np
import pytest

from mehler.experiments import (
    ConvergenceRecord,
    ExperimentConfig,
    RECORDED_DOMINATION_CONSTANT,
    contrast_csv,
    convergence_csv,
    domination_csv,
    run_convergence,
    run_domination_report,
    run_tangential_contrast,
    run_verify_suite,
    to_json,
)
from mehler.ou import ou_apply

DEEP_ALPHAS = tuple(10.0 ** -k for k in range(1, 15))


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.dimension == 1
    assert cfg.semigroup == "ou"
    assert len(cfg.alphas) == 12
    assert cfg.alphas[0] == pytest.approx(1e-1)
    assert cfg.alphas[-1] == pytest.approx(1e-4)
    ratios = [b / a for a, b in zip(cfg.alphas, cfg.alphas[1:])]
    assert max(ratios) - min(ratios) < 1e-12  # geometric ladder


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(dimension=4), "dimension"),
        (dict(semigroup="heat"), "semigroup"),
        (dict(function="nope"), "function"),
        (dict(apexes=((1.0, 2.0),)), "apexes"),
        (dict(apexes=()), "apexes"),
        (dict(cone="elliptic"), "cone"),
        (dict(eta=1.0), "eta"),
        (dict(decay=1.0), "decay"),
        (dict(path_points=0), "path_points"),
        (dict(alphas=(1e-2, 1e-1)), "alphas"),
        (dict(alphas=()), "alphas"),
        (dict(exponent=0.5), "exponent"),
    ],
)
def test_config_validation(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        ExperimentConfig(**kwargs)


def test_shallow_path_rejected():
    # 5 points at decay 0.7 stop near t ~ 1, far above alpha = 1e-4
    cfg = ExperimentConfig(function="h_1", path_points=5)
    with pytest.raises(ValueError, match="alpha"):
        run_convergence(cfg)


def test_convergence_monotone_and_sorted():
    cfg = ExperimentConfig(
        function="h_2", apexes=((1.0,), (-0.5,)), eta=0.4, decay=0.6, path_points=40
    )
    records = run_convergence(cfg)
    assert len(records) == 2 * len(cfg.alphas)
    apex_order = [r.apex for r in records]
    assert apex_order == sorted(apex_order)
    for apex in ((-0.5,), (1.0,)):
        sub = [r for r in records if r.apex == apex]
        # emitted with alpha descending within an apex
        alphas = [r.alpha for r in sub]
        assert alphas == sorted(alphas, reverse=True)
        sups = [r.sup_error for r in sub]
        # nested point sets: the sup can only shrink as alpha does
        for wide, narrow in zip(sups, sups[1:]):
            assert narrow <= wide


def test_convergence_record_is_attained():
    cfg = ExperimentConfig(function="h_3", apexes=((0.8,),), eta=0.5, decay=0.65, path_points=36)
    records = run_convergence(cfg)
    from mehler.catalog import catalog_entry

    f = catalog_entry("h_3", 1).rep
    target = f((0.8,))
    for rec in records:
        assert rec.t_star < rec.alpha
        err = abs(ou_apply(f, rec.y_star, rec.t_star) - target)
        assert err == pytest.approx(rec.sup_error, abs=1e-14)


def test_polynomial_deep_convergence_both_semigroups():
    for semigroup, tol in (("ou", 1e-6), ("poisson", 1e-5)):
        cfg = ExperimentConfig(
            semigroup=semigroup,
            function="h_3",
            apexes=((1.0,),),
            eta=0.05,
            decay=0.5,
            path_points=52,
            alphas=DEEP_ALPHAS,
        )
        final = min(run_convergence(cfg), key=lambda r: r.alpha)
        assert final.sup_error < tol


def test_indicator_interior_vs_boundary_apex():
    alphas = tuple(float(a) for a in np.geomspace(1e-1, 1e-3, 6))
    base = dict(function="ball", eta=0.3, decay=0.6, path_points=30, alphas=alphas)
    interior = min(
        run_convergence(ExperimentConfig(apexes=((0.5,),), **base)),
        key=lambda r: r.alpha,
    )
    boundary = min(
        run_convergence(ExperimentConfig(apexes=((1.0,),), **base)),
        key=lambda r: r.alpha,
    )
    # continuity point: the average over a shrinking window matches f(x)
    assert interior.sup_error < 1e-6
    # jump point: roughly half the mass is missing no matter how small t gets
    assert boundary.sup_error > 0.3


def test_contrast_flags_and_errors():
    cfg = ExperimentConfig(
        function="h_2", apexes=((2.0,),), eta=0.3, decay=0.6, path_points=30
    )
    rows = run_tangential_contrast(cfg)
    cone_rows = [r for r in rows if r["path"] == "cone"]
    tang_rows = [r for r in rows if r["path"] == "tangential"]
    assert len(cone_rows) == len(tang_rows) == 30
    assert all(r["in_cone"] for r in cone_rows)
    # t^0.25 >> sqrt(t) at small t: the tail of the tangential path is outside
    assert not tang_rows[-1]["in_cone"]
    assert cone_rows[-1]["error"] < 0.1 * tang_rows[-1]["error"]


def test_contrast_deterministic():
    cfg = ExperimentConfig(function="h_1", apexes=((1.0,),), path_points=12)
    assert run_tangential_contrast(cfg) == run_tangential_contrast(cfg)


def test_domination_constant_function_is_exact():
    cfg = ExperimentConfig(function="one", apexes=((0.0,), (2.0,), (-3.0,)))
    report = run_domination_report(cfg)
    for row in report["rows"]:
        assert row["maximal"] == 1.0
        assert row["hl_maximal"] == 1.0
        assert row["ratio"] == 1.0
    assert report["max_ratio"] == 1.0


def test_domination_takes_one_ball_average_per_radius_per_apex(monkeypatch):
    # M_gamma f is read from the bound report, not computed a second time,
    # and every radius of one apex comes from one ball profile
    from mehler import measure

    calls = []
    profile = measure._ball_profile
    monkeypatch.setattr(
        measure, "_ball_profile", lambda *a: calls.append(a[2].size) or profile(*a)
    )
    cfg = ExperimentConfig(function="one", apexes=((0.0,), (2.0,)))
    report = run_domination_report(cfg)
    assert calls == [cfg.quadrature.radius_grid.count] * 2
    for row, bound in zip(report["rows"], report["bound_rows"]):
        assert row["hl_maximal"] == bound["mgamma"] == 1.0


def test_domination_rejects_signed_function():
    with pytest.raises(ValueError, match="f >= 0"):
        run_domination_report(ExperimentConfig(function="h_1", apexes=((0.0,),)))


def test_domination_is_ou_only():
    # the report always takes the OU truncated-parabolic cone
    with pytest.raises(ValueError, match="semigroup: domination reports are OU only"):
        run_domination_report(ExperimentConfig(semigroup="poisson", function="bump"))


def test_domination_takes_only_the_truncated_cone():
    # "gaussian" is refused; the default cone and an explicit one that
    # equals it cannot be told apart, and both give the truncated report
    with pytest.raises(ValueError, match="cone: domination reports take the truncated-parabolic"):
        run_domination_report(ExperimentConfig(function="one", cone="gaussian"))
    reports = [
        run_domination_report(ExperimentConfig(function="one", **kw))
        for kw in ({}, {"cone": "parabolic-gaussian"}, {"cone": "truncated-parabolic"})
    ]
    assert reports[0] == reports[1] == reports[2]


def test_domination_refinement_stability():
    cfg = ExperimentConfig(function="bump", apexes=((0.0,), (1.0,)))
    base = run_domination_report(cfg, refine_factor=1)
    fine = run_domination_report(cfg, refine_factor=2)
    assert fine["refine_factor"] == 2
    drift = abs(fine["max_ratio"] - base["max_ratio"]) / base["max_ratio"]
    assert drift < 0.05
    assert base["max_ratio"] == pytest.approx(RECORDED_DOMINATION_CONSTANT, rel=1e-12)
    for row in base["bound_rows"]:
        assert 0.0 < row["ratio"] < 1.0  # supremum stays under the two-term bound


def test_verify_fast_passes():
    report = run_verify_suite("fast")
    assert report["pass"] is True
    assert report["level"] == "fast"
    names = [r["invariant"] for r in report["records"]]
    assert len(names) == len(set(names))
    for rec in report["records"]:
        assert set(rec) == {"invariant", "margin", "tolerance", "pass"}
        assert rec["pass"] is True
        assert rec["margin"] <= rec["tolerance"]


def test_verify_full_adds_checks():
    fast = run_verify_suite("fast")
    full = run_verify_suite("full")
    assert full["pass"] is True
    assert len(full["records"]) > len(fast["records"])
    names = {r["invariant"] for r in full["records"]}
    assert "hermite-orthonormality-d3" in names
    assert "domination-recorded-constant" in names


def test_verify_level_validation():
    with pytest.raises(ValueError, match="level"):
        run_verify_suite("paranoid")


def test_verify_json_deterministic():
    a = to_json(run_verify_suite("fast"))
    b = to_json(run_verify_suite("fast"))
    assert a == b
    assert a.endswith("\n")
    import json

    parsed = json.loads(a)
    assert parsed["pass"] is True


def test_convergence_csv_round_trip():
    cfg = ExperimentConfig(function="h_2", apexes=((1.0,), (-0.5,)), path_points=40)
    records = run_convergence(cfg)
    text = convergence_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "apex,alpha,sup_error,y_star,t_star"
    assert len(lines) == 1 + len(records)
    by_key = {(r.apex, r.alpha): r for r in records}
    for line in lines[1:]:
        apex_s, alpha_s, sup_s, y_s, t_s = line.split(",")
        key = ((float(apex_s),), float(alpha_s))
        rec = by_key[key]
        # repr formatting survives the round trip bit for bit
        assert float(sup_s) == rec.sup_error
        assert float(y_s) == rec.y_star[0]
        assert float(t_s) == rec.t_star
    assert convergence_csv(records) == text


def test_csv_rows_sorted():
    cfg = ExperimentConfig(function="h_1", apexes=((2.0,), (-1.0,)), path_points=40)
    text = convergence_csv(run_convergence(cfg))
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)


def test_contrast_and_domination_csv_headers():
    cfg = ExperimentConfig(function="one", apexes=((0.0,),), path_points=10)
    ctext = contrast_csv(run_tangential_contrast(cfg))
    assert ctext.startswith("apex,path,t,y,error,in_cone\n")
    assert ",cone," in ctext and ",tangential," in ctext
    dtext = domination_csv(run_domination_report(cfg))
    assert dtext.startswith("apex,maximal,hl_maximal,ratio\n")
    assert dtext.strip().split("\n")[1] == "0.0,1.0,1.0,1.0"


def test_multidim_apex_formatting():
    cfg = ExperimentConfig(
        dimension=2, function="bump", apexes=((0.5, -0.5),), path_points=30,
        alphas=tuple(float(a) for a in np.geomspace(1e-1, 1e-3, 4)),
    )
    records = run_convergence(cfg)
    text = convergence_csv(records)
    first = text.strip().split("\n")[1]
    assert first.startswith("0.5;-0.5,")
    assert len(first.split(",")) == 5


def test_record_fields():
    rec = ConvergenceRecord((1.0,), 1e-2, 3e-4, (0.99,), 5e-3)
    assert rec.apex == (1.0,)
    assert rec.alpha == 1e-2
    assert rec.sup_error == 3e-4
