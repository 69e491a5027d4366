"""Desk-scale experiments: convergence along cones, domination, verification.

run_convergence realizes the limit quantity behind non-tangential
convergence: along an in-cone path to the apex, it records for each scale
alpha the worst semigroup-vs-target error over path points with t < alpha.
Those sup errors are nonincreasing as alpha shrinks, exactly, because the
point sets are nested.

run_tangential_contrast pairs that with a deliberately tangential path
(|y - x| = t^a, a < 1/2) so the role of the aperture is visible in one CSV.

run_domination_report measures the truncated cone supremum against the
ball-average maximal function at each apex and reports the worst ratio;
run_verify_suite executes the cross-module invariants and emits a
machine-readable pass/fail report with margins.

All outputs are deterministic for a fixed config: grids are fixed, the only
randomness is seeded, rows are sorted before emission, and numbers are
printed with round-trip float formatting.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .catalog import catalog, catalog_entry
from .cones import CONE_KINDS, ConeSpec, _contains, cone_contains, cone_path, tangential_path
from .hermite import (
    DEFAULT_CONFIG,
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    _gh_blocks,
    _hermite_rows,
    enumerate_multi_indices,
    gauss_hermite_grid,
    generator_apply,
)
from .measure import _first_max, gaussian_norm
from .ou import (
    OU,
    maximal_bound_report,
    nontangential_maximal,
)
from .poisson import POISSON, bochner_identity_error

SEMIGROUPS = {"ou": OU, "poisson": POISSON}
VERIFY_LEVELS = ("fast", "full")

# worst truncated-cone-to-ball-average ratio observed at build time over the
# d=1 nonnegative entries one/bump/ball on the |x| <= 3 apex grid (attained
# by bump at the origin); the verify suite asserts the measured ratio stays
# within 5% of this under a 2x grid refinement
RECORDED_DOMINATION_CONSTANT = 1.4934464347501952


def _default_alphas() -> tuple[float, ...]:
    return tuple(float(a) for a in np.geomspace(1e-1, 1e-4, 12))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs, validated field by field."""

    dimension: int = 1
    semigroup: str = "ou"
    function: str = "one"
    apexes: tuple = ((0.0,),)
    cone: str = "parabolic-gaussian"
    eta: float = 0.5
    decay: float = 0.7
    path_points: int = 40
    alphas: tuple = field(default_factory=_default_alphas)
    exponent: float = 0.25
    quadrature: QuadratureConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension: must be 1, 2, or 3, got {self.dimension}")
        if self.semigroup not in SEMIGROUPS:
            raise ValueError(
                f"semigroup: must be one of {tuple(SEMIGROUPS)}, got {self.semigroup!r}"
            )
        if self.function not in catalog(self.dimension):
            raise ValueError(
                f"function: no catalog entry {self.function!r} in d={self.dimension}"
            )
        apexes = []
        for apex in self.apexes:
            arr = np.atleast_1d(np.asarray(apex, dtype=float))
            if arr.shape != (self.dimension,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"apexes: bad apex {apex!r} for d={self.dimension}")
            apexes.append(tuple(float(c) for c in arr))
        if not apexes:
            raise ValueError("apexes: need at least one apex")
        object.__setattr__(self, "apexes", tuple(apexes))
        if self.cone not in CONE_KINDS:
            raise ValueError(f"cone: must be one of {CONE_KINDS}, got {self.cone!r}")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta: must lie in [0, 1), got {self.eta}")
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay: must lie in (0, 1), got {self.decay}")
        if self.path_points < 1:
            raise ValueError(f"path_points: must be >= 1, got {self.path_points}")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas or any(a <= 0.0 for a in alphas):
            raise ValueError("alphas: need positive scales")
        if any(a <= b for a, b in zip(alphas, alphas[1:])):
            raise ValueError("alphas: must be strictly decreasing")
        object.__setattr__(self, "alphas", alphas)
        if not 0.0 < self.exponent < 0.5:
            raise ValueError(f"exponent: must lie in (0, 1/2), got {self.exponent}")


@dataclass(frozen=True)
class ConvergenceRecord:
    """Worst in-cone error below scale alpha, with the achieving point."""

    apex: tuple
    alpha: float
    sup_error: float
    y_star: tuple
    t_star: float


def _path_errors(config: ExperimentConfig, apex: tuple, points) -> list[float]:
    """|S_t f(y) - f(apex)| at each (y, t) of points, as Python floats.

    The values are one `Semigroup.values` call about the apex in config.cone,
    so a path takes f once per row whatever its points.
    """
    f = catalog_entry(config.function, config.dimension).rep
    target = float(f.values(np.asarray([apex], dtype=float))[0])
    ys, ts = zip(*points)
    sg = SEMIGROUPS[config.semigroup]
    vals = sg.values(f, ys, ts, "auto", config.quadrature, apex, config.cone)
    return [abs(v - target) for v in vals.tolist()]


def run_convergence(config: ExperimentConfig) -> list[ConvergenceRecord]:
    """Sup error over in-cone path points below each alpha, per apex.

    Path times are a geometric ladder; the config must send the path deeper
    than the smallest alpha, otherwise the last records would be suprema
    over empty sets and the run is rejected up front.
    """
    min_alpha = min(config.alphas)
    records = []
    for apex in sorted(config.apexes):
        spec = ConeSpec(apex, config.cone)
        path = cone_path(spec, config.path_points, config.eta, config.decay, cfg=config.quadrature)
        if path.points[-1][1] >= min_alpha:
            raise ValueError(
                "path_points/decay: path bottoms out at t="
                f"{path.points[-1][1]:.3e}, above the smallest alpha {min_alpha:.3e};"
                " increase path_points or shrink decay"
            )
        errs = _path_errors(config, apex, path.points)
        for alpha in sorted(config.alphas, reverse=True):
            # ascending t among eligible points: ties resolve to smallest t
            eligible = [i for i in reversed(range(len(errs))) if path.points[i][1] < alpha]
            err, i = _first_max([errs[j] for j in eligible], eligible.__getitem__)
            y, t = path.points[i]
            records.append(ConvergenceRecord(
                apex=apex, alpha=alpha, sup_error=err, y_star=y, t_star=t
            ))
    return records


def run_tangential_contrast(config: ExperimentConfig) -> list[dict]:
    """Side-by-side error rows for an in-cone path and a tangential path."""
    rows = []
    for apex in sorted(config.apexes):
        spec = ConeSpec(apex, config.cone)
        cone_pts = cone_path(
            spec, config.path_points, config.eta, config.decay, cfg=config.quadrature
        ).points
        tang_pts = tangential_path(
            apex, config.path_points, config.exponent, decay=config.decay
        )
        for label, pts in (("cone", cone_pts), ("tangential", tang_pts)):
            for (y, t), err in zip(pts, _path_errors(config, apex, pts)):
                rows.append(
                    {
                        "apex": apex,
                        "path": label,
                        "t": t,
                        "y": y,
                        "error": err,
                        "in_cone": cone_contains(spec, y, t),
                    }
                )
    rows.sort(key=lambda r: (r["apex"], r["path"], -r["t"]))
    return rows


def run_domination_report(config: ExperimentConfig, refine_factor: int = 1) -> dict:
    """Truncated cone supremum vs ball-average maximal function, per apex.

    Requires the OU semigroup, whose truncated-parabolic cone the report
    always takes, and a nonnegative catalog entry (the pointwise bound is
    stated for f >= 0). config.cone must be that cone or the field default;
    an explicit "parabolic-gaussian" is the default and cannot be told
    apart from it, so it is accepted too. Also carries the three-term
    time-supremum bound ingredients so an empirical constant can be read
    off either table.
    """
    if config.semigroup != "ou":
        raise ValueError(f"semigroup: domination reports are OU only, got {config.semigroup!r}")
    if config.cone not in (ExperimentConfig.cone, "truncated-parabolic"):
        raise ValueError(
            f"cone: domination reports take the truncated-parabolic cone, got {config.cone!r}"
        )
    entry = catalog_entry(config.function, config.dimension)
    if not entry.nonnegative:
        raise ValueError(
            f"function: domination reports need f >= 0; {entry.name!r} is signed"
        )
    cfg = config.quadrature if refine_factor == 1 else config.quadrature.refined(refine_factor)
    f = entry.rep
    cone_rows = []
    bound_rows = []
    for apex in sorted(config.apexes):
        sup = nontangential_maximal(f, apex, "truncated-parabolic", cfg)
        rec = maximal_bound_report(f, apex, cfg)
        mgamma = rec["mgamma"]
        ratio = sup.value / mgamma if mgamma > 0.0 else math.inf
        cone_rows.append(
            {
                "apex": apex,
                "maximal": sup.value,
                "hl_maximal": mgamma,
                "ratio": ratio,
            }
        )
        bound_rows.append({"apex": apex, **rec})
    worst = max(cone_rows, key=lambda r: r["ratio"])
    worst_bound = max(bound_rows, key=lambda r: r["ratio"])
    return {
        "function": entry.name,
        "dimension": config.dimension,
        "refine_factor": refine_factor,
        "rows": cone_rows,
        "max_ratio": worst["ratio"],
        "max_ratio_apex": worst["apex"],
        "bound_rows": bound_rows,
        "bound_max_ratio": worst_bound["ratio"],
    }


# ---------------------------------------------------------------------------
# invariant verification suite
# ---------------------------------------------------------------------------


def _orthonormality_margin(dimension: int, max_degree: int, cfg: QuadratureConfig) -> float:
    terms = [(b, 1.0) for b in enumerate_multi_indices(dimension, max_degree)]
    gram = np.zeros((len(terms), len(terms)))
    rule = gauss_hermite_grid(dimension, cfg.gh_nodes)
    _, blocks = next(_gh_blocks(None, np.zeros((1, dimension)), np.ones(1), rule))
    for nodes, _, wts in blocks:
        mat = np.array(list(_hermite_rows(terms, nodes)))
        gram += (mat * wts[None, :]) @ mat.T
    return float(np.max(np.abs(gram - np.eye(len(terms)))))


def _eigenrelation_margin(dimension: int, max_degree: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.5, 2.5, size=(24, dimension))
    worst = 0.0
    for beta in enumerate_multi_indices(dimension, max_degree):
        s = HermiteSeries(dimension, {beta.entries: 1.0})
        lhs = generator_apply(s, pts)
        rhs = -beta.degree * s.evaluate(pts)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _markov_margin(cfg: QuadratureConfig) -> float:
    f = PointwiseFunction(1, lambda p: np.ones(p.shape[0]), name="one")
    ts, xs = np.meshgrid((1e-4, 1e-2, 0.5, 2.0, 10.0), (-4.0, 0.0, 1.3, 4.0), indexing="ij")
    vals = OU.values(f, xs.reshape(-1, 1), ts.ravel(), "change_of_var", cfg)
    return float(np.max(np.abs(vals - 1.0)))


def _random_series(dimension: int, max_degree: int, seed: int) -> HermiteSeries:
    rng = np.random.default_rng(seed)
    idx = enumerate_multi_indices(dimension, max_degree)
    return HermiteSeries(
        dimension, {b.entries: float(c) for b, c in zip(idx, rng.normal(size=len(idx)))}
    )


def _route_margin(sg, cfg: QuadratureConfig, seed: int, step: int, box: float, dims, times):
    """max |S_t s(x) - spectral| over sg's quadrature routes and times, per d.

    s is a random degree-6 series seeded by seed + step*d, taken at one
    point drawn uniformly from [-box, box]^d with seed + 10*step*d.
    """
    worst = 0.0
    for d in dims:
        s = _random_series(d, 6, seed + step * d)
        x = np.random.default_rng(seed + 10 * step * d).uniform(-box, box, size=(1, d))
        xs = np.repeat(x, len(times), axis=0)
        spectral = sg.values(s, xs, times, "spectral")
        for route in sg.routes:
            worst = max(worst, *np.abs(sg.values(s, xs, times, route, cfg) - spectral).tolist())
    return worst


def _bochner_margin() -> float:
    return max(bochner_identity_error(lam) for lam in (0.0, 1e-8, 0.5, 1.0, 2.0, 5.0))


def _semigroup_law_margins(cfg: QuadratureConfig) -> tuple[float, float, float]:
    """|S_t S_s f - S_{t+s} f| on bump for T and P, and on a series for T spectrally."""
    bump = PointwiseFunction(
        1, lambda p: np.exp(-np.sum(p * p, axis=1)), name="bump"
    )
    t, s = 0.35, 0.6
    xs = np.array([[0.0], [1.2]])
    ou_law, po_law = (
        float(np.max(np.abs(sg.values(sg.transform(bump, s, cfg), xs, t, "auto", cfg)
                            - sg.values(bump, xs, t + s, "auto", cfg))))
        for sg in (OU, POISSON)
    )
    series = _random_series(1, 5, 77)
    xs = np.array([[-0.8], [0.4]])
    direct = OU.values(series, xs, t + s, "spectral")
    composed = OU.values(OU.transform(series, s, cfg), xs, t, "spectral")
    return ou_law, po_law, float(np.max(np.abs(direct - composed)))


def _contraction_margin(cfg: QuadratureConfig, names, dimension: int = 1) -> float:
    """max over entries, p, t of ||S_t f||_p / ||f||_p - 1 (both semigroups)."""
    worst = -math.inf
    for name in names:
        entry = catalog_entry(name, dimension)
        for p in (1.0, 2.0, 4.0):
            if p > entry.max_p:
                continue
            ref = entry.norm(p, cfg)
            for t in (1e-4, 0.1, 1.0, 10.0):
                for sg in SEMIGROUPS.values():
                    moved = sg.transform(entry.rep, t, cfg)
                    worst = max(worst, gaussian_norm(moved, p, cfg) / ref - 1.0)
    return worst


def _inclusion_samples(samples: int, seed: int):
    """(dims, apexes, points, times) of the cone-inclusion check.

    Sample i lives in R^{dims[i]}, dims drawn in 1..3; its apex and point
    are rows of (samples, 3) arrays whose coordinates past dims[i] are zero.
    """
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 4, size=samples)
    apexes = rng.uniform(-5.0, 5.0, size=(samples, 3))
    times = rng.uniform(1e-6, 0.3, size=samples)
    offsets = rng.uniform(-1.0, 1.0, size=(samples, 3))
    live = np.arange(3) < dims[:, None]
    return dims, np.where(live, apexes, 0.0), np.where(live, apexes + offsets, 0.0), times


def _cone_inclusion_margin(samples: int, seed: int) -> float:
    """Samples inside the truncated-parabolic cone but outside the parabolic-gaussian one."""
    _, x, y, times = _inclusion_samples(samples, seed)
    inner = _contains("truncated-parabolic", x, y, times)
    outer = _contains("parabolic-gaussian", x, y, times)
    return float(np.count_nonzero(inner & ~outer))


def _convergence_monotone_margin(cfg: QuadratureConfig) -> float:
    config = ExperimentConfig(
        dimension=1,
        semigroup="ou",
        function="h_2",
        apexes=((1.0,), (0.0,)),
        cone="parabolic-gaussian",
        eta=0.3,
        decay=0.6,
        path_points=40,
        quadrature=cfg,
    )
    records = run_convergence(config)
    worst = 0.0
    by_apex = {}
    for rec in records:
        by_apex.setdefault(rec.apex, []).append(rec)
    for recs in by_apex.values():
        recs = sorted(recs, key=lambda r: -r.alpha)
        for a, b in zip(recs, recs[1:]):
            worst = max(worst, b.sup_error - a.sup_error)
    return worst


def _domination_stability_margins(cfg: QuadratureConfig) -> tuple[float, float]:
    """(worst ratio vs recorded constant, relative drift under 2x refinement)."""
    apexes = tuple((float(x),) for x in (-3.0, -1.0, 0.0, 1.0, 3.0))
    worst_ratio = 0.0
    worst_drift = 0.0
    for name in ("one", "bump", "ball"):
        config = ExperimentConfig(
            dimension=1, function=name, apexes=apexes, quadrature=cfg
        )
        base = run_domination_report(config, refine_factor=1)
        fine = run_domination_report(config, refine_factor=2)
        worst_ratio = max(worst_ratio, base["max_ratio"], fine["max_ratio"])
        drift = abs(fine["max_ratio"] - base["max_ratio"]) / base["max_ratio"]
        worst_drift = max(worst_drift, drift)
    return worst_ratio, worst_drift


def run_verify_suite(
    level: str = "fast", cfg: QuadratureConfig = DEFAULT_CONFIG, seed: int = 20240814
) -> dict:
    """Execute the cross-module invariants; returns a JSON-ready report."""
    if level not in VERIFY_LEVELS:
        raise ValueError(f"level: must be one of {VERIFY_LEVELS}, got {level!r}")
    records = []

    def check(name: str, margin: float, tolerance: float):
        records.append(
            {
                "invariant": name,
                "margin": float(margin),
                "tolerance": float(tolerance),
                "pass": bool(margin <= tolerance),
            }
        )

    ortho_dims = (1, 2) if level == "fast" else (1, 2, 3)
    for d in ortho_dims:
        check(f"hermite-orthonormality-d{d}", _orthonormality_margin(d, 6, cfg), 1e-8)
    check("hermite-eigenrelation", _eigenrelation_margin(2, 6, seed), 1e-8)
    check("ou-markov", _markov_margin(cfg), 1e-10)
    check("ou-route-agreement", _route_margin(OU, cfg, seed, 1, 1.5, (1, 2), (0.1, 1.0)), 1e-8)
    check("poisson-bochner-identity", _bochner_margin(), 1e-10)
    ou_law, po_law, spec_law = _semigroup_law_margins(cfg)
    check("ou-semigroup-law", ou_law, 1e-7)
    check("poisson-semigroup-law", po_law, 1e-5)
    check("spectral-semigroup-law", spec_law, 1e-12)
    smooth = ("one", "h_1", "h_2", "x2", "bump")
    check("lp-contraction", _contraction_margin(cfg, smooth), 1e-6)
    samples = 10_000 if level == "fast" else 100_000
    check("cone-inclusion", _cone_inclusion_margin(samples, seed), 0.0)
    check("convergence-monotone", _convergence_monotone_margin(cfg), 0.0)
    po_dims, po_times = ((1,), (0.5, 2.0)) if level == "fast" else ((1, 2), (0.1, 1.0, 4.0))
    check("poisson-route-agreement",
          _route_margin(POISSON, cfg, seed, 5, 1.0, po_dims, po_times), 1e-6)
    if level == "full":
        ratio, drift = _domination_stability_margins(cfg)
        check(
            "domination-recorded-constant",
            ratio,
            RECORDED_DOMINATION_CONSTANT * 1.05,
        )
        check("domination-refinement-drift", drift, 0.05)
    report = {
        "level": level,
        "pass": all(r["pass"] for r in records),
        "records": records,
    }
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(repr(float(c)) for c in value)
    return str(value)


def _csv(fields: tuple, rows) -> str:
    """A header of the field names, then each row's fields by `_fmt`."""
    lines = [",".join(fields)] + [",".join(_fmt(row[k]) for k in fields) for row in rows]
    return "\n".join(lines) + "\n"


def convergence_csv(records: list[ConvergenceRecord]) -> str:
    rows = (asdict(r) for r in sorted(records, key=lambda r: (r.apex, r.alpha)))
    return _csv(("apex", "alpha", "sup_error", "y_star", "t_star"), rows)


def contrast_csv(rows: list[dict]) -> str:
    return _csv(("apex", "path", "t", "y", "error", "in_cone"), rows)


def domination_csv(report: dict) -> str:
    return _csv(("apex", "maximal", "hl_maximal", "ratio"), report["rows"])


def to_json(payload) -> str:
    """Deterministic JSON: sorted keys, no timestamps, round-trip floats."""
    return json.dumps(payload, sort_keys=True, indent=2, default=asdict) + "\n"
