"""Normalized Hermite calculus over the gaussian measure.

Conventions used throughout the package:

* The gaussian measure on R^d has density gamma_d(x) = exp(-|x|^2) / pi^(d/2),
  so each coordinate has variance 1/2.
* H_n denotes the physicists' Hermite polynomials (weight exp(-x^2), leading
  coefficient 2^n).  The normalized family is

      h_beta(x) = prod_i H_{beta_i}(x_i) / sqrt(2^|beta| * beta!),

  which is an orthonormal basis of L^2(gamma_d).
* The second-order operator L = (1/2) Laplacian - <x, grad> satisfies
  L h_beta = -|beta| h_beta.

Evaluation uses the recurrence for the normalized polynomials directly,

    h_{k+1}(x) = sqrt(2/(k+1)) * x * h_k(x) - sqrt(k/(k+1)) * h_{k-1}(x),

which keeps every intermediate value at unit scale (no 2^n n! factors appear,
so there is no overflow for any supported degree).

Every integral against gamma_d takes the tensor Gauss-Hermite rule of
`_gh_rule_1d`, built here by Golub-Welsch (1969): the nodes are the
eigenvalues of the Jacobi matrix of the recurrence, polished by two Newton
steps; the weights are the Christoffel numbers 1 / sum_{k<n} h_k(x_i)^2,
carried in log scale so that n <= 1024 neither overflows nor loses its
small weights; nodes and weights are made exactly symmetric.  Against
40-digit mpmath rules the nodes agree to 2e-15 and the weights to 3e-14
relative at n = 64; against scipy's `roots_hermite` up to n = 1024, to
3e-14 in the nodes and 6e-13 relative in every weight above 1e-290.  The
weights sum to sqrt(pi) within 2e-15.

Everything in this module is immutable and stateless after construction;
the node caches are filled once per (dimension, node-count) pair and shared.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Union

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "MultiIndex",
    "HermiteSeries",
    "PointwiseFunction",
    "SeriesFunction",
    "FunctionRep",
    "LogGrid",
    "QuadratureConfig",
    "NonFiniteValueError",
    "as_function",
    "as_points",
    "enumerate_multi_indices",
    "fourier_hermite_coeff",
    "gauss_hermite_grid",
    "generator_apply",
    "hermite_deriv",
    "hermite_eval",
    "hermite_expand",
    "hermite_values_1d",
    "project_chaos",
]

# Degrees above this are outside the supported domain: quadrature exactness
# and the experiment grids are sized for low-degree expansions.
MAX_DEGREE = 60


class NonFiniteValueError(ArithmeticError):
    """A function produced a non-finite value at a quadrature node.

    Carries the offending node so the caller can see where the integrand
    blew up instead of silently propagating NaN through a reduction.
    """

    def __init__(self, what: str, node: np.ndarray, value: float):
        self.node = np.asarray(node, dtype=float)
        self.value = float(value)
        super().__init__(
            f"{what} is not finite at node {self.node.tolist()}: {self.value!r}"
        )


def _require_finite(values: np.ndarray, points: np.ndarray, what: str) -> None:
    # Cheap vectorized guard; only hunts for the offending node on failure.
    vals = np.asarray(values, dtype=float).ravel()
    if np.isfinite(vals).all():
        return
    bad = int(np.flatnonzero(~np.isfinite(vals))[0])
    pts = np.asarray(points, dtype=float).reshape(vals.shape[0], -1)
    raise NonFiniteValueError(what, pts[bad], float(vals[bad]))


@dataclass(frozen=True, order=False)
class MultiIndex:
    """Multi-index beta in N_0^d, the label of one Hermite basis function."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise ValueError("multi-index needs at least one entry (d >= 1)")
        for e in self.entries:
            if not isinstance(e, (int, np.integer)) or isinstance(e, bool):
                raise ValueError(f"multi-index entries must be integers, got {e!r}")
            if e < 0:
                raise ValueError(f"multi-index entries must be >= 0, got {e}")
        if sum(self.entries) > MAX_DEGREE:
            raise ValueError(
                f"degree {sum(self.entries)} exceeds the supported cap {MAX_DEGREE}"
            )
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)

    def graded_key(self) -> tuple:
        # Graded lexicographic: sort by total degree, then with the earlier
        # coordinate dominating, so (1,0) precedes (0,1).
        return (self.degree, tuple(-e for e in self.entries))

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"MultiIndex{self.entries!r}"


def _as_multi_index(beta, dimension: int | None = None) -> MultiIndex:
    if isinstance(beta, MultiIndex):
        mi = beta
    elif isinstance(beta, (int, np.integer)):
        mi = MultiIndex((int(beta),))
    else:
        mi = MultiIndex(tuple(beta))
    if dimension is not None and mi.dimension != dimension:
        raise ValueError(
            f"multi-index dimension {mi.dimension} does not match {dimension}"
        )
    return mi


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # All ways to write `total` as `parts` ordered nonnegative integers,
    # first coordinate descending -- the within-degree graded-lex order.
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


def enumerate_multi_indices(dimension: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices with |beta| <= max_degree in graded lexicographic order.

    The count is binomial(dimension + max_degree, dimension).
    """
    if not isinstance(dimension, (int, np.integer)) or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    if not isinstance(max_degree, (int, np.integer)) or max_degree < 0:
        raise ValueError(f"max_degree must be a nonnegative integer, got {max_degree!r}")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree {max_degree} exceeds the supported cap {MAX_DEGREE}")
    out: list[MultiIndex] = []
    for n in range(max_degree + 1):
        for comp in _compositions_desc(n, int(dimension)):
            out.append(MultiIndex(comp))
    return out


# ---------------------------------------------------------------------------
# grids and configuration
# ---------------------------------------------------------------------------


def _require_count(name: str, value) -> None:
    """Raise unless value is an integer; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class LogGrid:
    """A log-spaced grid on [lo, hi], used for suprema over scales."""

    count: int = 64
    lo: float = 1e-4
    hi: float = 10.0

    def __post_init__(self):
        _require_count("count", self.count)
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")
        if not (0.0 < self.lo < self.hi < math.inf):
            raise ValueError(f"grid bounds must be finite, 0 < lo < hi: [{self.lo}, {self.hi}]")

    def values(self) -> np.ndarray:
        return np.geomspace(self.lo, self.hi, self.count)

    def refined(self, factor: int = 2) -> "LogGrid":
        """The grid with each gap split in `factor`: it contains every point of this one."""
        return LogGrid((self.count - 1) * factor + 1, self.lo, self.hi)


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts, grids, and cutoffs for every quadrature in the package.

    gh_nodes        Gauss-Hermite nodes per axis (tensorized in dimension d).
    radius_grid     log grid of ball radii for the Hardy-Littlewood supremum.
    time_grid       log grid of semigroup times for the time suprema.
    ball_nodes      polar ball rule: ball_nodes/8 radii per ladder panel, and
                    ball_nodes (d = 2) or ball_nodes^2/8 (d = 3) directions.
    cross_radial    radial points per cone cross-section (clustered at the rim).
    cross_angular   directions per cross-section: a circle in d = 2, a
                    sphere spiral (at least 4) in d = 3.

    The subordination integral of P_t (`mehler.poisson.SubordinationQuadrature`)
    and the panels of its kernel route have fixed rules; `refined` leaves them alone.
    The block budget of the Gauss-Hermite and ball integrals, _BLOCK_POINTS
    f-points per call of f, is a constant of this module, not a field.
    """

    gh_nodes: int = 64
    radius_grid: LogGrid = field(default_factory=lambda: LogGrid(64, 1e-3, 8.0))
    time_grid: LogGrid = field(default_factory=lambda: LogGrid(64, 1e-4, 10.0))
    ball_nodes: int = 64
    cross_radial: int = 8
    cross_angular: int = 8

    def __post_init__(self):
        for name in ("gh_nodes", "ball_nodes", "cross_radial", "cross_angular"):
            _require_count(name, getattr(self, name))
        if not (2 <= self.gh_nodes <= 1024):
            raise ValueError(f"gh_nodes must be in [2, 1024], got {self.gh_nodes}")
        if self.ball_nodes < 2:
            raise ValueError(f"ball_nodes must be >= 2, got {self.ball_nodes}")
        if self.cross_radial < 2 or self.cross_angular < 1:
            raise ValueError("cross-section grid needs >= 2 radial and >= 1 angular points")

    def refined(self, factor: int = 2) -> "QuadratureConfig":
        """Same configuration with every grid `factor` times finer."""
        return QuadratureConfig(
            gh_nodes=min(1024, self.gh_nodes * factor),
            radius_grid=self.radius_grid.refined(factor),
            time_grid=self.time_grid.refined(factor),
            ball_nodes=self.ball_nodes * factor,
            cross_radial=self.cross_radial * factor,
            cross_angular=self.cross_angular * factor,
        )


DEFAULT_CONFIG = QuadratureConfig()

# central finite-difference step of generator_apply on black-box inputs
_FD_STEP = 1e-4
# projected coefficients at or below this magnitude are dropped
_COEFF_PRUNE = 1e-12


# ---------------------------------------------------------------------------
# function representations
# ---------------------------------------------------------------------------


def as_points(x, dimension: int) -> tuple[np.ndarray, bool]:
    """Normalize `x` to an (n, dimension) array.

    Returns the array and a flag telling whether the input was a single point
    (so scalar-shaped output is appropriate).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dimension != 1:
            raise ValueError(f"scalar point given but dimension is {dimension}")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if arr.shape[0] != dimension:
            raise ValueError(f"point has {arr.shape[0]} coordinates, expected {dimension}")
        return arr.reshape(1, dimension), True
    if arr.ndim == 2:
        if arr.shape[1] != dimension:
            raise ValueError(f"points have {arr.shape[1]} coordinates, expected {dimension}")
        return arr, False
    raise ValueError(f"points array must have ndim <= 2, got shape {arr.shape}")


def _single_point(x, dimension: int) -> np.ndarray:
    pts, single = as_points(x, dimension)
    if not single:
        raise ValueError("expected a single point")
    return pts[0]


@dataclass(frozen=True, eq=False)
class HermiteSeries:
    """A finite linear combination of normalized Hermite functions.

    coefficients maps MultiIndex -> float; zero coefficients are dropped.
    """

    dimension: int
    coefficients: Mapping

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        clean: dict[MultiIndex, float] = {}
        for beta, c in dict(self.coefficients).items():
            mi = _as_multi_index(beta, self.dimension)
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"coefficient for {mi} is not finite: {c!r}")
            if c != 0.0:
                clean[mi] = c
        object.__setattr__(self, "coefficients", clean)

    @property
    def degree(self) -> int:
        return max((b.degree for b in self.coefficients), default=0)

    def terms(self) -> list[tuple[MultiIndex, float]]:
        """Coefficients in graded lexicographic order (deterministic)."""
        return sorted(self.coefficients.items(), key=lambda kv: kv[0].graded_key())

    def coefficient(self, beta) -> float:
        return self.coefficients.get(_as_multi_index(beta, self.dimension), 0.0)

    def evaluate(self, x) -> Union[float, np.ndarray]:
        pts, single = as_points(x, self.dimension)
        vals = _series_values(self, pts)
        return float(vals[0]) if single else vals

    def __repr__(self) -> str:
        inner = ", ".join(f"{b.entries}: {c:.6g}" for b, c in self.terms())
        return f"HermiteSeries(d={self.dimension}, {{{inner}}})"


@dataclass(frozen=True, eq=False)
class PointwiseFunction:
    """A black-box function of points in R^d.

    evaluator maps a float (n, d) array to an (n,) array when
    vectorized=True, otherwise a single length-d point to a float. The
    quadrature routes hand it coordinate-major blocks: the (n, d) array may
    be Fortran-ordered, so an evaluator must not assume C-contiguity.
    """

    dimension: int
    evaluator: Callable
    vectorized: bool = True
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not callable(self.evaluator):
            raise ValueError("evaluator must be callable")

    def values(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.vectorized:
            out = np.asarray(self.evaluator(pts), dtype=float)
            if out.shape != (pts.shape[0],):
                raise ValueError(
                    f"vectorized evaluator returned shape {out.shape}, "
                    f"expected ({pts.shape[0]},)"
                )
            return out
        return np.array([float(self.evaluator(p)) for p in pts], dtype=float)

    def __call__(self, x) -> Union[float, np.ndarray]:
        pts, single = as_points(x, self.dimension)
        vals = self.values(pts)
        return float(vals[0]) if single else vals


@dataclass(frozen=True, eq=False)
class SeriesFunction:
    """A function given exactly by a Hermite series (enables spectral routes)."""

    series: HermiteSeries
    name: str = ""

    @property
    def dimension(self) -> int:
        return self.series.dimension

    def values(self, points: np.ndarray) -> np.ndarray:
        return _series_values(self.series, np.asarray(points, dtype=float))

    def __call__(self, x) -> Union[float, np.ndarray]:
        return self.series.evaluate(x)


FunctionRep = Union[PointwiseFunction, SeriesFunction]


def as_function(f, dimension: int | None = None) -> FunctionRep:
    """Coerce a series, FunctionRep, or raw callable into a FunctionRep."""
    if isinstance(f, (PointwiseFunction, SeriesFunction)):
        if dimension is not None and f.dimension != dimension:
            raise ValueError(f"function dimension {f.dimension} does not match {dimension}")
        return f
    if isinstance(f, HermiteSeries):
        if dimension is not None and f.dimension != dimension:
            raise ValueError(f"series dimension {f.dimension} does not match {dimension}")
        return SeriesFunction(f)
    if callable(f):
        if dimension is None:
            raise ValueError("a raw callable needs an explicit dimension")
        return PointwiseFunction(dimension, f, vectorized=False)
    raise ValueError(f"cannot interpret {type(f).__name__} as a function representation")


# ---------------------------------------------------------------------------
# quadrature plumbing
# ---------------------------------------------------------------------------


def _orthonormal_tail(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_{n-1}, h_n, log sum_{k<n} h_k^2) at x, h_k orthonormal for exp(-x^2) dx.

    h_{n-1} and h_n share one positive power-of-two factor per point, so that
    neither overflows; rescaling by powers of two is exact.
    """
    prev = np.zeros_like(x)
    cur = np.full_like(x, math.pi ** -0.25)
    total = cur * cur
    exps = np.zeros(x.shape, dtype=int)
    for k in range(1, n + 1):
        prev, cur = cur, math.sqrt(2.0 / k) * x * cur - math.sqrt((k - 1) / k) * prev
        _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
        prev, cur, total = np.ldexp(prev, -e), np.ldexp(cur, -e), np.ldexp(total, -2 * e)
        exps += e
        if k < n:
            total += cur * cur
    return prev, cur, np.log(total) + (2.0 * math.log(2.0)) * exps


@lru_cache(maxsize=64)
def _gh_rule_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for exp(-x^2) dx, by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix, off-diagonal
    sqrt(k/2), polished by two Newton steps with h_n' = sqrt(2n) h_{n-1};
    the weights are 1 / sum_{k<n} h_k(x_i)^2, taken in log scale.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        prev, last, _ = _orthonormal_tail(nodes, n)
        nodes = nodes - last / (math.sqrt(2.0 * n) * prev)
    weights = np.exp(-_orthonormal_tail(nodes, n)[2])
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=32)
def gauss_hermite_grid(dimension: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule normalized against gamma_d.

    Returns (points, weights) with points of shape (n^d, d), d <= 3, and
    weights summing to 1, so  integral of g dgamma_d ~= weights @ g(points).
    Both are read-only; points is Fortran-ordered (points.T is C-contiguous).
    """
    if not 1 <= dimension <= 3:
        raise ValueError(f"Gauss-Hermite grids are built for 1 <= d <= 3, got d = {dimension}")
    if n ** dimension > 40_000_000:
        raise ValueError(f"tensor rule with {n}^{dimension} nodes is too large")
    xi, w = _gh_rule_1d(n)
    w1 = w / math.sqrt(math.pi)
    grids = np.meshgrid(*([xi] * dimension), indexing="ij")
    # coordinate-major: pts.T is C-contiguous, so each column of pts is contiguous
    pts = np.stack([g.ravel() for g in grids]).T
    wt = w1
    for _ in range(dimension - 1):
        wt = np.multiply.outer(wt, w1)
    wts = wt.ravel()
    pts.flags.writeable = False
    wts.flags.writeable = False
    return pts, wts


# f-points per call of f in every quadrature pass (`_gh_blocks`); one
# block's coordinates take 8 * d * _BLOCK_POINTS bytes
_BLOCK_POINTS = 1 << 14


def _gh_blocks(values: Callable | None, centres: np.ndarray, scales: np.ndarray,
               rule: tuple[np.ndarray, np.ndarray], what: str = "integrand"):
    """f on centres[a] + scales[a] * nodes for every anchor a, the one packer of f's calls.

    rule is (nodes (m, d), weights (m,)), nodes Fortran-ordered like
    gauss_hermite_grid's. centres is (anchors, d), or a single row that
    every anchor shares (a ball about one point): then it is broadcast, so
    a block adds it to d long rows, not to one short row per anchor (per
    anchor, the d = 3 ball profile of 16 radii took 40% longer). The
    anchors, one per scale, are taken in order in groups of
    _BLOCK_POINTS // m, or one when m alone exceeds _BLOCK_POINTS. Yields
    (group, blocks) per group, group the slice of its anchors, blocks
    yielding (points, values shaped (anchors, slice nodes), weights) per
    node slice of at most _BLOCK_POINTS: one slice unless m exceeds it. f
    takes every anchor of a slice in one call, on a Fortran-ordered (n, d)
    view of a C-contiguous (d, n) buffer, so a row norm inside f adds d
    contiguous columns instead of reducing short rows. A value that is not
    finite raises NonFiniteValueError, named by `what` and its node. With
    values None the walk calls no f and yields values None. One anchor
    gives one group.
    """
    nodes, wts = rule
    shared = centres.shape[0] == 1

    def blocks(group):
        centre = (centres if shared else centres[group]).T[:, :, None]
        scale = scales[group][None, :, None]
        for lo in range(0, wts.size, _BLOCK_POINTS):
            pts = centre + scale * nodes.T[:, None, lo : lo + _BLOCK_POINTS]
            pts = pts.reshape(len(centre), -1).T
            vals = None if values is None else values(pts).reshape(scale.size, -1)
            if vals is not None:
                _require_finite(vals, pts, what)
            yield pts, vals, wts[lo : lo + _BLOCK_POINTS]

    per_call = max(1, _BLOCK_POINTS // wts.size)
    for start in range(0, scales.size, per_call):
        group = slice(start, start + per_call)
        yield group, blocks(group)


def _coefficients(values: Callable, dimension: int, betas, cfg: QuadratureConfig) -> np.ndarray:
    """<g, h_beta> in L^2(gamma_d) for each beta, g given by values(points).

    g is taken by _gh_blocks at the one anchor (0, 1). Each block adds
    np.dot(weights, g * h_beta) to a sum that starts at -0.0, the exact
    identity of +, so one block gives np.dot's value bit for bit.
    """
    out = np.full(len(betas), -0.0)
    rule = gauss_hermite_grid(dimension, cfg.gh_nodes)
    _, blocks = next(_gh_blocks(values, np.zeros((1, dimension)), np.ones(1), rule))
    for pts, vals, wts in blocks:
        for i, row in enumerate(_hermite_rows([(b, 1.0) for b in betas], pts)):
            out[i] += np.dot(wts, vals[0] * row)
    return out


def hermite_values_1d(max_degree: int, xi: np.ndarray) -> np.ndarray:
    """Table of normalized 1-d Hermite values, shape (max_degree+1, len(xi)).

    Row k holds h_k(xi) computed with the normalized three-term recurrence;
    every row has unit L^2(gamma_1) norm so values stay at working scale.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise ValueError(f"max_degree {max_degree} exceeds the supported cap {MAX_DEGREE}")
    xi = np.asarray(xi, dtype=float)
    table = np.empty((max_degree + 1, xi.shape[0]))
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = math.sqrt(2.0) * xi
    for k in range(1, max_degree):
        table[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * xi * table[k]
            - math.sqrt(k / (k + 1.0)) * table[k - 1]
        )
    return table


def _hermite_rows(terms: list, pts: np.ndarray) -> Iterator[np.ndarray]:
    """Yield c * h_beta(pts) for each (beta, c) of `terms`, in order.

    One value table is built per axis, sized by the largest degree on that
    axis; each row starts from c and multiplies in the nonzero degrees.
    """
    tables = [
        hermite_values_1d(max((b[axis] for b, _ in terms), default=0), pts[:, axis])
        for axis in range(pts.shape[1])
    ]
    for b, c in terms:
        row = np.full(pts.shape[0], c)
        for axis, deg in enumerate(b):
            if deg:
                row = row * tables[axis][deg]
        yield row


def hermite_eval(beta, x) -> Union[float, np.ndarray]:
    """Evaluate the normalized Hermite function h_beta at x.

    x may be a scalar (d = 1), a length-d point, or an (n, d) batch.
    """
    mi = _as_multi_index(beta)
    pts, single = as_points(x, mi.dimension)
    vals = next(_hermite_rows([(mi, 1.0)], pts))
    return float(vals[0]) if single else vals


def hermite_deriv(beta, x, axis: int) -> Union[float, np.ndarray]:
    """Partial derivative of h_beta along `axis`.

    d/dxi h_k = sqrt(2k) h_{k-1}, applied to the unit series of h_beta by
    `_series_axis_derivative`: exact, no differencing.
    """
    mi = _as_multi_index(beta)
    if not (0 <= axis < mi.dimension):
        raise ValueError(f"axis {axis} out of range for dimension {mi.dimension}")
    pts, single = as_points(x, mi.dimension)
    unit = HermiteSeries(mi.dimension, {mi: 1.0})
    vals = _series_values(_series_axis_derivative(unit, axis), pts)
    return float(vals[0]) if single else vals


def _series_values(series: HermiteSeries, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[0])
    for row in _hermite_rows(series.terms(), pts):
        out += row
    return out


def _series_axis_derivative(series: HermiteSeries, axis: int, order: int = 1) -> HermiteSeries:
    # repeated application of d/dxi h_k = sqrt(2k) h_{k-1}
    coeffs = dict(series.coefficients)
    for _ in range(order):
        nxt: dict[MultiIndex, float] = {}
        for b, c in coeffs.items():
            k = b[axis]
            if k == 0:
                continue
            lowered = list(b.entries)
            lowered[axis] = k - 1
            key = MultiIndex(tuple(lowered))
            nxt[key] = nxt.get(key, 0.0) + c * math.sqrt(2.0 * k)
        coeffs = nxt
    return HermiteSeries(series.dimension, coeffs)


# ---------------------------------------------------------------------------
# coefficients, projections, generator
# ---------------------------------------------------------------------------


def fourier_hermite_coeff(f, beta, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Fourier-Hermite coefficient <f, h_beta> in L^2(gamma_d).

    Series inputs return the stored coefficient exactly; black-box inputs are
    integrated with the tensor Gauss-Hermite rule from `cfg`.
    """
    mi = _as_multi_index(beta)
    rep = as_function(f, dimension=None)
    if mi.dimension != rep.dimension:
        raise ValueError(
            f"multi-index dimension {mi.dimension} does not match function dimension {rep.dimension}"
        )
    if isinstance(rep, SeriesFunction):
        return rep.series.coefficient(mi)
    return float(_coefficients(rep.values, rep.dimension, [mi], cfg)[0])


def _projection(f: FunctionRep, degrees: range, cfg: QuadratureConfig) -> HermiteSeries:
    # the part of f on {h_beta : |beta| in degrees}; black-box coefficients
    # at or below _COEFF_PRUNE are dropped
    d = f.dimension
    if isinstance(f, SeriesFunction):
        kept = {b: c for b, c in f.series.coefficients.items() if b.degree in degrees}
        return HermiteSeries(d, kept)
    betas = [b for b in enumerate_multi_indices(d, degrees.stop - 1) if b.degree in degrees]
    coeffs = _coefficients(f.values, d, betas, cfg)
    return HermiteSeries(d, {b: c for b, c in zip(betas, coeffs) if abs(c) > _COEFF_PRUNE})


def project_chaos(f, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> HermiteSeries:
    """Projection J_n f onto the span of {h_beta : |beta| = n}.

    For black-box inputs every coefficient with |beta| = n is computed by
    quadrature; magnitudes at or below _COEFF_PRUNE are dropped so that
    polynomial inputs of degree < n project to the empty series.
    """
    rep = as_function(f, dimension=None)
    if n < 0:
        raise ValueError(f"chaos order must be >= 0, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"chaos order {n} exceeds the supported cap {MAX_DEGREE}")
    return _projection(rep, range(n, n + 1), cfg)


def hermite_expand(f, max_degree: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> HermiteSeries:
    """Hermite expansion of f through total degree max_degree."""
    return _projection(as_function(f, dimension=None), range(max_degree + 1), cfg)


def generator_apply(f, x) -> Union[float, np.ndarray]:
    """Apply L = (1/2) Laplacian - <x, grad> to f at x.

    Series inputs use the exact derivative identities coordinatewise (no
    eigenvalue shortcut, so the eigenrelation is a genuine check).  Black-box
    inputs use central differences with step _FD_STEP, accurate to
    O(step^2).
    """
    rep = as_function(f, dimension=None)
    d = rep.dimension
    pts, single = as_points(x, d)
    if isinstance(rep, SeriesFunction):
        out = np.zeros(pts.shape[0])
        for axis in range(d):
            second = _series_axis_derivative(rep.series, axis, order=2)
            first = _series_axis_derivative(rep.series, axis, order=1)
            out += 0.5 * _series_values(second, pts)
            out -= pts[:, axis] * _series_values(first, pts)
        return float(out[0]) if single else out
    h = _FD_STEP
    center = rep.values(pts)
    _require_finite(center, pts, "function value")
    out = np.zeros(pts.shape[0])
    for axis in range(d):
        shift = np.zeros(d)
        shift[axis] = h
        up = rep.values(pts + shift)
        dn = rep.values(pts - shift)
        _require_finite(up, pts + shift, "function value")
        _require_finite(dn, pts - shift, "function value")
        out += 0.5 * (up - 2.0 * center + dn) / (h * h)
        out -= pts[:, axis] * (up - dn) / (2.0 * h)
    return float(out[0]) if single else out
