"""Named test functions spanning the regimes the semigroup theory covers.

The catalog carries, per dimension:

  one           the constant 1
  h_<beta>      normalized Hermite functions, 1 <= |beta| <= 4
  x, x2, x3     powers of the first coordinate, stored as exact expansions
  bump          e^{-|x - (1,...,1)|^2}, bounded and continuous
  ball          indicator of the closed unit ball, discontinuous on the rim
  spike         (1 + |u|)^{-(d+1)} e^{|u|^2/2}, unbounded but in L^1(gamma)

Each entry knows its integrability ceiling (spike leaves L^p above p = 2)
and carries an L^p norm reference: closed forms where they exist, a radial
composite Gauss-Legendre rule for the spike. Gauss-Hermite norms are exact
for the polynomial entries, so those need no override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .hermite import (
    DEFAULT_CONFIG,
    FunctionRep,
    HermiteSeries,
    PointwiseFunction,
    QuadratureConfig,
    enumerate_multi_indices,
)
from .measure import _panel_points, gaussian_norm

CLASS_TAGS = ("polynomial", "bounded-continuous", "indicator", "L1-only")


@dataclass(frozen=True)
class TestFunction:
    """A named catalog entry with norm references and regime tags."""

    __test__ = False  # not a pytest case, despite the name

    name: str
    rep: FunctionRep
    class_tags: frozenset
    nonnegative: bool = False
    max_p: float = math.inf
    reference_norm: Callable[[float], float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.name:
            raise ValueError("catalog entries need a name")
        unknown = set(self.class_tags) - set(CLASS_TAGS)
        if unknown:
            raise ValueError(f"unknown class tags {sorted(unknown)}")

    @property
    def dimension(self) -> int:
        return self.rep.dimension

    def norm(self, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
        """||f||_{p,gamma}: reference value if one is known, else quadrature."""
        if p > self.max_p:
            return math.inf
        if self.reference_norm is not None:
            return float(self.reference_norm(p))
        return gaussian_norm(self.rep, p, cfg)


def _first_axis(dimension: int, degree: int) -> tuple[int, ...]:
    return (degree,) + (0,) * (dimension - 1)


def _bump_norm(dimension: int) -> Callable[[float], float]:
    # per axis: int e^{-p(x-1)^2} dgamma = e^{-p/(1+p)} / sqrt(1+p)
    def ref(p: float) -> float:
        per_axis = math.exp(-p / (1.0 + p)) / math.sqrt(1.0 + p)
        return per_axis ** (dimension / p)

    return ref


def _unit_ball_mass(dimension: int) -> float:
    if dimension == 1:
        return math.erf(1.0)
    if dimension == 2:
        return 1.0 - math.exp(-1.0)
    if dimension == 3:
        return math.erf(1.0) - 2.0 * math.exp(-1.0) / math.sqrt(math.pi)
    raise ValueError("closed ball mass known for d <= 3 only")


# composite Gauss-Legendre rule of the spike's radial integral on [0, 1)
_SPIKE_PANELS = 40
_SPIKE_ORDER = 20


@lru_cache(maxsize=32)
def _spike_norm_value(dimension: int, p: float) -> float:
    # radial reduction of int (1+|u|)^{-p(d+1)} e^{(p/2-1)|u|^2} dgamma
    surface = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dimension]
    power = p * (dimension + 1)
    coef = p / 2.0 - 1.0

    # on r = x / (1 - x): 1 + r = 1 / (1 - x) and dr = dx / (1 - x)^2
    edges = np.linspace(0.0, 1.0, _SPIKE_PANELS + 1)
    x, w = _panel_points(edges[:-1], edges[1:], _SPIKE_ORDER)
    r = x / (1.0 - x)
    vals = r ** (dimension - 1) * (1.0 - x) ** (power - 2.0) * np.exp(coef * r * r)
    val = float(w @ vals)
    return (surface / math.pi ** (dimension / 2.0) * val) ** (1.0 / p)


def _spike_norm(dimension: int) -> Callable[[float], float]:
    def ref(p: float) -> float:
        return _spike_norm_value(dimension, float(p))

    return ref


def _series_rep(dimension: int, coeffs: dict, name: str):
    from .hermite import SeriesFunction

    return SeriesFunction(HermiteSeries(dimension, coeffs), name=name)


@lru_cache(maxsize=4)
def _build_catalog(dimension: int) -> tuple[TestFunction, ...]:
    if dimension not in (1, 2, 3):
        raise ValueError(f"catalog is built for d in {{1, 2, 3}}, got {dimension}")
    d = dimension
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    entries = [
        TestFunction(
            name="one",
            rep=_series_rep(d, {(0,) * d: 1.0}, "one"),
            class_tags=frozenset({"polynomial", "bounded-continuous"}),
            nonnegative=True,
            reference_norm=lambda p: 1.0,
        )
    ]
    for beta in enumerate_multi_indices(d, 4):
        if beta.degree == 0:
            continue
        name = "h_" + "-".join(str(k) for k in beta.entries)
        entries.append(
            TestFunction(
                name=name,
                rep=_series_rep(d, {beta.entries: 1.0}, name),
                class_tags=frozenset({"polynomial"}),
            )
        )
    # powers of the first coordinate as exact expansions, degree -> coefficient
    powers = {
        "x": ({1: inv_sqrt2}, False),
        "x2": ({0: 0.5, 2: inv_sqrt2}, True),
        "x3": ({3: math.sqrt(3.0) / 2.0, 1: 3.0 / (2.0 * math.sqrt(2.0))}, False),
    }
    for name, (terms, nonnegative) in powers.items():
        coeffs = {_first_axis(d, k): c for k, c in terms.items()}
        entries.append(
            TestFunction(
                name=name,
                rep=_series_rep(d, coeffs, name),
                class_tags=frozenset({"polynomial"}),
                nonnegative=nonnegative,
            )
        )
    center = np.ones(d)
    entries.append(
        TestFunction(
            name="bump",
            rep=PointwiseFunction(
                d,
                lambda p: np.exp(-np.sum((p - center) ** 2, axis=1)),
                name="bump",
            ),
            class_tags=frozenset({"bounded-continuous"}),
            nonnegative=True,
            reference_norm=_bump_norm(d),
        )
    )
    ball_mass = _unit_ball_mass(d)
    entries.append(
        TestFunction(
            name="ball",
            rep=PointwiseFunction(
                d,
                lambda p: (np.sum(p * p, axis=1) <= 1.0).astype(float),
                name="ball",
            ),
            class_tags=frozenset({"indicator"}),
            nonnegative=True,
            reference_norm=lambda p: ball_mass ** (1.0 / p),
        )
    )

    def spike(p: np.ndarray) -> np.ndarray:
        sq = np.sum(p * p, axis=1)
        return (1.0 + np.sqrt(sq)) ** -(d + 1) * np.exp(0.5 * sq)

    entries.append(
        TestFunction(
            name="spike",
            rep=PointwiseFunction(d, spike, name="spike"),
            class_tags=frozenset({"L1-only"}),
            nonnegative=True,
            max_p=2.0,
            reference_norm=_spike_norm(d),
        )
    )
    names = [e.name for e in entries]
    if len(names) != len(set(names)):
        raise AssertionError("catalog names must be unique")
    return tuple(entries)


def catalog(dimension: int) -> dict[str, TestFunction]:
    """The test-function catalog for the given dimension, keyed by name."""
    return {e.name: e for e in _build_catalog(dimension)}


def catalog_entry(name: str, dimension: int) -> TestFunction:
    """Look up one catalog entry; raises with the available names on a miss."""
    table = catalog(dimension)
    if name not in table:
        raise KeyError(
            f"no catalog entry {name!r} in d={dimension}; available: {sorted(table)}"
        )
    return table[name]
