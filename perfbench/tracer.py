"""Outside-in tracing of `mehler`: spans around public functions, from the bench.

`Tracer.install` replaces each traced function in every `mehler` namespace
that binds it. `from .ou import nontangential_maximal` copies the name into
`mehler.experiments`, `mehler.poisson` and the package, and a wrapper put in
one namespace only would miss calls made through the others, so the whole
module table is searched for the original object. `PointwiseFunction.values`
and `HermiteSeries.evaluate` are wrapped on their classes.

A span is (id, name, start, end, parent id, operation id, amount). Amount is
the number of points for evaluator spans and the grid size for cone suprema.
Spans stay in memory until the run ends; per-layer figures are derived from
them afterwards, with self time = duration - time covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name -> (module, attribute) of the traced function
FUNCTIONS = {
    "ou.apply": ("mehler.ou", "ou_apply"),
    "ou.apply_kernel": ("mehler.ou", "ou_apply_kernel"),
    "ou.apply_change_of_var": ("mehler.ou", "ou_apply_change_of_var"),
    "ou.apply_spectral": ("mehler.ou", "ou_apply_spectral"),
    "ou.maximal": ("mehler.ou", "ou_maximal"),
    "ou.nontangential_maximal": ("mehler.ou", "nontangential_maximal"),
    "ou.maximal_bound_report": ("mehler.ou", "maximal_bound_report"),
    "ou.transform": ("mehler.ou", "ou_transform"),
    "poisson.apply": ("mehler.poisson", "poisson_apply"),
    "poisson.apply_subordination": ("mehler.poisson", "poisson_apply_subordination"),
    "poisson.apply_kernel": ("mehler.poisson", "poisson_apply_kernel"),
    "poisson.apply_spectral": ("mehler.poisson", "poisson_apply_spectral"),
    "poisson.maximal": ("mehler.poisson", "poisson_maximal"),
    "poisson.nontangential_maximal": ("mehler.poisson", "poisson_nontangential_maximal"),
    "poisson.transform": ("mehler.poisson", "poisson_transform"),
    "measure.hl_maximal": ("mehler.measure", "hl_maximal"),
    "measure.gaussian_norm": ("mehler.measure", "gaussian_norm"),
    "measure.ball_measure": ("mehler.measure", "gaussian_ball_measure"),
    "cones.path": ("mehler.cones", "cone_path"),
    "cones.contains": ("mehler.cones", "cone_contains"),
    "cones.tangential_path": ("mehler.cones", "tangential_path"),
    "catalog.catalog": ("mehler.catalog", "catalog"),
    "catalog.entry": ("mehler.catalog", "catalog_entry"),
    "experiments.run_convergence": ("mehler.experiments", "run_convergence"),
    "experiments.run_tangential_contrast": ("mehler.experiments", "run_tangential_contrast"),
    "experiments.run_domination_report": ("mehler.experiments", "run_domination_report"),
    "experiments.run_verify_suite": ("mehler.experiments", "run_verify_suite"),
}

# evaluators built by ou_transform / poisson_transform carry names "T_<t>[...]"
# and "P_<t>[...]"; every other PointwiseFunction is a black-box f
TRANSFORM_PREFIXES = ("T_", "P_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack = [-1]
        self._next = 0
        self.op = -1
        self.block_bytes_max = 0
        self._bindings: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_of, amount_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name_of(args), start, end, parent, self.op,
                               amount_of(args, result)))

        return traced

    def _bind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._bindings.append((owner, key, original, wrapper))

    def install(self) -> None:
        """Put the wrappers in place; `uninstall` restores the originals."""
        from mehler.hermite import HermiteSeries, PointwiseFunction

        if self._bindings:
            for owner, key, _, wrapper in self._bindings:
                setattr(owner, key, wrapper)
            return
        modules = [mod for key, mod in sys.modules.items()
                   if key == "mehler" or key.startswith("mehler.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            nid = self._name_id(name)
            amount = _grid_size if name.endswith("nontangential_maximal") else _none
            wrapper = self._wrap(original, lambda args, nid=nid: nid, amount)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

        f_id, transform_id = self._name_id("hermite.f"), self._name_id("hermite.transform")

        def evaluator_kind(args):
            return transform_id if args[0].name.startswith(TRANSFORM_PREFIXES) else f_id

        def points(args, result):
            block = np.asarray(args[1])
            self.block_bytes_max = max(self.block_bytes_max, block.size * 8)
            return block.shape[0]

        values = PointwiseFunction.values
        self._bind(PointwiseFunction, "values", values, self._wrap(values, evaluator_kind, points))
        series_id = self._name_id("hermite.series_eval")
        evaluate = HermiteSeries.evaluate
        self._bind(HermiteSeries, "evaluate", evaluate,
                   self._wrap(evaluate, lambda args: series_id, _none))

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns, with self time and the parent's row index."""
        if not self.spans:
            cols = [np.empty(0)] * 7
        else:
            cols = [np.asarray(c) for c in zip(*self.spans)]
        sid, name, start, end, parent, op, amount = cols
        row_of = np.full(self._next + 1, -1, dtype=np.int64)
        row_of[sid.astype(np.int64)] = np.arange(sid.size)
        parent_row = np.where(parent >= 0, row_of[np.maximum(parent, 0).astype(np.int64)], -1)
        duration = end - start
        covered = np.zeros(sid.size)
        has_parent = parent_row >= 0
        np.add.at(covered, parent_row[has_parent], duration[has_parent])
        return {
            "name": name.astype(np.int64), "start": start, "end": end,
            "parent_row": parent_row, "op": op.astype(np.int64),
            "amount": amount.astype(float), "duration": duration, "self": duration - covered,
        }

    def save(self, path: str) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **cols)


def _none(args, result) -> int:
    return 0


def _grid_size(args, result) -> int:
    return 0 if result is None else int(result.grid_size)


def _ancestor_in(rows: np.ndarray, parent_row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each row, whether some strict ancestor satisfies mask."""
    out = np.zeros(rows.size, dtype=bool)
    for i, row in enumerate(rows):
        p = parent_row[row]
        while p >= 0 and not mask[p]:
            p = parent_row[p]
        out[i] = p >= 0
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer counts and times over the traced passes, per pass."""
    a = tracer.arrays()
    names, parent_row = tracer.names, a["parent_row"]

    def mask(*wanted: str) -> np.ndarray:
        ids = [names.index(w) for w in wanted if w in names]
        return np.isin(a["name"], ids)

    def total(column: str, m: np.ndarray) -> float:
        return float(np.sum(a[column][m])) / passes

    def count(m: np.ndarray) -> float:
        return float(np.count_nonzero(m)) / passes

    def child_of(m: np.ndarray) -> np.ndarray:
        return (parent_row >= 0) & m[np.maximum(parent_row, 0)]

    f, transform = mask("hermite.f"), mask("hermite.transform")
    f_points, f_calls, f_s = total("amount", f), count(f), total("duration", f)
    outer_transform = transform.copy()
    rows = np.flatnonzero(transform)
    outer_transform[rows] = ~_ancestor_in(rows, parent_row, transform)
    subordination = mask("poisson.apply_subordination")
    sub_children = child_of(subordination) & (f | transform)
    fed_applies = np.unique(parent_row[sub_children]).size
    hl = mask("measure.hl_maximal")
    return {
        "hermite.f_points": f_points,
        "hermite.f_calls": f_calls,
        "hermite.points_per_call": f_points / f_calls if f_calls else 0.0,
        "hermite.f_s": f_s,
        "hermite.f_points_per_s": f_points / f_s if f_s else 0.0,
        "hermite.block_mb_max": tracer.block_bytes_max / 1e6,
        "hermite.series_eval_calls": count(mask("hermite.series_eval")),
        "hermite.series_eval_s": total("duration", mask("hermite.series_eval")),
        "hermite.transform_points": total("amount", transform),
        "hermite.transform_s": total("duration", outer_transform),
        "ou.cone_sup_calls": count(mask("ou.nontangential_maximal")),
        "ou.cone_sup_self_s": total("self", mask("ou.nontangential_maximal")),
        "ou.cone_cells": total("amount", mask("ou.nontangential_maximal")),
        "ou.apply_calls": count(mask("ou.apply")),
        "ou.apply_s": total("duration", mask("ou.apply")),
        "ou.time_sup_s": total("duration", mask("ou.maximal")),
        "ou.kernel_route_s": total("duration", mask("ou.apply_kernel")),
        "poisson.apply_calls": count(subordination),
        "poisson.apply_self_s": total("self", subordination),
        "poisson.f_calls_per_apply": np.count_nonzero(sub_children) / fed_applies if fed_applies else 0.0,
        "poisson.cone_sup_s": total("duration", mask("poisson.nontangential_maximal")),
        "poisson.kernel_route_s": total("duration", mask("poisson.apply_kernel")),
        "measure.hl_calls": count(hl),
        "measure.hl_self_s": total("self", hl),
        "measure.ball_points": total("amount", f & child_of(hl)),
        "measure.norm_s": total("duration", mask("measure.gaussian_norm")),
        "cones.path_s": total("duration", mask("cones.path")),
        "cones.contains_calls": count(mask("cones.contains")),
        "cones.contains_s": total("duration", mask("cones.contains")),
        "experiments.self_s": total("self", mask(*[n for n in names if n.startswith("experiments.")])),
    }
