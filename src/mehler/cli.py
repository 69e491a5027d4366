"""Command-line front end.

Subcommands: hermite-eval, coeff, ou-apply, poisson-apply, maximal,
converge, contrast, dominate, verify.  Each parses only the flags its
handler reads: dominate always takes the truncated-parabolic OU cone, and
only verify takes a seed.  A flat key=value config file can preload any
optional flag of its subcommand (``--config run.cfg``; hermite-eval has
none): a key names a long flag, its value parses like the flag's, a key
that names no such flag is an error, and flags given on the command line
override the file.  The experiments write CSV (header row always present)
or JSON to --out or else stdout; verify always writes JSON to stdout, and
to --out as well, and exits nonzero when any invariant fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .catalog import catalog_entry
from .cones import CONE_KINDS
from .experiments import (
    SEMIGROUPS,
    VERIFY_LEVELS,
    ExperimentConfig,
    contrast_csv,
    convergence_csv,
    domination_csv,
    run_convergence,
    run_domination_report,
    run_tangential_contrast,
    run_verify_suite,
    to_json,
)
from .hermite import DEFAULT_CONFIG, SeriesFunction, fourier_hermite_coeff, hermite_eval

# config-file keys that may repeat: the repeatable (append) flags
_LIST_KEYS = {"apex"}


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def load_config_file(path: str) -> dict:
    """Flat key=value lines; '#' comments; repeated keys for list flags."""
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key in _LIST_KEYS:
            values.setdefault(key, []).append(value)
        else:
            values[key] = value
    return values


def _add_quadrature(p: argparse.ArgumentParser, dim: bool = True):
    p.add_argument("--config", help="flat key=value file preloading any optional flag")
    if dim:
        p.add_argument("--dim", type=int, default=1, help="ambient dimension (1, 2, or 3)")
    p.add_argument("--gh-nodes", type=int, dest="gh_nodes", help="Gauss-Hermite nodes per axis")


def _add_experiment(p: argparse.ArgumentParser, path: bool = True):
    """The flags of an experiment; path adds the semigroup and the cone path."""
    _add_quadrature(p)
    p.add_argument("--function", default="one", help="catalog entry name")
    p.add_argument(
        "--apex", type=_parse_floats, action="append",
        help="apex point, comma-separated; repeatable",
    )
    p.add_argument("--out", help="write output here instead of stdout")
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", dest="fmt", help="output format"
    )
    if path:
        p.add_argument("--semigroup", choices=SEMIGROUPS, default="ou")
        p.add_argument("--cone", choices=CONE_KINDS, default="parabolic-gaussian")
        p.add_argument("--eta", type=float, help="relative aperture of the path, in [0, 1)")
        p.add_argument("--decay", type=float, help="geometric time decay, in (0, 1)")
        p.add_argument("--path-points", type=int, dest="path_points", help="points per path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mehler",
        description="Hermite semigroups over the gaussian measure: evaluation, "
        "maximal functions, and cone-convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("hermite-eval", help="evaluate a normalized Hermite function")
    p.add_argument("--beta", type=_parse_ints, required=True, help="multi-index, comma-separated")
    p.add_argument("--x", type=_parse_floats, required=True, help="point, comma-separated")

    p = sub.add_parser("coeff", help="Fourier-Hermite coefficient of a catalog entry")
    _add_quadrature(p)
    p.add_argument("--function", required=True)
    p.add_argument("--beta", type=_parse_ints, required=True, help="multi-index, comma-separated")

    for name, sg in SEMIGROUPS.items():
        p = sub.add_parser(f"{name}-apply", help=f"apply the {name} semigroup at a point")
        p.set_defaults(semigroup=name)
        _add_quadrature(p)
        p.add_argument("--function", required=True)
        p.add_argument("--x", type=_parse_floats, required=True, help="point, comma-separated")
        p.add_argument("--t", type=float, required=True, help="semigroup time, >= 0")
        p.add_argument("--route", choices=("auto", *sg.routes, "spectral"), default="auto")

    p = sub.add_parser("maximal", help="time supremum of the semigroup at a point")
    _add_quadrature(p)
    p.add_argument("--function", required=True)
    p.add_argument("--x", type=_parse_floats, required=True, help="point, comma-separated")
    p.add_argument("--semigroup", choices=SEMIGROUPS, default="ou")
    p.add_argument(
        "--cone", choices=CONE_KINDS,
        help="take the supremum over this cone instead of the ray t > 0",
    )

    p = sub.add_parser("converge", help="sup error along a cone path, per scale alpha")
    _add_experiment(p)
    p.add_argument("--alphas", type=_parse_floats, help="comma-separated decreasing scales")

    p = sub.add_parser("contrast", help="cone path vs tangential path error rows")
    _add_experiment(p)
    p.add_argument("--exponent", type=float, help="tangential exponent, in (0, 1/2)")

    p = sub.add_parser(
        "dominate", help="truncated-parabolic OU cone supremum vs ball-average maximal ratio"
    )
    _add_experiment(p, path=False)
    p.add_argument("--refine", type=int, default=1, help="grid refinement factor")

    p = sub.add_parser("verify", help="run the invariant suite; nonzero exit on failure")
    _add_quadrature(p, dim=False)
    p.add_argument("--seed", type=int, default=20240814, help="seed of the suite's samples")
    p.add_argument("--level", choices=VERIFY_LEVELS, default="fast", help="fast (< 60 s) or full")
    p.add_argument("--out", help="write the JSON report here as well as stdout")

    return parser


def _file_defaults(sub: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The --config file's values, by the dest of the subcommand flag each key names.

    A key names an optional long flag ("path-points" or "path_points"); its
    value converts and checks like the flag's. The values become the
    subcommand's defaults, so flags on the command line win; a repeatable
    flag given there drops the file's list.
    """
    out = {}
    for key, raw in load_config_file(args.config).items():
        action = sub._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.required or action.dest in ("config", "help"):
            raise ValueError(f"{args.config}: {key!r} names no optional flag of {args.command}")
        try:
            values = [(action.type or str)(v) for v in (raw if isinstance(raw, list) else [raw])]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{args.config}: {key}: {exc}") from exc
        if action.choices is not None and not set(values) <= set(action.choices):
            raise ValueError(f"{args.config}: {key} must be one of {list(action.choices)}")
        if not isinstance(raw, list):
            out[action.dest] = values[0]
        elif getattr(args, action.dest) is None:
            out[action.dest] = values
    return out


def _quadrature(args) -> "object":
    gh = args.gh_nodes
    return DEFAULT_CONFIG if gh is None else replace(DEFAULT_CONFIG, gh_nodes=gh)


def _experiment_config(args) -> ExperimentConfig:
    """The config of the flags given; a flag its subcommand lacks keeps the field default."""
    kwargs = dict(
        dimension=args.dim,
        function=args.function,
        apexes=args.apex or [(0.0,) * args.dim],
        quadrature=_quadrature(args),
    )
    for key in ("semigroup", "cone", "eta", "decay", "path_points", "alphas", "exponent"):
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    return ExperimentConfig(**kwargs)


def _cmd_hermite_eval(args) -> int:
    print(repr(float(hermite_eval(args.beta, args.x))))
    return 0


def _cmd_coeff(args) -> int:
    entry = catalog_entry(args.function, args.dim)
    print(repr(fourier_hermite_coeff(entry.rep, args.beta, _quadrature(args))))
    return 0


def _point(args) -> tuple[float, ...]:
    """--x as a point of --dim coordinates."""
    if len(args.x) != args.dim:
        raise ValueError(f"x: expected {args.dim} coordinates, got {len(args.x)}")
    return args.x


def _cmd_apply(args) -> int:
    entry = catalog_entry(args.function, args.dim)
    x = _point(args)
    if args.route == "spectral" and not isinstance(entry.rep, SeriesFunction):
        raise ValueError("spectral route needs a Hermite series representation")
    value = SEMIGROUPS[args.semigroup].apply(entry.rep, x, args.t, args.route, _quadrature(args))
    print(repr(float(value)))
    return 0


def _cmd_maximal(args) -> int:
    entry = catalog_entry(args.function, args.dim)
    x = _point(args)
    sg, cfg = SEMIGROUPS[args.semigroup], _quadrature(args)
    if args.cone is None:
        est = sg.maximal(entry.rep, x, cfg)
    else:
        est = sg.cone_maximal(entry.rep, x, args.cone, cfg)
    payload = {"value": est.value, "argmax": est.argmax, "grid_size": est.grid_size}
    sys.stdout.write(to_json(payload))
    return 0


# (run, CSV writer, JSON payload) of each experiment subcommand
_EXPERIMENTS = {
    "converge": (
        lambda config, args: run_convergence(config),
        convergence_csv,
        lambda records: sorted(records, key=lambda r: (r.apex, r.alpha)),
    ),
    "contrast": (
        lambda config, args: run_tangential_contrast(config), contrast_csv, lambda rows: rows
    ),
    "dominate": (
        lambda config, args: run_domination_report(config, refine_factor=args.refine),
        domination_csv,
        lambda report: report,
    ),
}


def _cmd_experiment(args) -> int:
    run, csv, payload = _EXPERIMENTS[args.command]
    result = run(_experiment_config(args), args)
    text = csv(result) if args.fmt == "csv" else to_json(payload(result))
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_verify(args) -> int:
    report = run_verify_suite(args.level, _quadrature(args), seed=args.seed)
    text = to_json(report)
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text)
    return 0 if report["pass"] else 1


_COMMANDS = {
    "hermite-eval": _cmd_hermite_eval,
    "coeff": _cmd_coeff,
    "ou-apply": _cmd_apply,
    "poisson-apply": _cmd_apply,
    "maximal": _cmd_maximal,
    **dict.fromkeys(_EXPERIMENTS, _cmd_experiment),
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        sub = parser.commands[args.command]
        try:
            sub.set_defaults(**_file_defaults(sub, args))
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
