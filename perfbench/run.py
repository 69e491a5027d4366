"""Benchmark of `mehler`: four workloads against its public API, from a source checkout.

    python3 perfbench/run.py --workload cone-sup --seed 1 --seconds 10 --trace 0

Run from the root of a checkout, which must hold `src/mehler`. Each run
starts fresh child processes with `src` on PYTHONPATH: SETUP_PROBES that only
set up (for a median set-up time), then one that runs the workload (see
child.py). Lines before the last describe the run for a reader; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured untraced:
  wall_s       time of one pass over the operation list: the sum over operations of
               each operation's median latency across the run's passes
  op_p50_ms    median over operations of that per-operation latency
  op_tail_ms   that latency at the highest percentile with at least ten operations
               beyond it (the median when a pass has fewer than 20 operations)
  peak_rss_mb  high-water resident memory of the workload's process
  setup_s      child start to first operation (median over the probes and the workload process)
--trace 1 reports the per-layer metrics of the traced passes, plus the
tracing overhead: their wall_s against that of the untraced passes.
failed/attempted, the failed-operation fraction, is printed with either.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


def _unit(name: str) -> str:
    if name.endswith("_mb_max"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def _child(args: list[str], env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--t0", repr(t0), *args]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency across passes."""
    return [statistics.median(lat) for lat in zip(*passes)]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cone-sup", "poisson-path", "series-sweep", "verify-fast"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mehler", "__init__.py")):
        print(f"no mehler sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        probes = [_child(["--setup-only"], env, deadline)["setup"] for _ in range(SETUP_PROBES)]
        run = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run += ["--spans", os.path.join(root, ".perfbench_out",
                                            f"spans-{args.workload}-seed{args.seed}.npz")]
        res = _child(run, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    setups = probes + [res["setup"]]
    setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
    failed, attempted = len(res["failures"]), res["attempted"]
    lat_ms = [1e3 * x for x in op_medians(res["untraced"])]
    tail, pct = tail_latency(lat_ms)
    wall = sum(lat_ms) / 1e3
    e2e = {
        "wall_s": wall,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup["setup_s"],
    }

    print(f"workload {args.workload}  seed {args.seed}  ops/pass {res['ops_per_pass']}  "
          f"untraced passes {len(res['untraced'])}  traced passes {len(res['traced'])}")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:14.6f} {END_TO_END_UNITS[name]}")
    for kind in ("untraced", "traced"):
        if res[kind]:
            print(f"  {kind} pass times " + " ".join(f"{sum(p):.4f}" for p in res[kind]) + " s")
    print(f"  op_tail_ms is p{pct:.1f} of {len(lat_ms)} operations, each the median of "
          f"{len(res['untraced'])} untraced passes")
    print(f"  setup_s is the median of {len(setups)} child starts: import "
          f"{setup['setup.import_s']:.4f} s, catalog {setup['catalog.build_s']:.4f} s")
    print(f"  failed_frac  {failed / attempted:14.6f} ratio ({failed} of {attempted} operations)")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}")
    print(f"  machine {json.dumps(res['machine'], sort_keys=True)}")

    if args.trace:
        traced = sum(op_medians(res["traced"]))
        metrics = dict(res["layers"])
        metrics["catalog.build_s"] = setup["catalog.build_s"]
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_frac"] = traced / wall - 1.0
        for name in sorted(metrics):
            print(f"  {name:<28} {metrics[name]:18.6f} {_unit(name)}")
        out = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())}
    else:
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
