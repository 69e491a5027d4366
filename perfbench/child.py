"""One workload in a fresh process: set up, run passes closed-loop, check, report.

Run by `run.py`, with `src` on PYTHONPATH. Prints one JSON object as its last
line. Set-up time counts from --t0, a time.monotonic() reading the parent
takes just before it starts this process, to the end of set-up: importing
`mehler`, building the catalog for d = 1, 2, 3 and filling the lazy rule
caches, so that no timed operation pays for them.

One client issues one operation after another. Each pass runs the whole
operation list. A first, untimed pass fills whatever the operations warm
and checks each output against the closed forms; every later pass must
reproduce those outputs exactly. Timed passes follow: another starts while
one of typical length still ends within --seconds, and there is at least
one. With --trace 1 the timed passes alternate traced and untraced, starting
traced, and there are at least two: the traced ones give the per-layer
figures, and both together the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# only the standard library is imported above: `import mehler` below is timed
# with numpy and scipy still unloaded


def set_up(t0: float) -> tuple[object, dict]:
    start = time.monotonic()
    import mehler

    imported = time.monotonic()
    for d in (1, 2, 3):
        mehler.catalog(d)
    built = time.monotonic()
    for d in (1, 2, 3):
        mehler.gauss_hermite_grid(d, mehler.DEFAULT_CONFIG.gh_nodes)
    mehler.subordination_rule(mehler.SubordinationQuadrature())
    mehler.gaussian_ball_measure(mehler.GaussianBall((0.0, 0.0), 1.0))
    done = time.monotonic()
    return mehler, {
        "setup_s": done - t0,
        "setup.import_s": imported - start,
        "catalog.build_s": built - imported,
    }


class Runner:
    """Runs the operation list pass after pass and keeps every latency."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.reference: dict[int, object] = {}
        self.passes: list[tuple[bool, list[float]]] = []  # (traced, latency per op)
        self.failures: list[str] = []
        self.attempted = 0

    def run_pass(self, traced: bool = False) -> None:
        from workloads import CheckFailed

        if traced:
            self.tracer.install()
        latencies = []
        try:
            for i, op in enumerate(self.ops):
                if traced:
                    self.tracer.op = i
                self.attempted += 1
                start = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # a raising operation counts as failed
                    latencies.append(time.perf_counter() - start)
                    self.failures.append(f"{op.label}: raised {exc!r}")
                    continue
                latencies.append(time.perf_counter() - start)
                try:
                    if i not in self.reference:
                        op.check(out)
                        self.reference[i] = out
                    elif out != self.reference[i]:
                        raise CheckFailed("output differs from the checked output of an earlier pass")
                except CheckFailed as exc:
                    self.failures.append(f"{op.label}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes.append((traced, latencies))

    def latencies(self, traced: bool) -> list[list[float]]:
        return [lat for t, lat in self.passes if t == traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (.npz)")
    args = ap.parse_args(argv)

    m, setup = set_up(args.t0)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import machine
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workloads.build(args.workload, m, args.seed), tracer)
    runner.run_pass()
    runner.passes.pop()  # the checking pass is not timed
    grids = m.gauss_hermite_grid.cache_info()
    begin = time.perf_counter()
    # with --trace 1, traced and untraced passes alternate, starting traced, so
    # the tracing overhead compares passes run under the same conditions
    minimum = 2 if args.trace else 1
    while len(runner.passes) < minimum or _another_pass(runner, begin, args.seconds):
        runner.run_pass(traced=bool(args.trace)
                        and len(runner.latencies(True)) <= len(runner.latencies(False)))
    layers = {}
    if args.trace:
        after = m.gauss_hermite_grid.cache_info()
        layers = tracing.layer_metrics(tracer, len(runner.latencies(True)))
        # every timed pass makes the same grid requests, traced or not
        layers["hermite.gh_grid_hits"] = (after.hits - grids.hits) / len(runner.passes)
        layers["hermite.gh_grid_misses"] = (after.misses - grids.misses) / len(runner.passes)
        if args.spans:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
            tracer.save(args.spans)

    print(json.dumps({
        "setup": setup,
        "ops_per_pass": len(runner.ops),
        "untraced": runner.latencies(False),
        "traced": runner.latencies(True),
        "attempted": runner.attempted,
        "failures": runner.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "machine": machine.describe(),
    }))
    return 0


def _another_pass(runner: Runner, begin: float, seconds: float) -> bool:
    """Whether a pass of typical length still ends within the measuring time."""
    typical = sorted(sum(lat) for _, lat in runner.passes)[len(runner.passes) // 2]
    return time.perf_counter() - begin + typical <= seconds


if __name__ == "__main__":
    sys.exit(main())
