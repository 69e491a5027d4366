"""Write the canonical `mehler` CLI outputs of a checkout into a directory.

    python3 tools/cli_outputs.py OUT_DIR [--root CHECKOUT]

Each file holds the stdout of one command, run with CHECKOUT/src on
PYTHONPATH (CHECKOUT defaults to the checkout holding this script). Run it on
two checkouts and compare with `diff -r OUT_A OUT_B`: no output means the
outputs are byte-identical.
"""

import argparse
import os
import subprocess
import sys

COMMANDS = {
    "verify-fast-seed7.json": ["verify", "--level", "fast", "--seed", "7"],
    "verify-full-seed7.json": ["verify", "--level", "full", "--seed", "7"],
    "converge-h_2.csv": ["converge", "--function", "h_2", "--apex", "1.0", "--apex", "-0.5"],
    "converge-poisson-ball-d1.csv": ["converge", "--semigroup", "poisson", "--cone", "gaussian",
                                     "--function", "ball", "--apex", "0.5"],
    "converge-poisson-bump-d2.csv": ["converge", "--semigroup", "poisson", "--cone", "gaussian",
                                     "--function", "bump", "--dim", "2", "--apex", "0.3,0.2"],
    "contrast-poisson-gaussian-bump-d2.csv": ["contrast", "--semigroup", "poisson", "--cone",
                                              "gaussian", "--function", "bump", "--dim", "2",
                                              "--apex", "0.3,0.2"],
    "dominate-bump-d2.json": ["dominate", "--dim", "2", "--function", "bump", "--format", "json"],
    "dominate-ball-d2.json": ["dominate", "--dim", "2", "--function", "ball", "--format", "json"],
    "dominate-bump-d3.json": ["dominate", "--dim", "3", "--function", "bump",
                              "--apex", "0.4,0.1,-0.3", "--format", "json"],
    "dominate-ball-d1.json": ["dominate", "--function", "ball", "--apex", "-1.0",
                              "--apex", "1.0", "--format", "json"],
    "ou-apply-ball-d3.txt": ["ou-apply", "--function", "ball", "--dim", "3",
                             "--x", "0.3,0.2,0.1", "--t", "0.5"],
    "ou-apply-ball-d3-n40.txt": ["ou-apply", "--function", "ball", "--dim", "3",
                                 "--x", "0.3,0.2,0.1", "--t", "0.5", "--gh-nodes", "40"],
    "ou-apply-change_of_var-bump-d2.txt": ["ou-apply", "--function", "bump", "--dim", "2",
                                           "--x", "0.3,0.2", "--t", "0.1",
                                           "--route", "change_of_var"],
    "maximal-ou-truncated-bump-d2.json": ["maximal", "--function", "bump", "--dim", "2",
                                          "--x", "0.3,0.2", "--cone", "truncated-parabolic"],
    "maximal-poisson-gaussian-ball-d1.json": ["maximal", "--semigroup", "poisson", "--cone",
                                              "gaussian", "--function", "ball", "--x", "0.5"],
    "maximal-poisson-gaussian-h_2-d1.json": ["maximal", "--semigroup", "poisson", "--cone",
                                             "gaussian", "--function", "h_2", "--x", "0.5"],
    "maximal-poisson-gaussian-bump-d2.json": ["maximal", "--semigroup", "poisson", "--cone",
                                              "gaussian", "--function", "bump", "--dim", "2",
                                              "--x", "0.3,0.2"],
    "maximal-ou-truncated-ball-d3.json": ["maximal", "--function", "ball", "--dim", "3",
                                          "--x", "0.4,0.1,-0.3", "--cone", "truncated-parabolic"],
    "maximal-ou-truncated-bump-d3-n40.json": ["maximal", "--function", "bump", "--dim", "3",
                                              "--x", "0.4,0.1,-0.3", "--cone",
                                              "truncated-parabolic", "--gh-nodes", "40"],
    "maximal-ou-parabolic-bump-d2.json": ["maximal", "--function", "bump", "--dim", "2",
                                          "--x", "0.3,0.2", "--cone", "parabolic-gaussian"],
    "maximal-ou-parabolic-x2-d2.json": ["maximal", "--function", "x2", "--dim", "2",
                                        "--x", "0.3,0.2", "--cone", "parabolic-gaussian"],
    "maximal-ou-parabolic-ball-d1.json": ["maximal", "--function", "ball", "--x", "0.5",
                                          "--cone", "parabolic-gaussian"],
    "maximal-ou-time-ball-d1.json": ["maximal", "--function", "ball", "--x", "0.5"],
    "maximal-ou-time-x3-d2.json": ["maximal", "--function", "x3", "--dim", "2", "--x", "0.3,0.2"],
    "maximal-poisson-time-ball-d1.json": ["maximal", "--semigroup", "poisson",
                                          "--function", "ball", "--x", "0.5"],
    "poisson-apply-subordination-bump-d2-t0.1.txt": ["poisson-apply", "--function", "bump",
                                                     "--dim", "2", "--x", "0.3,0.2", "--t", "0.1",
                                                     "--route", "subordination"],
    "poisson-apply-subordination-bump-d2-t4.txt": ["poisson-apply", "--function", "bump",
                                                   "--dim", "2", "--x", "0.3,0.2", "--t", "4",
                                                   "--route", "subordination"],
    "poisson-apply-kernel-bump-d2-t0.1.txt": ["poisson-apply", "--function", "bump",
                                              "--dim", "2", "--x", "0.3,0.2", "--t", "0.1",
                                              "--route", "kernel"],
    "hermite-eval-beta2_1-d2.txt": ["hermite-eval", "--beta", "2,1", "--x", "0.4,-1.1"],
    "coeff-bump-d1-beta3.txt": ["coeff", "--function", "bump", "--beta", "3"],
    "coeff-bump-d2-beta1_1.txt": ["coeff", "--function", "bump", "--dim", "2", "--beta", "1,1"],
    "coeff-bump-d3-beta1_0_1.txt": ["coeff", "--function", "bump", "--dim", "3",
                                    "--beta", "1,0,1"],
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.root), "src"))
    os.makedirs(args.out_dir, exist_ok=True)
    for name, cmd in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "mehler.cli", *cmd], env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
