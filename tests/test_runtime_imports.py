"""numpy is the only runtime dependency: the package never loads scipy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import mehler

_SCRIPT = """
import sys
import mehler
from mehler.cli import main

cfg = mehler.DEFAULT_CONFIG
for d in (1, 2, 3):
    mehler.gauss_hermite_grid(d, cfg.gh_nodes)
mehler.gaussian_ball_measure(mehler.GaussianBall((0.3,), 1.0))
mehler.gaussian_ball_measure(mehler.GaussianBall((0.3, -0.2), 1.0))
mehler.catalog_entry("spike", 2).norm(1.5)
code = main(["ou-apply", "--function", "bump", "--dim", "2", "--x", "0.3,0.2", "--t", "0.5"])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_scipy_module_is_loaded():
    src = str(Path(mehler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.splitlines()[-1] == "0 []"
