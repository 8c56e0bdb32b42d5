"""The package runs on numpy alone: no scipy module is ever loaded."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """
[common]
seed = 3
level = 2
integrand = quadratic:1,1,4

[sweep]
family = harmonic:2,0
amplitudes = 2e-2,8e-2,4

[kernel]
levels = 2

[center]
epsilons = 0.01,0.02

[einstein]
dimensions = 3,4
kappas = -1,1
budget = 2000
"""

SCRIPT = """
import sys
import numpy as np
import wulffstab
from wulffstab.cli import COMMANDS, main

codes = [main([c, "--config", sys.argv[1], "--out", sys.argv[2]])
         for c in sorted(COMMANDS)]
codes += [main(["sweep", "--config", path, "--out", sys.argv[2]])
          for path in sys.argv[3:5]]
base = wulffstab.build_wulff(wulffstab.Integrand.quadratic_form(
    np.diag([1.0, 1.0, 4.0])), 2)
u = 0.05 * base.normals[:, 2] ** 2
wulffstab.hausdorff_distance(wulffstab.radial_graph(base, u), base)
# the algebra bench's flat-graph calls, on a small grid
grid = wulffstab.GridField.from_function(
    lambda x, y: 1 - np.sqrt(1 - 0.25 * (x ** 2 + y ** 2)), 0.9, 41)
wulffstab.flat_graph_shape(grid)
wulffstab.cap_fit_residual(grid)
print(len(COMMANDS))
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_scipy_after_every_subcommand(tmp_path):
    """Import wulffstab.cli, run all six subcommands at level 2, a sweep on
    the round sphere (the spectral derivatives), a kernel sweep on the
    Wulff shape (the per-node Newton radius solve: centering translates
    it), the Hausdorff distance and the flat-graph shape and cap fit in one
    fresh process: a lazy import that only fires at run time shows up in
    sys.modules too."""
    config = tmp_path / "guard.ini"
    config.write_text(CONFIG)
    sphere = tmp_path / "sphere.ini"
    sphere.write_text(CONFIG.replace("quadratic:1,1,4", "constant"))
    kernel = tmp_path / "kernel.ini"
    kernel.write_text(CONFIG.replace("harmonic:2,0", "kernel:0.6,-0.48,0.64"))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(SCRIPT), str(config),
         str(tmp_path / "out"), str(sphere), str(kernel)],
        env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    count, codes, modules = proc.stdout.splitlines()[-3:]
    assert count == "6"
    assert set(eval(codes)) <= {0, 1}
    assert modules == "[]"
    # the kernel sweep ran last: every amplitude took centering steps at
    # c != 0, each a Newton radius solve
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert rows and all(int(r.rsplit(",", 1)[1]) > 1 for r in rows)
