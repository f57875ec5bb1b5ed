"""The public surface: every exported name resolves and every script starts.

Tools that wrap the library from outside look up each ``__all__`` name, so a
stale entry left behind by a deletion breaks them; the scripts import the
library at start-up, so a pruned name they use fails their ``--help``.
Importing the library loads no scipy module: scipy loads only where an
even-n outer factor or ``solver.transport_residual`` needs it.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import epdiff_radial

ROOT = pathlib.Path(__file__).resolve().parents[1]
# every module of the package that declares an __all__
EXPORTING = [
    name
    for name in ["epdiff_radial"] + [
        f"epdiff_radial.{m.name}"
        for m in pkgutil.iter_modules(epdiff_radial.__path__)
    ]
    if hasattr(importlib.import_module(name), "__all__")
]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# Imports the package and the CLI, certifies and steps a sigma = 0 and an
# odd-n sigma = 1 kernel, then evaluates the inner rows of an even-n sigma = 1
# kernel on radii across [0, 600] and its outer rows on a grid, and prints
# the scipy modules loaded after each stage.
SCIPY_PROBE = """
import json, sys
import numpy as np
import epdiff_radial, epdiff_radial.cli
from epdiff_radial import scenario, solver
from epdiff_radial.certify import certify
from epdiff_radial.grid import RadialGrid
from epdiff_radial.kernels import KernelSpec, kernel_case

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
grid = RadialGrid.uniform(128, 20.0)
bump = {"amplitude": 1.0, "r_lo": 2.0, "r_hi": 8.0}
for spec in (KernelSpec(0, 2, 3), KernelSpec(1, 1, 3)):
    init = scenario.builtin_initial_data("neg_bump", bump, grid, spec.n)
    assert certify(spec, grid, init.omega0).passed
    state = solver.FlowState(0.0, grid.r.copy(), np.ones(grid.num))
    for _ in range(3):
        state = solver.step(spec, grid, init, state, 1e-3)
    loaded[spec.label()] = scipy_modules()
even = kernel_case(KernelSpec(1, 1, 2))
even.inner(np.concatenate([[0.0], np.geomspace(1e-3, 600.0, 200)]))
loaded["even inner"] = scipy_modules()
even.outer(grid.r[1:])
loaded["even outer"] = scipy_modules()
print(json.dumps(loaded))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize(
    "argv",
    [[str(path), "--help"] for path in SCRIPTS]
    + [["-m", "epdiff_radial.cli", "--help"]],
    ids=[path.name for path in SCRIPTS] + ["cli"],
)
def test_entry_point_help(argv):
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_scipy_loads_only_where_it_is_used():
    # a fresh interpreter, since this one has imported scipy already
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], capture_output=True, text=True,
        env=_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    for stage in ("import", "H2dot_n3", "H1_n3", "even inner"):
        assert loaded[stage] == [], f"{stage} loaded {loaded[stage][:5]}"
    assert "scipy.special" in loaded["even outer"]
    assert not [m for m in loaded["even outer"] if m.startswith("scipy.interpolate")]
