"""The public surface: every exported name resolves and every script starts.

Tools that wrap the library from outside look up each ``__all__`` name, so a
stale entry left behind by a deletion breaks them; the scripts import the
library at start-up, so a pruned name they use fails their ``--help``.
"""

import importlib
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
