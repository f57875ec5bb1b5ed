"""Process set-up shared by the benchmark's entry points.

Pins every BLAS/OpenMP pool to one thread (this must run before numpy is
imported) and imports ``epdiff_radial`` from the ``src`` directory of the
checkout that holds this file, never from an installed copy.
"""

import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_package():
    """Import epdiff_radial from SRC; exit with code 2 if it is not there."""
    if not (SRC / "epdiff_radial" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no epdiff_radial package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import epdiff_radial

    location = pathlib.Path(epdiff_radial.__file__).resolve()
    if not location.is_relative_to(SRC):
        sys.stderr.write(f"perfbench: epdiff_radial imported from {location}\n")
        raise SystemExit(2)
    return epdiff_radial
