"""The package pins its own BLAS threads, whatever the import order.

"Bitwise" means "at one OpenBLAS thread" (DESIGN.md section 6), and
:mod:`repro.numerics` sets that count when the package is imported.
Each check runs in a fresh interpreter with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` removed from its
environment, so nothing but the package can pin.  Unpinned, OpenBLAS
takes one thread per CPU: on a host with 2 or more CPUs (CI's hosted
Ubuntu runners have 2 to 4) every check here fails without the pin; on
1 CPU the thread counts pass either way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import numerics
from tests.test_fl.test_golden_trace import GOLDEN_PATH, PINNED_FIELDS

pytestmark = pytest.mark.skipif(numerics.openblas_runtime() is None,
                                reason="NumPy loaded no OpenBLAS to ask")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SRC = Path(repro.__file__).resolve().parents[1]

#: what ``import repro.numerics`` reports, printed as the last line
REPORT = ("from repro import numerics; "
          "print(numerics.openblas_threads(), numerics.THREAD_PIN)")

#: a bare NumPy's OpenBLAS thread count, read without the package
BARE_NUMPY = """
import ctypes
import numpy
paths = sorted({line.split()[-1] for line in open("/proc/self/maps")
                if "openblas" in line and "/" in line})
lib = ctypes.CDLL(paths[0])
print(next(getattr(lib, name)() for name in (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads") if hasattr(lib, name)))
"""


def _last_line(code: str, **exported: str) -> str:
    """Run ``code`` in a fresh interpreter with only ``exported`` of the
    BLAS thread variables set; its last line of output."""
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARS}
    env.update(exported)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("entry", [
    "import numpy; import repro.fl.runner",
    "import repro.verify",
    "import repro.verify; import repro.cli",
    # `python -m repro.verify --help`: the module run as __main__
    "import runpy, sys; sys.argv = ['repro.verify', '--help']\n"
    "try:\n    runpy.run_module('repro.verify', run_name='__main__',"
    " alter_sys=True)\nexcept SystemExit:\n    pass",
], ids=["numpy_then_library", "verify", "verify_then_cli", "verify_main"])
def test_every_entry_pins_one_thread(entry):
    assert _last_line(entry + "\n" + REPORT) == "1 pinned"


@pytest.mark.parametrize("count", ["1", "2", "3"])
def test_an_exported_count_wins(count):
    bare = _last_line(BARE_NUMPY, OPENBLAS_NUM_THREADS=count)
    assert _last_line("import numpy; " + REPORT,
                      OPENBLAS_NUM_THREADS=count) == f"{bare} exported"


def test_library_path_replays_the_golden_trace():
    """`run_federated_training` imported after NumPy, with nothing
    exported, replays `golden_trace.json`'s ``sync_r2sp`` entry bitwise
    (unpinned on 2 CPUs it differs from round 2 on)."""
    replay = (
        "import json\n"
        "from tests.test_fl.test_golden_trace import CONFIGS, PINNED_FIELDS, _run\n"
        "history = _run(**CONFIGS['sync_r2sp'])\n"
        "print(json.dumps([{field: getattr(record, field) for field in "
        "PINNED_FIELDS} for record in history.rounds]))"
    )
    golden = json.loads(GOLDEN_PATH.read_text())["sync_r2sp"]
    assert json.loads(_last_line(replay)) == [
        {field: entry[field] for field in PINNED_FIELDS} for entry in golden]
