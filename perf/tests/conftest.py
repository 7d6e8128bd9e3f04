"""Harness self-tests: ``python -m pytest perf/tests -q`` from the root.

Outside ``testpaths`` on purpose -- the tier-1 suite tests the program,
these test the ruler.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF_DIR))

from harness import env  # noqa: E402

env.pin_blas_threads()
if str(env.SRC) not in sys.path:
    sys.path.insert(0, str(env.SRC))
