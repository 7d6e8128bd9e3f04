"""Process-wide numerics, the one module that calls native libraries.

"Bitwise" means "at one OpenBLAS thread" (DESIGN.md section 6): every
``import repro.<anything>`` sets the OpenBLAS NumPy loaded to one thread,
whenever NumPy was imported, unless ``OPENBLAS_NUM_THREADS`` is exported.
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional, Tuple

import numpy  # noqa: F401  # loads the OpenBLAS the functions below ask


def _find_openblas():
    """``name -> function`` of the OpenBLAS NumPy has loaded, or None
    where there is none to ask (another BLAS, or no Linux ``/proc``)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        # NumPy wheels' scipy-openblas (64/32-bit ints), system OpenBLAS
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}",
                       "openblas_{}"):
            if all(getattr(lib, symbol.format(name), None) is not None
                   for name in ("get_config", "get_corename",
                                "get_num_threads", "set_num_threads")):
                return lambda name, lib=lib, symbol=symbol: getattr(
                    lib, symbol.format(name))
    return None


_OPENBLAS = _find_openblas()

#: How the BLAS thread count was set: ``"pinned"`` (to 1, here),
#: ``"exported"`` or ``"no OpenBLAS"`` (MKL and Accelerate go unpinned).
THREAD_PIN = ("no OpenBLAS" if _OPENBLAS is None else "exported"
              if "OPENBLAS_NUM_THREADS" in os.environ else "pinned")
if THREAD_PIN == "pinned":
    _OPENBLAS("set_num_threads")(ctypes.c_int(1))


def openblas_runtime() -> Optional[Tuple[str, str]]:
    """``(version, runtime core)`` of the loaded OpenBLAS, read from the
    library itself (its build configuration names the build target, not
    the core it picked for this CPU); None where there is none to ask."""
    if _OPENBLAS is None:
        return None
    config, core = _OPENBLAS("get_config"), _OPENBLAS("get_corename")
    config.restype = core.restype = ctypes.c_char_p
    version = config().decode().split()[1]
    return ".".join(version.split(".")[:3]), core().decode()


def openblas_threads() -> Optional[int]:
    """Threads each call of the loaded OpenBLAS takes now (None: there
    is no OpenBLAS to ask)."""
    return None if _OPENBLAS is None else int(_OPENBLAS("get_num_threads")())


def flight_threads() -> int:
    """Threads a round's flights may train on: this process's CPUs over
    each BLAS call's threads; 1 (the plain loop) without an OpenBLAS."""
    blas = openblas_threads()
    return 1 if blas is None else max(1, len(os.sched_getaffinity(0)) // blas)


_MALLOPT = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc's, or None


def cap_malloc_arenas() -> None:
    """One malloc arena for every thread: per-thread arenas keep what a
    flight freed and grow peak RSS (DESIGN.md 3.5.1)."""
    if _MALLOPT is not None:
        _MALLOPT(-8, 1)  # M_ARENA_MAX
