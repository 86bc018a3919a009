"""One BLAS thread for the §4.3 training and prediction GEMMs.

numpy's bundled OpenBLAS runs each GEMM on as many threads as its pool
holds, and a threaded GEMM may block and sum in another order than a
single-threaded one, so its float32 results differ in the last bits.
Training and engine prediction therefore run inside
:func:`single_thread_blas`, which pins the pool to :data:`BLAS_THREADS`
(one) thread: a trained model is one deterministic function of its
config and seed, whatever the host's core count.

Thread control talks to the OpenBLAS runtime numpy bundles via
``ctypes`` (``scipy_openblas_set_num_threads64_`` and friends).  When
no control symbol can be found — a numpy built on a different BLAS —
the region still runs, only the pool stays at whatever the library
defaults to.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import pathlib
import threading
from collections.abc import Iterator

import numpy as np

__all__ = ["BLAS_THREADS", "single_thread_blas"]

#: the BLAS pool size every fit and engine prediction runs on.
BLAS_THREADS = 1

# -- OpenBLAS thread control (ctypes, dependency-free) ------------------------

#: (set_num_threads, get_num_threads) of the BLAS numpy actually loads,
#: or (None, None) when no control symbol is reachable.
_BLAS_CONTROLS: tuple[object, object] | None = None

#: symbol-name variants across OpenBLAS builds (scipy-openblas wheels
#: prefix and suffix the classic names).
_SET_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)
_GET_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _blas_controls() -> tuple[object, object]:
    """Locate the loaded BLAS's thread-control functions (cached)."""
    global _BLAS_CONTROLS
    if _BLAS_CONTROLS is not None:
        return _BLAS_CONTROLS
    setter = getter = None
    numpy_dir = pathlib.Path(np.__file__).resolve().parent
    candidates = [
        *glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*")),
        *glob.glob(str(numpy_dir / ".libs" / "*openblas*")),
        *glob.glob(str(numpy_dir / "*" / "*openblas*")),
    ]
    for path in candidates:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # pragma: no cover - unreadable candidate
            continue
        found_set = next(
            (getattr(library, s) for s in _SET_SYMBOLS if hasattr(library, s)),
            None,
        )
        found_get = next(
            (getattr(library, s) for s in _GET_SYMBOLS if hasattr(library, s)),
            None,
        )
        if found_set is not None:
            found_set.restype = None
            found_set.argtypes = [ctypes.c_int]
            if found_get is not None:
                found_get.restype = ctypes.c_int
                found_get.argtypes = []
            setter, getter = found_set, found_get
            break
    _BLAS_CONTROLS = (setter, getter)
    return _BLAS_CONTROLS


def _set_blas_threads(threads: int) -> None:
    setter, _ = _blas_controls()
    if setter is not None:
        setter(int(threads))


def _get_blas_threads() -> int | None:
    _, getter = _blas_controls()
    if getter is None:
        return None
    return int(getter())


# -- the region ---------------------------------------------------------------

#: open :func:`single_thread_blas` calls (nested, or from concurrent
#: threads) and the pool size the first of them found.  The BLAS pool
#: is process-wide, so this bookkeeping is too.
_depth = 0
_saved_threads: int | None = None
_LOCK = threading.Lock()


@contextlib.contextmanager
def single_thread_blas() -> Iterator[None]:
    """Run a code region on :data:`BLAS_THREADS` BLAS threads.

    Regions may overlap, nested or across threads: the first to enter
    saves the pool size and pins it, later ones only join, and only the
    last to exit restores the saved size.  So one thread finishing its
    ``lr`` fit never reopens the pool under another thread's CNN fit.
    """
    global _depth, _saved_threads
    with _LOCK:
        if _depth == 0:
            _saved_threads = _get_blas_threads()
            _set_blas_threads(BLAS_THREADS)
        _depth += 1
    try:
        yield
    finally:
        with _LOCK:
            _depth -= 1
            if _depth == 0 and _saved_threads is not None:
                _set_blas_threads(_saved_threads)
