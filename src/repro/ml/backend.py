"""Pluggable numeric backends for the training hot path.

Every contraction in the ML stack — the im2col Conv1D GEMMs, the Dense
GEMMs, the SVR Gram matrix and the ridge-regression normal equations —
routes through one :class:`NumericBackend`.  Two backends implement the
contract:

- ``numpy-ref`` — the equivalence reference.  GEMMs run through
  ``np.matmul`` with the BLAS threadpool pinned to one thread, which is
  exactly the arithmetic every pre-backend number was produced with.
- ``blas`` — the threaded-BLAS path.  The same ``np.matmul`` calls,
  but with the OpenBLAS threadpool opened up to ``REPRO_BLAS_THREADS``
  (default: all cores), so the large training GEMMs use every core the
  BLAS can reach.  Results are **not** bit-identical to ``numpy-ref``
  once OpenBLAS actually threads a GEMM: the threaded kernels may pick
  different blockings and summation orders, so float32 results differ
  in the last bits (a CNN fit at the paper's shape drifts by ~1e-6).
  ``tests/test_perf_equivalence.py`` pins the agreement to a float32
  tolerance.  Small GEMMs that OpenBLAS runs on one thread stay
  bit-identical.

Thread control talks to the OpenBLAS runtime numpy bundles via
``ctypes`` (``scipy_openblas_set_num_threads64_`` and friends).  When
no control symbol can be found — a numpy built on a different BLAS —
the backends degrade gracefully: selection still works, GEMMs still
run, only the threadpool stays at whatever the library defaults to.

Selection resolves from (in priority order) explicit arguments, the
``REPRO_NUMERIC_BACKEND`` environment variable, and the ``numpy-ref``
default; :func:`use_backend` installs a backend for a code region and
:func:`active_backend` answers the layers' per-call lookups.  Worker
processes activate the backend named in their task
(:class:`repro.ml.nn._GradShard` carries it), so a data-parallel fit
runs the same kernels on every executor backend.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import pathlib
import threading
from collections.abc import Iterator

import numpy as np

__all__ = [
    "NUMERIC_BACKENDS",
    "NumericBackend",
    "NumpyRefBackend",
    "ThreadedBlasBackend",
    "active_backend",
    "get_backend",
    "resolve_blas_threads",
    "resolve_data_parallel",
    "resolve_numeric_backend",
    "use_backend",
]

NUMERIC_BACKENDS = ("numpy-ref", "blas")

_TRUE_WORDS = frozenset({"1", "true", "on", "yes"})
_FALSE_WORDS = frozenset({"0", "false", "off", "no", ""})


def resolve_numeric_backend(name: str | None = None) -> str:
    """The effective numeric-backend name.

    Explicit ``name`` wins; otherwise ``REPRO_NUMERIC_BACKEND``;
    otherwise ``numpy-ref`` (the equivalence reference).  Unknown names
    fail loudly with the valid set, mirroring
    :func:`repro.runtime.resolve_backend`.
    """
    raw = name or os.environ.get("REPRO_NUMERIC_BACKEND")
    if raw is None:
        return "numpy-ref"
    raw = raw.strip().lower()
    if raw not in NUMERIC_BACKENDS:
        raise ValueError(
            f"unknown numeric backend {raw!r}; expected one of {NUMERIC_BACKENDS}"
        )
    return raw


def resolve_data_parallel(flag: bool | str | None = None) -> bool:
    """Whether ``fit`` shards minibatch gradients across the executor.

    Explicit ``flag`` wins; otherwise the ``REPRO_DP_FIT`` environment
    variable; otherwise off (the pre-data-parallel arithmetic, which
    every recorded baseline used).  Unrecognised values fail loudly.
    """
    raw: bool | str | None = flag
    if raw is None:
        raw = os.environ.get("REPRO_DP_FIT")
    if raw is None:
        return False
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in _TRUE_WORDS:
        return True
    if text in _FALSE_WORDS:
        return False
    raise ValueError(
        f"REPRO_DP_FIT must be a boolean flag (1/0/true/false/on/off), "
        f"got {raw!r}"
    )


def resolve_blas_threads(threads: int | None = None) -> int:
    """BLAS threadpool size for the ``blas`` backend.

    Explicit ``threads`` wins; otherwise ``REPRO_BLAS_THREADS``;
    otherwise every core the process can see.
    """
    raw: int | str | None = threads
    if raw is None:
        raw = os.environ.get("REPRO_BLAS_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"REPRO_BLAS_THREADS must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_BLAS_THREADS must be >= 1, got {value}")
    return value


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


# -- the backends -------------------------------------------------------------


class NumericBackend:
    """Routes the training GEMMs.

    Both backends call the same ``np.matmul`` — what a backend controls
    is the BLAS threadpool those calls run on.  A single-threaded GEMM
    is deterministic, so ``numpy-ref`` is the bit-exact reference;
    ``blas`` agrees with it to float32 rounding, not bit for bit.
    """

    name: str = "numpy-ref"

    def threads(self) -> int:
        """The BLAS threadpool size this backend activates."""
        return 1

    def activate(self) -> None:
        """Apply this backend's threadpool size (no-op without control)."""
        _set_blas_threads(self.threads())

    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``a @ b`` on this backend (the one GEMM entry point)."""
        if out is not None:
            return np.matmul(a, b, out=out)
        return a @ b


class NumpyRefBackend(NumericBackend):
    """The equivalence reference: single-threaded BLAS GEMMs."""

    name = "numpy-ref"


class ThreadedBlasBackend(NumericBackend):
    """The multi-core path: the same GEMMs on an open BLAS threadpool."""

    name = "blas"

    def __init__(self, threads: int | None = None) -> None:
        self._threads = threads

    def threads(self) -> int:
        return resolve_blas_threads(self._threads)


_BACKEND_INSTANCES: dict[str, NumericBackend] = {}


def get_backend(name: str | None = None) -> NumericBackend:
    """The backend instance for ``name`` (resolved, cached)."""
    resolved = resolve_numeric_backend(name)
    backend = _BACKEND_INSTANCES.get(resolved)
    if backend is None:
        backend = (
            ThreadedBlasBackend() if resolved == "blas" else NumpyRefBackend()
        )
        _BACKEND_INSTANCES[resolved] = backend
    return backend


class _Region:
    """One open :func:`use_backend` region and what it must restore."""

    __slots__ = ("backend", "depth", "previous", "previous_threads")

    def __init__(
        self,
        backend: NumericBackend,
        previous: "_Region | None",
        previous_threads: int | None,
    ) -> None:
        self.backend = backend
        #: open ``use_backend`` calls of this backend (nested or from
        #: concurrent threads) sharing this region.
        self.depth = 1
        self.previous = previous
        self.previous_threads = previous_threads


#: the innermost open region, or None → resolve from environment on
#: every lookup (cheap: one dict get).  Regions of the *same* backend
#: may overlap freely across threads — they share one region, and only
#: the last to exit restores.  Regions with *different* names must not
#: overlap across threads; the training code never does (one numeric
#: backend per fit, and every model of one engine uses the same one).
_TOP: _Region | None = None
_REGIONS_LOCK = threading.Lock()


def active_backend() -> NumericBackend:
    """The backend the ML kernels route through right now."""
    top = _TOP
    if top is not None:
        return top.backend
    return get_backend(None)


@contextlib.contextmanager
def use_backend(name: str | None) -> Iterator[NumericBackend]:
    """Install a backend (and its threadpool size) for a code region.

    The previous backend — and the previous BLAS threadpool size, when
    the runtime exposes it — are restored when the region closes.
    Entering the already-active backend joins its region instead of
    opening a new one (no threadpool churn, the common case for shard
    and model tasks on the serial/thread executors), and the region
    closes — restoring the saved state — only when the last call that
    joined it exits.  So one thread finishing its ``lr`` fit never
    reopens the threadpool under another thread's CNN fit.
    """
    global _TOP
    backend = get_backend(name)
    with _REGIONS_LOCK:
        region = _TOP
        if region is not None and region.backend is backend:
            region.depth += 1
        else:
            region = _Region(backend, _TOP, _get_blas_threads())
            _TOP = region
            backend.activate()
    try:
        yield backend
    finally:
        with _REGIONS_LOCK:
            region.depth -= 1
            if region.depth == 0:
                if _TOP is region:
                    _TOP = region.previous
                if region.previous_threads is not None:
                    _set_blas_threads(region.previous_threads)
