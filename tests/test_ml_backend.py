"""The pluggable numeric backend (`repro.ml.backend`).

Selection, environment resolution, fail-loudly validation, and the
use_backend context discipline, including same-backend regions that
overlap across threads.  Both backends call the same np.matmul; they
agree bit for bit only on GEMMs too small for OpenBLAS to thread (see
``tests/test_perf_equivalence.py`` for the paper-shape tolerance).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.severity import EngineConfig
from repro.ml import backend as backend_module
from repro.ml.backend import (
    NUMERIC_BACKENDS,
    NumpyRefBackend,
    ThreadedBlasBackend,
    active_backend,
    get_backend,
    resolve_blas_threads,
    resolve_data_parallel,
    resolve_numeric_backend,
    use_backend,
)


class TestResolvers:
    def test_default_is_numpy_ref(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUMERIC_BACKEND", raising=False)
        assert resolve_numeric_backend() == "numpy-ref"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMERIC_BACKEND", "blas")
        assert resolve_numeric_backend("numpy-ref") == "numpy-ref"

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMERIC_BACKEND", "blas")
        assert resolve_numeric_backend() == "blas"

    def test_names_normalise(self):
        assert resolve_numeric_backend("  BLAS ") == "blas"

    def test_unknown_backend_names_the_valid_set(self, monkeypatch):
        with pytest.raises(ValueError, match=r"numpy-ref.*blas"):
            resolve_numeric_backend("cuda")
        monkeypatch.setenv("REPRO_NUMERIC_BACKEND", "mkl")
        with pytest.raises(ValueError, match="unknown numeric backend"):
            resolve_numeric_backend()

    def test_data_parallel_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_DP_FIT", raising=False)
        assert resolve_data_parallel() is False

    @pytest.mark.parametrize("raw,want", [
        ("1", True), ("true", True), ("on", True), ("YES", True),
        ("0", False), ("false", False), ("off", False), ("", False),
    ])
    def test_data_parallel_environment_words(self, monkeypatch, raw, want):
        monkeypatch.setenv("REPRO_DP_FIT", raw)
        assert resolve_data_parallel() is want

    def test_data_parallel_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_FIT", "1")
        assert resolve_data_parallel(False) is False

    def test_data_parallel_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_FIT", "maybe")
        with pytest.raises(ValueError, match="REPRO_DP_FIT"):
            resolve_data_parallel()

    def test_blas_threads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "3")
        assert resolve_blas_threads() == 3
        assert resolve_blas_threads(2) == 2

    def test_blas_threads_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLAS_THREADS", "many")
        with pytest.raises(ValueError, match="REPRO_BLAS_THREADS"):
            resolve_blas_threads()
        with pytest.raises(ValueError, match=">= 1"):
            resolve_blas_threads(0)


class TestBackendInstances:
    def test_instances_cached(self):
        assert get_backend("numpy-ref") is get_backend("numpy-ref")
        assert get_backend("blas") is get_backend("blas")
        assert get_backend("numpy-ref") is not get_backend("blas")

    def test_types_and_names(self):
        assert isinstance(get_backend("numpy-ref"), NumpyRefBackend)
        assert isinstance(get_backend("blas"), ThreadedBlasBackend)
        assert get_backend("blas").name == "blas"

    def test_thread_counts(self, monkeypatch):
        assert get_backend("numpy-ref").threads() == 1
        monkeypatch.setenv("REPRO_BLAS_THREADS", "4")
        assert get_backend("blas").threads() == 4
        assert ThreadedBlasBackend(threads=2).threads() == 2

    def test_matmul_bit_identical_across_backends(self):
        """A GEMM this small runs on one BLAS thread on either backend."""
        rng = np.random.default_rng(5)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        ref = get_backend("numpy-ref").matmul(a, b)
        blas = get_backend("blas").matmul(a, b)
        assert np.array_equal(ref, blas)
        out = np.empty_like(ref)
        got = get_backend("blas").matmul(a, b, out=out)
        assert got is out
        assert np.array_equal(out, ref)


class TestUseBackend:
    def test_default_active_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUMERIC_BACKEND", raising=False)
        assert active_backend().name == "numpy-ref"

    def test_install_and_restore(self):
        before = active_backend().name
        with use_backend("blas") as backend:
            assert backend.name == "blas"
            assert active_backend() is backend
        assert active_backend().name == before

    def test_nested_regions_restore_in_order(self):
        with use_backend("blas"):
            assert active_backend().name == "blas"
            with use_backend("numpy-ref"):
                assert active_backend().name == "numpy-ref"
            assert active_backend().name == "blas"

    def test_reentering_same_backend_is_stable(self):
        with use_backend("numpy-ref"):
            first = active_backend()
            with use_backend("numpy-ref"):
                assert active_backend() is first
            assert active_backend() is first

    def test_overlapping_threads_restore_only_on_last_exit(self):
        """Two threads share one numpy-ref region; the first to leave
        must not reopen the BLAS threadpool under the other."""
        if backend_module._get_blas_threads() is None:
            pytest.skip("no BLAS thread control in this numpy build")
        original = backend_module._get_blas_threads()
        backend_module._set_blas_threads(2)
        steps = [threading.Event() for _ in range(4)]
        seen: dict[str, object] = {}

        def first():
            with use_backend("numpy-ref"):
                steps[0].set()  # first is inside
                steps[1].wait(10)  # second is inside too
            steps[2].set()  # first has left

        def second():
            steps[0].wait(10)
            with use_backend("numpy-ref"):
                steps[1].set()
                steps[2].wait(10)
                seen["threads"] = backend_module._get_blas_threads()
                seen["backend"] = active_backend().name
            steps[3].set()

        try:
            threads = [threading.Thread(target=f) for f in (first, second)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20)
            assert steps[3].is_set()
            assert seen == {"threads": 1, "backend": "numpy-ref"}
            assert backend_module._get_blas_threads() == 2
            assert backend_module._TOP is None
        finally:
            backend_module._set_blas_threads(original)

    def test_many_threads_churning_one_backend(self):
        """More threads than cores enter and leave numpy-ref regions at
        a short switch interval: inside, every thread sees one BLAS
        thread; after, the saved count is back and no region is open."""
        if backend_module._get_blas_threads() is None:
            pytest.skip("no BLAS thread control in this numpy build")
        import sys
        import time

        original = backend_module._get_blas_threads()
        backend_module._set_blas_threads(2)
        interval = sys.getswitchinterval()
        wrong: list[int | None] = []

        def churn():
            for _ in range(200):
                with use_backend("numpy-ref"):
                    time.sleep(0)  # let other threads enter and leave
                    threads = backend_module._get_blas_threads()
                    if threads != 1:
                        wrong.append(threads)

        try:
            sys.setswitchinterval(1e-6)
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
            assert not any(worker.is_alive() for worker in workers)
            assert wrong == []
            assert backend_module._get_blas_threads() == 2
            assert backend_module._TOP is None
        finally:
            sys.setswitchinterval(interval)
            backend_module._set_blas_threads(original)

    def test_restores_after_exception(self):
        before = active_backend().name
        with pytest.raises(RuntimeError):
            with use_backend("blas"):
                raise RuntimeError("boom")
        assert active_backend().name == before


class TestEngineConfigValidation:
    def test_accepts_known_backends(self):
        for name in NUMERIC_BACKENDS:
            assert EngineConfig(numeric_backend=name).numeric_backend == name

    def test_rejects_unknown_backend_at_construction(self):
        with pytest.raises(ValueError, match=r"numpy-ref.*blas"):
            EngineConfig(numeric_backend="cuda")

    def test_rejects_unknown_environment_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUMERIC_BACKEND", "tpu")
        with pytest.raises(ValueError, match="unknown numeric backend"):
            EngineConfig()

    def test_rejects_garbage_dp_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_DP_FIT", "perhaps")
        with pytest.raises(ValueError, match="REPRO_DP_FIT"):
            EngineConfig()

    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=0)
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=-2)
        assert EngineConfig(workers=4).workers == 4

    def test_config_round_trips_through_asdict(self):
        import dataclasses

        config = EngineConfig(numeric_backend="blas", data_parallel=True)
        doc = dataclasses.asdict(config)
        assert EngineConfig(**doc) == config


class TestExperimentsKnobs:
    def test_numeric_backend_helper(self, monkeypatch):
        from repro.experiments import numeric_backend

        monkeypatch.delenv("REPRO_NUMERIC_BACKEND", raising=False)
        assert numeric_backend() == "numpy-ref"
        monkeypatch.setenv("REPRO_NUMERIC_BACKEND", "blas")
        assert numeric_backend() == "blas"
        monkeypatch.setenv("REPRO_NUMERIC_BACKEND", "gpu")
        with pytest.raises(ValueError, match=r"numpy-ref.*blas"):
            numeric_backend()

    def test_data_parallel_helper(self, monkeypatch):
        from repro.experiments import data_parallel_fit

        monkeypatch.delenv("REPRO_DP_FIT", raising=False)
        assert data_parallel_fit() is False
        monkeypatch.setenv("REPRO_DP_FIT", "on")
        assert data_parallel_fit() is True
