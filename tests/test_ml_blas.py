"""The one-thread BLAS region (`repro.ml.blas`).

Training and engine prediction run every GEMM on one BLAS thread, and
restore the process's pool size afterwards.  Regions overlap across
the thread executor's workers, so only the last one to exit may
restore.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.severity import EngineConfig, SeverityPredictionEngine
from repro.ml import blas
from repro.ml.blas import BLAS_THREADS, single_thread_blas
from repro.ml.nn import Conv1D, Dense
from repro.runtime import SerialExecutor, ThreadExecutor


@pytest.fixture
def blas_pool_of_two():
    """Open the pool to 2 threads (so a pin to 1 is visible), then put
    the process default back."""
    original = blas._get_blas_threads()
    if original is None:
        pytest.skip("no BLAS thread control in this numpy build")
    blas._set_blas_threads(2)
    try:
        yield
    finally:
        blas._set_blas_threads(original)


@pytest.mark.usefixtures("blas_pool_of_two")
class TestSingleThreadBlas:
    def test_pins_and_restores(self):
        with single_thread_blas():
            assert blas._get_blas_threads() == BLAS_THREADS == 1
        assert blas._get_blas_threads() == 2
        assert blas._depth == 0

    def test_nested_regions_restore_on_outer_exit(self):
        with single_thread_blas():
            with single_thread_blas():
                assert blas._get_blas_threads() == 1
            assert blas._get_blas_threads() == 1
        assert blas._get_blas_threads() == 2

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with single_thread_blas():
                raise RuntimeError("boom")
        assert blas._get_blas_threads() == 2
        assert blas._depth == 0

    def test_overlapping_threads_restore_only_on_last_exit(self):
        """Two threads overlap their regions; the first to leave must
        not reopen the BLAS pool under the other."""
        steps = [threading.Event() for _ in range(4)]
        seen: dict[str, object] = {}

        def first():
            with single_thread_blas():
                steps[0].set()  # first is inside
                steps[1].wait(10)  # second is inside too
            steps[2].set()  # first has left

        def second():
            steps[0].wait(10)
            with single_thread_blas():
                steps[1].set()
                steps[2].wait(10)
                seen["threads"] = blas._get_blas_threads()
            steps[3].set()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert steps[3].is_set()
        assert seen == {"threads": 1}
        assert blas._get_blas_threads() == 2
        assert blas._depth == 0

    def test_many_threads_churning_one_region(self):
        """More threads than cores enter and leave regions at a short
        switch interval: inside, every thread sees one BLAS thread;
        after, the saved count is back and no region is open."""
        interval = sys.getswitchinterval()
        wrong: list[int | None] = []

        def churn():
            for _ in range(200):
                with single_thread_blas():
                    time.sleep(0)  # let other threads enter and leave
                    threads = blas._get_blas_threads()
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
            assert blas._get_blas_threads() == 2
            assert blas._depth == 0
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.usefixtures("blas_pool_of_two")
class TestEngineRunsOnOneBlasThread:
    """Every Dense/Conv1D forward and backward of an engine fit, and
    every forward of its predictions, sees one BLAS thread; the pool
    size from before each call is back after it."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        counts: list[int | None] = []
        for layer in (Dense, Conv1D):
            for method in ("forward", "backward"):
                inner = getattr(layer, method)

                def record(self, *args, _inner=inner, **kwargs):
                    counts.append(blas._get_blas_threads())
                    return _inner(self, *args, **kwargs)

                monkeypatch.setattr(layer, method, record)
        return counts

    @pytest.mark.parametrize("executor_cls", [SerialExecutor, ThreadExecutor])
    def test_fit_and_predict(self, bundle, recorded, executor_cls):
        train = list(bundle.snapshot.with_v3())[:300]
        # More rows than one predict batch, so the thread executor
        # forwards the batches on its worker threads.
        scored = [e for e in bundle.snapshot if e.cvss_v2 is not None]
        assert len(scored) > 1024
        config = EngineConfig(epochs=1, models=("cnn", "dnn"))
        with executor_cls(2) as executor:
            engine = SeverityPredictionEngine(config, executor=executor)
            engine.fit(train)
            assert recorded and set(recorded) == {1}
            assert blas._get_blas_threads() == 2
            recorded.clear()
            for model in config.models:
                engine.predict_scores(scored, model=model)
            assert recorded and set(recorded) == {1}
            assert blas._get_blas_threads() == 2
        assert blas._depth == 0


class TestEngineConfigValidation:
    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=0)
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=-2)
        assert EngineConfig(workers=4).workers == 4

    def test_config_round_trips_through_asdict(self):
        import dataclasses

        config = EngineConfig(workers=2, backend="thread", nn_dtype="float64")
        doc = dataclasses.asdict(config)
        assert EngineConfig(**doc) == config
