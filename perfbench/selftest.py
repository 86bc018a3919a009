#!/usr/bin/env python3
"""Self-tests of the benchmark on a tiny input size.

They check that every declared metric is emitted with its unit, that
the traced run emits every per-layer name, and that a corrupted
response, a wrong predict score and a failed ingest each count as a
failed operation.  Run from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import pathlib
import sys
import unittest
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, run  # noqa: E402

#: small enough that a whole workload runs in seconds.
TINY = inputs.Settings(n_cves=600, epochs=1, max_deltas=3)

SECONDS = "3"


def bench(workload: str, trace: int = 0, seed: int = 5) -> dict:
    """Run one workload in-process at the tiny size; the parsed result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
             "--trace", str(trace)],
            settings=TINY,
        )
    assert code == 0, out.getvalue()
    return json.loads(out.getvalue().splitlines()[-1])


class DeclaredMetrics(unittest.TestCase):
    def check_emitted(self, result: dict, kind: str) -> None:
        declared = run.declared_metrics(kind)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"], float, name)
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics_emitted_for_every_workload(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload)
                self.check_emitted(result, "end_to_end")
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)

    def test_traced_run_emits_every_per_layer_metric(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_emitted(bench(workload, trace=1), "per_layer")


class FailuresCount(unittest.TestCase):
    def assert_failed(self, result: dict) -> None:
        self.assertGreater(result["failed"], 0)
        self.assertFalse(result["correct"])

    def test_corrupted_response(self) -> None:
        original = http.client.HTTPResponse.read

        def truncated(response, *args):
            data = original(response, *args)
            return data[:-1] if data.startswith(b'{"cve_id"') else data

        with mock.patch.object(http.client.HTTPResponse, "read", truncated):
            self.assert_failed(bench("serve-read"))

    def test_wrong_predict_score(self) -> None:
        from repro.service.state import ServiceState

        original = ServiceState.predict_payload

        def wrong(state, body):
            payload = original(state, body)
            return {**payload, "score": payload["score"] + 0.5}

        with mock.patch.object(ServiceState, "predict_payload", wrong):
            self.assert_failed(bench("serve-read"))

    def test_failed_ingest(self) -> None:
        original = inputs.delta_feeds

        def corrupt_first(*args, **kwargs):
            feeds = original(*args, **kwargs)
            feeds[0][0].write_bytes(b"not a feed")
            return feeds

        with mock.patch.object(inputs, "delta_feeds", corrupt_first):
            self.assert_failed(bench("ingest-under-read"))


if __name__ == "__main__":
    unittest.main()
