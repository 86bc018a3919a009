#!/usr/bin/env python3
"""The repository benchmark: the system driven the way its users drive it.

Run from the repository root::

    python3 perfbench/run.py --workload clean --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 24 --trace 1

Workloads (``BENCHMARK.json`` records why each exists):

``clean``
    The batch user: ``repro.core.clean()`` on the 8,040-CVE ``baseline``
    snapshot, default runtime, 8 epochs.  Exercises
    ``core.*``, ``ml`` and ``runtime``; never touches ``service``.
``serve-read``
    The query user: a real ``python -m repro serve`` (defaults) and a
    closed-loop client replaying the 50/15/15/10/5/5 request trace over
    2 keep-alive connections.  No training runs.
``ingest-under-read``
    The same server and readers while ``python -m repro ingest`` runs
    back to back on seeded delta feeds (200 new + 100 mutated CVEs).
    Exercises ``artifacts`` and the hot swap beside the read path.

End-to-end metrics (``--trace 0``) are the same five for every
workload, each about the workload's *operation*: one ``clean()`` call
(``clean``), one HTTP read (``serve-read``), one delta from the start
of its ``repro ingest`` until the server answers one of its new CVEs
(``ingest-under-read``; the reads beside it are checked and printed):

==============  =====  =================================================
``setup_s``     s      ``clean``: ``load_feed`` of the snapshot feed;
                       serve workloads: spawn of ``repro serve`` until
                       the first 200 on ``/healthz``.  Median of three.
``peak_rss_mb`` MB     peak RSS of the process doing the operation: the
                       one running ``clean()``, the server (``VmHWM``),
                       the ``repro ingest`` process (largest of the run).
``ops_per_s``   1/s    operations completed per second.
``p50_ms``      ms     operation latency, median (client-observed).
``p99_ms``      ms     operation latency, nearest-rank p99; a failed
                       operation counts as infinitely slow.
==============  =====  =================================================

``attempted`` and ``failed`` in the result count every checked
operation (``clean()`` calls, requests, ingests); ``fail_share`` is
their ratio.  The traced run also reports the ingest workload's reads
beside the swaps (``swap.*``) and the server's peak RSS.

Per-layer metrics (``--trace 1``) come from a separate traced run that
times the calls into each module's public functions from this
package's code and reads counters the program already exposes.  Every
workload emits every name; a layer the workload does not exercise
reads 0.  ``trace.overhead_share`` compares the traced and untraced
halves of the same run; the spans are written to
``.perfbench_work/spans/``.

Which workload each ROADMAP item should move, and which it should
leave unchanged:

1. BLAS thread setting / backend layer collapse: moves ``clean``
   (``p50_ms``, ``severity.fit*``); ``serve-read`` unchanged.
2. Deleting dp-fit moves nothing on the default runtime (dp is off);
   deleting the predict batcher and the response caches moves
   ``serve-read`` (``p50_ms``, ``p99_ms``, ``batching.*``,
   ``http.cache_*``); ``clean`` unchanged.
3. Keep-alive stall fix and input hardening: moves ``serve-read``
   (``p50_ms`` near 44 ms today, ``ops_per_s``,
   ``http.transport_ms.*``); ``clean`` unchanged.
4. Fused Adam / Dense / Conv1D work: moves ``clean`` (``p50_ms``,
   ``severity.fit.cnn_s``); both serve workloads unchanged.

``ingest-under-read`` is the guard for all four: none should move it.
Cold-start and hot-swap work (ROADMAP 5's mmap plane) moves it.

Every result starts with a host fingerprint line and a one-off prep
line (artifact store, feeds, deltas), which no metric includes.  The
last line is the JSON result object.  In a directory without the
program's sources the benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import pathlib
import platform
import shutil
import sys
import uuid

ROOT = pathlib.Path(__file__).resolve().parent.parent

WORKLOADS = ("clean", "serve-read", "ingest-under-read")


def declared_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, if it has one."""
    import numpy

    numpy_dir = pathlib.Path(numpy.__file__).resolve().parent
    for path in sorted(glob.glob(str(numpy_dir.parent / "numpy.libs" / "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` without running git (which
    would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint(code_sha256: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "code_sha256": code_sha256,
    }


def _value(value: float) -> float | None:
    # JSON has no infinity: a percentile that lands on a failed
    # operation is reported as null (the run is then not correct).
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None, settings=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import clean_workload, inputs, serve_workload
    from perfbench.measure import Context, Tracer

    runners = {
        "clean": clean_workload.run,
        "serve-read": serve_workload.run_serve_read,
        "ingest-under-read": serve_workload.run_ingest_under_read,
    }
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    work = ROOT / inputs.WORK_DIR
    run_dir = work / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    tracer = Tracer(bool(args.trace), uuid.uuid4().hex[:16])
    ctx = Context(
        root=ROOT,
        settings=settings or inputs.Settings(),
        seed=args.seed,
        seconds=args.seconds,
        tracer=tracer,
        run_dir=run_dir,
        env=env,
    )
    print("host " + json.dumps(host_fingerprint(inputs.code_digest(ROOT)[:16])))
    try:
        outcome = runners[args.workload](ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer.enabled:
        spans = work / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        outcome.lines.append(f"{len(tracer.spans)} spans written to {spans}")

    unknown = sorted(set(outcome.metrics) - set(declared))
    missing = sorted(set(declared) - set(outcome.metrics))
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"metrics not as declared: unknown {unknown}, missing {missing}")
    print(f"prep_s {outcome.prep_s:.4f} s (one-off prep, in no metric)")
    for line in outcome.lines:
        print(line)
    print(
        f"fail_share {outcome.failed}/{outcome.attempted} = "
        f"{outcome.failed / outcome.attempted:.4f} (failed / attempted operations)"
    )
    metrics = {}
    for name, unit in declared.items():
        # A per-layer metric the workload did not produce: the layer
        # did no work in this workload.
        value = float(outcome.metrics.get(name, 0.0))
        metrics[name] = {"value": _value(value), "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
