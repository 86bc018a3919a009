"""The ``serve-read`` and ``ingest-under-read`` workloads.

Both run a real ``python -m repro serve`` subprocess with its defaults
(one worker, private LRU response cache, predict batcher on, 1 s
reload interval) over a copy of the artifact store.  Set-up is
the spawn of that process until the first 200 on ``/healthz`` (median
of three spawns; the third server is the one measured).

The load generator is this process: a closed loop over two persistent
HTTP/1.1 keep-alive connections (``http.client``, one thread each)
replaying the seed's request trace.  Every response is checked: status
200, a JSON body, ``/v1/cve/X`` names X, and each predict body equals
the in-process ``ServiceState.predict_payload`` of the same request,
byte for byte.  A failed request counts as infinitely slow.

``ingest-under-read`` runs the same readers while the main thread runs
``python -m repro ingest <delta>`` subprocesses back to back.  Each
ingest must exit 0 and advance ``CURRENT``; it is *visible* once a
third (probe) connection gets a 200 for one of the delta's new CVE ids.
Its operation is the delta (ingest start until visible), because the
reads' own tail moves with how many of them a swap happens to slow,
which differs from run to run far more than any bound allows; the
reads are checked, counted and printed.  Predict responses may name a
newer version after a swap; everything else in them must still match.

The traced run replays half the time untraced and half traced (the
difference is the tracing overhead), then times the layers in-process
on the same trace: ``ServiceState`` payload builders, and
``NvdService.handle`` without the socket; the ingest workload also
runs one ``ingest_delta`` in-process on a copy of the store.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import itertools
import json
import math
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.parse

from perfbench import inputs
from perfbench.measure import (
    Context,
    Outcome,
    Tracer,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
)

SETUP_REPEATS = 3
READ_CONNECTIONS = 2
STARTUP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
INGEST_TIMEOUT_S = 120.0
VISIBLE_TIMEOUT_S = 60.0
#: trace requests timed in-process per layer in the traced run.
LAYER_SAMPLES = 600

ENDPOINTS = ("cve", "vendor", "product", "predict", "stats", "healthz")
PAYLOAD_ENDPOINTS = ("cve", "vendor", "product", "predict")

_VERSION_RE = re.compile(r"v\d{4,}")


@dataclasses.dataclass
class Sample:
    label: str
    start: float
    end: float
    problem: str | None

    @property
    def ok(self) -> bool:
        return self.problem is None

    @property
    def latency(self) -> float:
        return self.end - self.start if self.ok else math.inf


@dataclasses.dataclass
class Ingest:
    start: float
    flip: float
    visible: float | None
    problem: str | None
    peak_rss_mb: float

    @property
    def latency(self) -> float:
        """Ingest start until its new CVE is served (visibility lag)."""
        return self.visible - self.start if self.problem is None else math.inf


class Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.proc = proc
        self.port = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    @classmethod
    def start(cls, ctx: Context, store, log) -> tuple["Server", float]:
        """Spawn and wait for the first 200 on ``/healthz``; returns
        the server and the seconds that took."""
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--artifacts", str(store),
             "--port", "0"],
            cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE, stderr=log,
            text=True,
        )
        server = cls(proc)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], STARTUP_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            match = re.search(r"http://[^:/]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not report its address: {line!r}")
            server.port = int(match.group(1))
            while True:
                try:
                    if server.get("/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - begin > STARTUP_TIMEOUT_S:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - begin

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class ResponseCheck:
    """Checks one response; returns a problem description or None.

    ``expected`` maps each predict body in the trace to the in-process
    payload.  With ``any_version`` a predict payload may name another
    artifact version (a hot swap happened); all its other bytes must
    still match.
    """

    def __init__(self, expected: dict[bytes, dict], any_version: bool) -> None:
        self.expected = expected
        self.any_version = any_version

    def __call__(
        self, label: str, path: str, body: bytes | None, status: int, data: bytes
    ) -> str | None:
        if status != 200:
            return f"{label} {path}: status {status}"
        try:
            payload = json.loads(data)
        except ValueError:
            return f"{label} {path}: body is not JSON"
        if not isinstance(payload, dict):
            return f"{label} {path}: body is not a JSON object"
        if label == "cve":
            cve_id = urllib.parse.unquote(path.rsplit("/", 1)[1])
            if payload.get("cve_id") != cve_id:
                return f"{label} {path}: names {payload.get('cve_id')!r}"
        elif label == "predict":
            expected = self.expected[body]
            if self.any_version and _VERSION_RE.fullmatch(str(payload.get("version"))):
                expected = {**expected, "version": payload["version"]}
            if data != json.dumps(expected).encode("utf-8"):
                return f"{label}: {data[:120]!r} differs from in-process {expected!r}"
        return None


def _read_loop(port, share, stop, check, tracer: Tracer, out: list[Sample]) -> None:
    """One keep-alive connection replaying ``share`` until ``stop``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        for label, path, body in share:
            if stop.is_set():
                break
            begin = time.perf_counter()
            try:
                if body is None:
                    conn.request("GET", path)
                else:
                    conn.request(
                        "POST", path, body=body,
                        headers={"Content-Type": "application/json"},
                    )
                response = conn.getresponse()
                problem = check(label, path, body, response.status, response.read())
            except (OSError, http.client.HTTPException) as error:
                problem = f"{label} {path}: {error!r}"
                conn.close()  # the next request reconnects
            end = time.perf_counter()
            out.append(Sample(label, begin, end, problem))
            tracer.record(f"request.{label}", begin, end)
    finally:
        conn.close()


def _trace_shares(trace) -> list:
    """Each connection's endless slice of the trace; a later
    :class:`Readers` on the same shares continues where one stopped."""
    return [itertools.cycle(trace[k::READ_CONNECTIONS]) for k in range(READ_CONNECTIONS)]


class Readers:
    """The closed-loop read clients, one thread per connection."""

    def __init__(self, port: int, shares: list, check, tracer: Tracer) -> None:
        self.stop = threading.Event()
        self.results: list[list[Sample]] = [[] for _ in shares]
        self.threads = [
            threading.Thread(
                target=_read_loop,
                args=(port, share, self.stop, check, tracer, out),
                daemon=True,
            )
            for share, out in zip(shares, self.results)
        ]

    def __enter__(self) -> "Readers":
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=REQUEST_TIMEOUT_S + 5)

    def samples(self) -> list[Sample]:
        return sorted(itertools.chain(*self.results), key=lambda s: s.start)


@dataclasses.dataclass
class Prepared:
    store: object
    state: object  # repro.service.state.ServiceState
    trace: list
    expected: dict
    feeds: list
    prep_s: float
    line: str


def _prepare(ctx: Context, with_deltas: bool) -> Prepared:
    """One-off prep: the store copy, trace, expectations, delta feeds."""
    import repro.service.state as state_module

    started = time.perf_counter()
    cached, build_s, was_cached = inputs.cached_store(ctx.root, ctx.settings)
    store = ctx.run_dir / "store"
    shutil.copytree(cached, store)
    with ctx.tracer.patched(_state_load_targets(state_module)):
        state = state_module.ServiceState.load(store)
    trace = inputs.request_trace(state.snapshot, ctx.seed)
    expected = {}
    for _, _, body in trace:
        if body is not None and body not in expected:
            expected[body] = state.predict_payload(json.loads(body))
    feeds = (
        inputs.delta_feeds(ctx.root, state.snapshot.entries, ctx.settings, ctx.seed, ctx.run_dir)
        if with_deltas
        else []
    )
    prep_s = time.perf_counter() - started
    how = "cached, built" if was_cached else "built"
    line = (
        f"prep: artifact store {how} in {build_s:.3f} s; "
        f"trace of {len(trace)} requests; {len(feeds)} delta feeds"
    )
    return Prepared(store, state, trace, expected, feeds, prep_s, line)


def _state_load_targets(state_module) -> list:
    return [
        (state_module.ServiceState, "load", "state.load"),
        (state_module, "load_artifacts", "artifacts.load"),
    ]


def _read_lines(samples: list[Sample], window: float) -> list[str]:
    failed = [sample for sample in samples if not sample.ok]
    latencies = [sample.latency for sample in samples]
    per_endpoint = ", ".join(
        f"{label} {median(s.latency for s in samples if s.label == label) * 1000.0:.2f}"
        for label in ENDPOINTS
        if any(s.label == label for s in samples)
    )
    lines = [
        f"rps {sum(s.ok for s in samples) / window:.2f} req/s ({len(samples)} "
        f"requests over {READ_CONNECTIONS} keep-alive connections in {window:.2f} s)",
        f"reads p50 {median(latencies) * 1000.0:.2f} ms, p99 "
        f"{percentile(latencies, 99) * 1000.0:.2f} ms; by endpoint p50 (ms): {per_endpoint}",
    ]
    lines += [f"failed request: {sample.problem}" for sample in failed[:5]]
    return lines


def _server_counters(server: Server) -> dict:
    """The server's ``/v1/metrics`` JSON (an empty dict if unavailable)."""
    try:
        status, data = server.get("/v1/metrics")
    except OSError:
        return {}
    return json.loads(data) if status == 200 else {}


@dataclasses.dataclass
class Measured:
    """What one measured server run produced."""

    setups: list[float]
    #: reads of the untraced half of a traced run (empty otherwise).
    plain: list[Sample]
    #: reads of the (traced half of the) run, and its length.
    samples: list[Sample]
    window: float
    server_cpu: float
    client_cpu: float
    client_window: float
    peak_rss_mb: float
    #: the server's ``/v1/metrics`` JSON after the run.
    counters: dict


def _halves(ctx: Context) -> list[tuple[float, Tracer]]:
    """The whole run untraced, or half untraced and half traced."""
    if not ctx.tracer.enabled:
        return [(ctx.seconds, ctx.tracer)]
    off = Tracer(False, ctx.tracer.run_id)
    return [(ctx.seconds / 2, off), (ctx.seconds / 2, ctx.tracer)]


def _measure(ctx: Context, prep: Prepared, check, work) -> Measured:
    """Start the server, run the readers around ``work(server, seconds,
    tracer, log)`` in each half, and read the server's usage."""
    with open(ctx.run_dir / "serve.log", "w", encoding="utf-8") as log:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            server, seconds = Server.start(ctx, prep.store, log)
            setups.append(seconds)
            server.stop()
        server, seconds = Server.start(ctx, prep.store, log)
        setups.append(seconds)
        try:
            cpu_before = cpu_seconds(server.pid)
            client_before = time.process_time()
            begin = time.perf_counter()
            runs = []
            shares = _trace_shares(prep.trace)
            for seconds, tracer in _halves(ctx):
                half_begin = time.perf_counter()
                with Readers(server.port, shares, check, tracer) as readers:
                    work(server, seconds, tracer, log)
                runs.append((readers.samples(), time.perf_counter() - half_begin))
            client_window = time.perf_counter() - begin
            server_cpu = cpu_seconds(server.pid) - cpu_before
            client_cpu = time.process_time() - client_before
            peak = peak_rss_mb(server.pid)
            counters = _server_counters(server)
        finally:
            server.stop()
    samples, window = runs[-1]
    plain = runs[0][0] if len(runs) > 1 else []
    return Measured(
        setups, plain, samples, window, server_cpu, client_cpu, client_window,
        peak, counters,
    )


def _usage_line(measured: Measured, n_requests: int) -> str:
    cache = measured.counters.get("cache", {})
    return (
        f"server cpu {measured.server_cpu * 1000.0 / max(n_requests, 1):.3f} ms/req; "
        f"client cpu share {measured.client_cpu / measured.client_window:.3f} "
        f"of one core; cache hits {cache.get('hits', 0)} / misses "
        f"{cache.get('misses', 0)}"
    )


def run_serve_read(ctx: Context) -> Outcome:
    prep = _prepare(ctx, with_deltas=False)
    check = ResponseCheck(prep.expected, any_version=False)
    measured = _measure(
        ctx, prep, check, lambda server, seconds, tracer, log: time.sleep(seconds)
    )
    reads = measured.plain + measured.samples
    lines = [
        prep.line,
        *_read_lines(measured.samples, measured.window),
        _usage_line(measured, len(reads)),
    ]
    failed = sum(not s.ok for s in reads)
    if not ctx.tracer.enabled:
        latencies = [sample.latency for sample in measured.samples]
        metrics = {
            "setup_s": median(measured.setups),
            "peak_rss_mb": measured.peak_rss_mb,
            "ops_per_s": sum(s.ok for s in measured.samples) / measured.window,
            "p50_ms": median(latencies) * 1000.0,
            "p99_ms": percentile(latencies, 99) * 1000.0,
        }
    else:
        metrics = _layer_metrics(ctx, prep, measured, len(reads), [])
    return Outcome(metrics, len(reads), failed, prep.prep_s, lines)


def _await_visible(server: Server, cve_id: str, probes: list[Sample]) -> tuple[float | None, str | None]:
    """Poll ``/v1/cve/<id>`` on a keep-alive probe connection until it
    answers 200 naming the id; returns (time, problem)."""
    path = f"/v1/cve/{cve_id}"
    deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
    try:
        while time.perf_counter() < deadline:
            begin = time.perf_counter()
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                status, data = response.status, response.read()
            except (OSError, http.client.HTTPException):
                conn.close()
                status, data = 0, b""
            end = time.perf_counter()
            probes.append(Sample("probe", begin, end, None))
            if status == 200:
                try:
                    if json.loads(data).get("cve_id") == cve_id:
                        return end, None
                except (ValueError, AttributeError):
                    pass
                return None, f"{path} answered 200 with a body not naming it"
            if status not in (0, 404):
                return None, f"{path} answered {status}"
            time.sleep(0.01)
    finally:
        conn.close()
    return None, f"{cve_id} not served within {VISIBLE_TIMEOUT_S} s"


def _ingest_loop(
    ctx: Context, server: Server, prep: Prepared, seconds: float, tracer: Tracer,
    log, probes: list[Sample],
) -> list[Ingest]:
    """Sequential ``repro ingest`` runs until ``seconds`` pass (at least
    one, at most one per prepared feed)."""
    from repro.artifacts import read_current

    ingests: list[Ingest] = []
    deadline = time.perf_counter() + seconds
    while not ingests or time.perf_counter() < deadline:
        if not prep.feeds:
            time.sleep(max(0.0, min(0.05, deadline - time.perf_counter())))
            continue
        feed, new_ids = prep.feeds.pop(0)
        before = read_current(prep.store)
        begin = time.perf_counter()
        with tracer.span("ingest.run"):
            code, peak = _run_ingest(ctx, feed, prep.store, log)
        flip = time.perf_counter()
        visible, problem = None, None
        if code != 0:
            problem = f"repro ingest {feed.name} exited {code}"
        elif read_current(prep.store) == before:
            problem = f"repro ingest {feed.name} did not advance CURRENT"
        else:
            with tracer.span("ingest.await_visible"):
                visible, problem = _await_visible(server, new_ids[0], probes)
        ingests.append(Ingest(begin, flip, visible, problem, peak))
    return ingests


def _run_ingest(ctx: Context, feed, store, log) -> tuple[int | None, float]:
    """Run one ``repro ingest``; its exit code (None on timeout) and peak
    RSS in MiB, sampled from ``/proc`` every 5 ms while it runs (the
    ``ru_maxrss`` of a child also counts the parent's memory)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "ingest", str(feed), "--artifacts", str(store)],
        cwd=ctx.root, env=ctx.env, stdout=log, stderr=log,
    )
    deadline = time.perf_counter() + INGEST_TIMEOUT_S
    peak = 0.0
    while proc.poll() is None:
        with contextlib.suppress(OSError, RuntimeError):  # exiting
            peak = max(peak, peak_rss_mb(proc.pid))
        if time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            return None, peak
        time.sleep(0.005)
    return proc.returncode, peak


def _swap_stalls(ingests: list[Ingest], reads: list[Sample]) -> list[float]:
    """Per hot swap: the longest read overlapping [CURRENT flip, visible]."""
    stalls = []
    for ingest in ingests:
        if ingest.visible is None:
            continue
        overlapping = [
            read.end - read.start
            for read in reads
            if read.start <= ingest.visible and read.end >= ingest.flip
        ]
        stalls.append(max(overlapping, default=0.0))
    return stalls


def run_ingest_under_read(ctx: Context) -> Outcome:
    prep = _prepare(ctx, with_deltas=True)
    check = ResponseCheck(prep.expected, any_version=True)
    probes: list[Sample] = []
    ingests: list[Ingest] = []

    def work(server, seconds, tracer, log):
        ingests.extend(_ingest_loop(ctx, server, prep, seconds, tracer, log, probes))

    measured = _measure(ctx, prep, check, work)
    reads = measured.plain + measured.samples
    good = [ingest for ingest in ingests if ingest.problem is None]
    stalls = _swap_stalls(good, reads + probes)
    ingest_s = median(i.flip - i.start for i in good)
    visible_s = median(i.visible - i.start for i in good)
    lines = [
        prep.line,
        *_read_lines(measured.samples, measured.window),
        f"ingest_s {ingest_s:.4f} s, visible_s {visible_s:.4f} s (median of "
        f"{len(good)} of {len(ingests)} ingests of {inputs.DELTA_NEW} new + "
        f"{inputs.DELTA_MUTATED} mutated CVEs)",
        "per ingest (ingest s / visible s): " + ", ".join(
            f"{i.flip - i.start:.2f}/{i.visible - i.start:.2f}" for i in good
        ),
        f"swap stall {median(stalls) * 1000.0:.1f} ms median, "
        f"{max(stalls, default=0.0) * 1000.0:.1f} ms max over {len(stalls)} swaps",
        _usage_line(measured, len(reads) + len(probes)),
        *(f"failed ingest: {i.problem}" for i in ingests if i.problem),
    ]
    attempted = len(reads) + len(ingests)
    failed = sum(not s.ok for s in reads) + len(ingests) - len(good)
    if not ctx.tracer.enabled:
        # The operation is one delta, from ingest start until served;
        # the process under test is the ingest process.
        window = max(i.visible or i.flip for i in ingests) - min(i.start for i in ingests)
        latencies = [ingest.latency for ingest in ingests]
        metrics = {
            "setup_s": median(measured.setups),
            "peak_rss_mb": max(ingest.peak_rss_mb for ingest in ingests),
            "ops_per_s": len(good) / window,
            "p50_ms": median(latencies) * 1000.0,
            "p99_ms": percentile(latencies, 99) * 1000.0,
        }
    else:
        metrics = _layer_metrics(ctx, prep, measured, len(reads) + len(probes), stalls)
        metrics["ingest.run_s"] = ingest_s
        metrics["ingest.visible_s"] = visible_s
        metrics.update(_ingest_breakdown(ctx))
    return Outcome(metrics, attempted, failed, prep.prep_s, lines)


def _ingest_breakdown(ctx: Context) -> dict:
    """One ``ingest_delta`` in-process on a fresh copy of the store."""
    import repro.artifacts.ingest as ingest_module
    from repro.core import SeverityPredictionEngine
    from repro.nvd import load_feed

    tracer = ctx.tracer
    cached, _, _ = inputs.cached_store(ctx.root, ctx.settings)
    copy = ctx.run_dir / "ingest-copy"
    shutil.copytree(cached, copy)
    entries = load_feed(ctx.run_dir / "delta-00.json.gz")
    with tracer.patched(
        [
            (ingest_module, "load_artifacts", "artifacts.load"),
            (ingest_module, "export_run", "artifacts.export"),
            (SeverityPredictionEngine, "predict_scores", "severity.predict"),
        ]
    ), tracer.span("artifacts.ingest_delta"):
        ingest_module.ingest_delta(copy, entries)
    return {
        "artifacts.ingest_delta_s": median(tracer.durations("artifacts.ingest_delta")),
        "artifacts.export_s": median(tracer.durations("artifacts.export")),
        "artifacts.load_s": median(tracer.durations("artifacts.load")),
        "severity.predict_s": median(tracer.durations("severity.predict")),
    }


def _payload_call(state, label: str, path: str, body: bytes | None):
    parts = [urllib.parse.unquote(part) for part in path.split("/") if part]
    if label == "cve":
        return lambda: state.cve_payload(parts[2])
    if label == "vendor":
        return lambda: state.vendor_payload(parts[2])
    if label == "product":
        return lambda: state.product_payload(parts[2], parts[3])
    if label == "predict":
        return lambda: state.predict_payload(json.loads(body))
    return None


def _layer_metrics(
    ctx: Context,
    prep: Prepared,
    measured: Measured,
    n_requests: int,
    stalls: list[float],
) -> dict:
    """Per-layer numbers: in-process payload and ``handle`` timings on
    the trace, the server's own counters, and the client's samples."""
    import repro.service.state as state_module
    from repro.service.http import NvdService

    tracer = ctx.tracer
    traced, plain, counters = measured.samples, measured.plain, measured.counters
    items = prep.trace[:LAYER_SAMPLES]
    for label, path, body in items:
        call = _payload_call(prep.state, label, path, body)
        if call is not None:
            with tracer.span(f"state.{label}_payload"):
                call()
    with tracer.patched(_state_load_targets(state_module)):
        service = NvdService(prep.store)
    try:
        for label, path, body in items:
            with tracer.span(f"http.handle.{label}"):
                service.handle("GET" if body is None else "POST", path, body)
    finally:
        service.close()

    metrics: dict[str, float] = {
        "state.load_s": median(tracer.durations("state.load")),
        "artifacts.load_s": median(tracer.durations("artifacts.load")),
    }
    for label in PAYLOAD_ENDPOINTS:
        metrics[f"state.{label}_payload_us"] = (
            median(tracer.durations(f"state.{label}_payload")) * 1e6
        )
    for label in ENDPOINTS:
        handle_us = median(tracer.durations(f"http.handle.{label}")) * 1e6
        client_ms = median(s.latency for s in traced if s.ok and s.label == label) * 1000.0
        metrics[f"http.handle_us.{label}"] = handle_us
        metrics[f"http.transport_ms.{label}"] = client_ms - handle_us / 1000.0
    cache = counters.get("cache", {})
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    batching = counters.get("predict_batching", {})
    metrics.update(
        {
            "http.cache_hits": hits,
            "http.cache_misses": misses,
            "http.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "server.cpu_ms_per_req": measured.server_cpu * 1000.0 / max(n_requests, 1),
            "batching.predict_wait_ms": (
                metrics["http.handle_us.predict"] - metrics["state.predict_payload_us"]
            ) / 1000.0,
            "batching.mean_rows": (
                batching.get("rows", 0) / batching["batches"]
                if batching.get("batches") else 0.0
            ),
            "server.peak_rss_mb": measured.peak_rss_mb,
            "swap.count": counters.get("swaps", 0),
            "swap.stall_ms": median(stalls) * 1000.0,
            "client.cpu_share": measured.client_cpu / measured.client_window,
            "trace.overhead_share": (
                median(s.latency for s in traced) / median(s.latency for s in plain) - 1.0
            ),
        }
    )
    return metrics
