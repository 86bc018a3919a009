"""Spans, percentiles and ``/proc`` readings for the benchmark.

Spans are recorded from the benchmark's own code, around calls into
the program's public functions (:meth:`Tracer.patched` swaps a module
or class attribute for a timed wrapper and restores it); nothing
inside ``src/`` is instrumented.  A disabled tracer records nothing,
so the untraced end-to-end runs pay no tracing cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import pathlib
import statistics
import threading
import time
from collections.abc import Iterable, Iterator

from perfbench.inputs import Settings


@dataclasses.dataclass
class Context:
    """What one benchmark run works with."""

    root: pathlib.Path
    settings: Settings
    seed: int
    seconds: float
    tracer: "Tracer"
    run_dir: pathlib.Path
    #: environment for ``python -m repro`` subprocesses.
    env: dict[str, str]


@dataclasses.dataclass
class Outcome:
    """One run's result: metric values by name, operation counts, the
    one-off prep time, and human-readable report lines."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    prep_s: float
    lines: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans are written once, at the end."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the body (parented to the enclosing
        span of the same thread)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent, self.run_id))

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (a client request)."""
        if self.enabled:
            stack = self._stack()
            self.spans.append(
                Span(
                    name, start, end, next(self._ids),
                    stack[-1] if stack else None, self.run_id,
                )
            )

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple[object, str, str]]) -> Iterator[None]:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``targets`` holds ``(owner, attr, name)`` triples; an owner is a
        module (for a function the caller looks up as a module global)
        or a class (for a method).  The originals come back on exit.
        """
        originals = []
        try:
            for owner, attr, name in targets:
                # Keep the raw attribute (a classmethod descriptor stays
                # one) to restore; wrap what a caller would look up.
                originals.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._timed(getattr(owner, attr), name))
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _timed(self, function, name: str):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return timed

    def durations(self, name: str) -> list[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "id": span.span_id,
                "parent": span.parent,
                "run_id": span.run_id,
            }
            for span in self.spans
        ]
        path.write_text(json.dumps(payload), encoding="utf-8")


def median(values: Iterable[float]) -> float:
    """The median, or 0.0 for no samples (a layer that did no work)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: with n >= 1000 samples, p99 leaves at
    least ten samples beyond it.  A failed operation enters as
    ``math.inf``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` (Linux ``clear_refs`` code 5)."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
