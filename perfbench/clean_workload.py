"""The ``clean`` workload: the batch user re-running §4 on a snapshot.

Prep generates the ``baseline`` snapshot (see :mod:`perfbench.inputs`)
and writes it as an NVD feed.  Set-up is ``nvd.feed.load_feed`` of that feed (median of
three loads).  The measured operation is ``repro.core.clean()`` with
the default runtime (serial executor, ``numpy-ref``, data-parallel fit
off) and 8 training epochs, repeated as often as the first call says
fits in ``--seconds``.  Every call is checked: the score-independent
``CleaningReport`` fields must equal the values recorded in
``expected.json``, and the chosen model's held-out accuracy must lie
within ``ACCURACY_TOLERANCE`` of the recorded one.

The traced run makes one untraced and one traced ``clean()`` (the
difference is the tracing overhead), timing the pipeline's calls into
``core.dates``, ``core.vendors``, ``core.products``, ``core.severity``
and ``core.cwefix``, then fits each §4.3 model alone.
"""

from __future__ import annotations

import json
import math
import pathlib
import time

from perfbench import inputs
from perfbench.measure import (
    Context,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
)

EXPECTED_FILE = pathlib.Path(__file__).with_name("expected.json")

#: CleaningReport fields that do not depend on model scores.
REPORT_FIELDS = (
    "n_cves",
    "n_improved_dates",
    "n_vendor_names_impacted",
    "n_vendor_names_canonical",
    "n_product_names_impacted",
    "n_product_vendors_affected",
    "n_v3_predicted",
    "n_cwe_fixed",
)

#: allowed drift of the chosen model's held-out accuracy (absolute):
#: float32 training may change in the last bits under a numerics
#: change, which moves a handful of the ~560 held-out labels at most.
ACCURACY_TOLERANCE = 0.02

SETUP_REPEATS = 3

MODELS = ("lr", "svr", "cnn", "dnn")


def report_record(rectified) -> dict:
    """What the check compares: report fields plus held-out accuracy."""
    report = rectified.report
    record = {field: getattr(report, field) for field in REPORT_FIELDS}
    record["model_used"] = report.model_used
    record["accuracy"] = rectified.engine.evaluate()[report.model_used].accuracy
    return record


def check(record: dict, expected: dict | None) -> list[str]:
    """Problems with one clean() result; empty when it is correct."""
    if expected is None:
        return ["no recorded CleaningReport values for this input size"]
    problems = [
        f"{field}={record[field]} (recorded {expected[field]})"
        for field in REPORT_FIELDS
        if record[field] != expected[field]
    ]
    if abs(record["accuracy"] - expected["accuracy"]) > ACCURACY_TOLERANCE:
        problems.append(
            f"accuracy {record['accuracy']:.4f} of {record['model_used']} is "
            f"off the recorded {expected['accuracy']:.4f} by more than "
            f"{ACCURACY_TOLERANCE}"
        )
    return problems


def load_expected(settings: inputs.Settings) -> dict | None:
    """The recorded values for this input size (None if not recorded)."""
    table = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return table.get(f"n{settings.n_cves}-e{settings.epochs}")


def record_expected(settings: inputs.Settings) -> dict:
    """Run clean() and return the values :func:`check` compares."""
    from repro.core import EngineConfig, clean

    bundle = inputs.generate_bundle(settings)
    rectified = clean(
        bundle.snapshot,
        bundle.web,
        *inputs.oracles(bundle),
        engine_config=EngineConfig(epochs=settings.epochs),
    )
    return report_record(rectified)


def run(ctx: Context) -> Outcome:
    from repro.core import EngineConfig, clean
    from repro.nvd import load_feed, save_feed

    tracer = ctx.tracer
    started = time.perf_counter()
    bundle = inputs.generate_bundle(ctx.settings)
    feed = ctx.run_dir / "snapshot.json.gz"
    save_feed(bundle.snapshot.entries, feed)
    vendor_oracle, product_oracle = inputs.oracles(bundle)
    expected = load_expected(ctx.settings)
    config = EngineConfig(epochs=ctx.settings.epochs)
    prep_s = time.perf_counter() - started

    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        with tracer.span("feed.load"):
            load_feed(feed)
        setups.append(time.perf_counter() - begin)

    walls: list[float] = []
    passed: list[bool] = []
    lines: list[str] = []
    failed = 0
    last = None

    def one_clean() -> None:
        nonlocal failed, last
        last = None  # release the previous result before the next run
        begin = time.perf_counter()
        with tracer.span("clean"):
            rectified = clean(
                bundle.snapshot, bundle.web, vendor_oracle, product_oracle,
                engine_config=config,
            )
        wall = time.perf_counter() - begin
        record = report_record(rectified)
        problems = check(record, expected)
        failed += bool(problems)
        walls.append(wall)
        passed.append(not problems)
        lines.append(
            f"clean() {wall:.3f} s, model {record['model_used']} accuracy "
            f"{record['accuracy']:.4f}: "
            + ("; ".join(problems) if problems else "report matches recorded values")
        )
        last = rectified

    reset_peak_rss()
    if not tracer.enabled:
        # As many calls as the first says fit in --seconds, so a call
        # landing near the boundary does not change the count.
        one_clean()
        for _ in range(max(1, round(ctx.seconds / walls[0])) - 1):
            one_clean()
        # A call that fails its check enters as an infinitely slow one.
        latencies = [
            wall if ok else math.inf for wall, ok in zip(walls, passed)
        ]
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "ops_per_s": len(walls) / sum(walls),
            "p50_ms": median(latencies) * 1000.0,
            "p99_ms": percentile(latencies, 99) * 1000.0,
        }
        lines.append(
            f"clean_s {median(walls):.4f} s (median of {len(walls)} clean() "
            f"calls on {ctx.settings.n_cves} CVEs, {ctx.settings.epochs} epochs)"
        )
        return Outcome(metrics, len(walls), failed, prep_s, lines)

    metrics = _traced(ctx, one_clean, walls, bundle)
    metrics["vendors.candidate_pairs"] = len(last.vendor_analysis.candidates)
    metrics["vendors.confirm_ratio"] = _ratio(
        len(last.vendor_analysis.confirmed), len(last.vendor_analysis.candidates)
    )
    metrics["products.candidate_pairs"] = len(last.product_analysis.candidates)
    metrics["products.confirm_ratio"] = _ratio(
        len(last.product_analysis.confirmed), len(last.product_analysis.candidates)
    )
    return Outcome(metrics, len(walls), failed, prep_s, lines)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _traced(ctx: Context, one_clean, walls: list[float], bundle) -> dict:
    """One plain and one traced clean(), then each model fitted alone."""
    import repro.core.pipeline as pipeline
    from repro.core import EngineConfig, SeverityPredictionEngine

    tracer = ctx.tracer
    one_clean()
    engine = pipeline.SeverityPredictionEngine
    with tracer.patched(
        [
            (pipeline, "estimate_all", "dates.estimate_all"),
            (pipeline, "analyze_vendors", "vendors.analyze"),
            (pipeline, "analyze_products", "products.analyze"),
            (engine, "fit", "severity.fit"),
            (engine, "predict_scores", "severity.predict"),
            (pipeline, "extract_cwe_fixes", "cwefix.extract"),
        ]
    ):
        one_clean()
    plain, traced = walls

    with_v3 = [entry for entry in bundle.snapshot.entries if entry.has_v3]
    for model in MODELS:
        config = EngineConfig(epochs=ctx.settings.epochs, models=(model,))
        alone = SeverityPredictionEngine(config)
        try:
            with tracer.span(f"severity.fit.{model}"):
                alone.fit(with_v3)
        finally:
            alone.close()

    metrics = {
        "feed.load_s": median(tracer.durations("feed.load")),
        "dates.estimate_all_s": median(tracer.durations("dates.estimate_all")),
        "vendors.analyze_s": median(tracer.durations("vendors.analyze")),
        "products.analyze_s": median(tracer.durations("products.analyze")),
        "severity.fit_s": median(tracer.durations("severity.fit")),
        "severity.predict_s": median(tracer.durations("severity.predict")),
        "cwefix.extract_s": median(tracer.durations("cwefix.extract")),
        "trace.overhead_share": traced / plain - 1.0,
    }
    for model in MODELS:
        metrics[f"severity.fit.{model}_s"] = median(
            tracer.durations(f"severity.fit.{model}")
        )
    return metrics
