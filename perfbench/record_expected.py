#!/usr/bin/env python3
"""Record the ``clean`` check's expected values into ``expected.json``.

Runs ``clean()`` at the benchmark's input size and at the self-tests'
size, and writes the score-independent
``CleaningReport`` fields plus the chosen model's held-out accuracy.
Re-record only when a change is meant to alter the cleaning output::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import clean_workload, inputs  # noqa: E402
from perfbench.selftest import TINY  # noqa: E402


def main() -> int:
    table = {}
    for settings in (inputs.Settings(), TINY):
        key = f"n{settings.n_cves}-e{settings.epochs}"
        table[key] = clean_workload.record_expected(settings)
        print(key, json.dumps(table[key]))
    clean_workload.EXPECTED_FILE.write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
