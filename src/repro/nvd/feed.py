"""NVD JSON data-feed serialisation.

Reads and writes the NVD "JSON 1.0/1.1" feed layout (the format the
paper's snapshot was distributed in): a top-level object with
``CVE_Items``, each holding ``cve`` (metadata, descriptions,
problemtype, references), ``configurations`` (CPE applicability) and
``impact`` (``baseMetricV2`` / ``baseMetricV3``).  Round-tripping a
snapshot through this module is lossless for every field the cleaning
pipeline touches.
"""

from __future__ import annotations

import datetime
import gzip
import json
import pathlib
from collections.abc import Callable
from typing import Any

from repro import perf
from repro.cpe import bind_to_formatted_string, parse_cpe
from repro.cvss import (
    parse_v2_vector,
    parse_v3_vector,
    score_v2,
    score_v3,
    severity_v2,
    severity_v3,
    v2_vector_string,
    v3_vector_string,
)
from repro.nvd.models import CveEntry, Reference

__all__ = ["entries_from_feed", "entries_to_feed", "load_feed", "save_feed"]

_DATE_FORMAT = "%Y-%m-%dT%H:%MZ"


def _format_date(value: datetime.date) -> str:
    return datetime.datetime(value.year, value.month, value.day).strftime(_DATE_FORMAT)


def _parse_date(text: str) -> datetime.date:
    return datetime.datetime.strptime(text, _DATE_FORMAT).date()


class _Memo(dict):
    """A pure ``function`` memoized for one feed load or save.

    A feed's values repeat: the 8,040-CVE benchmark snapshot carries 143
    distinct v2 vectors, and three of four dates repeat.  The memo dies
    with the call on purpose.  A process-wide cache would keep a few
    thousand objects allocated among the call's transient JSON document
    alive, and they pin that document's memory: three discarded loads of
    the snapshot then leave ~55 MB more resident than without a cache.
    """

    __slots__ = ("function",)

    def __init__(self, function: Callable[[Any], Any]) -> None:
        super().__init__()
        self.function = function

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.function(key)
        return value


class _Codec:
    """The memos one :func:`entries_to_feed` or :func:`entries_from_feed`
    call shares across its items."""

    def __init__(self) -> None:
        self.format_date = _Memo(_format_date)
        self.parse_date = _Memo(_parse_date)
        self.score_v2 = _Memo(score_v2)
        self.score_v3 = _Memo(score_v3)
        self.parse_v2 = _Memo(parse_v2_vector)
        self.parse_v3 = _Memo(parse_v3_vector)


def _entry_to_item(entry: CveEntry, codec: _Codec) -> dict[str, Any]:
    item: dict[str, Any] = {
        "cve": {
            "data_type": "CVE",
            "data_format": "MITRE",
            "data_version": "4.0",
            "CVE_data_meta": {"ID": entry.cve_id, "ASSIGNER": "cve@mitre.org"},
            "problemtype": {
                "problemtype_data": [
                    {
                        "description": [
                            {"lang": "en", "value": cwe_id}
                            for cwe_id in entry.cwe_ids
                        ]
                    }
                ]
            },
            "references": {
                "reference_data": [
                    {"url": ref.url, "tags": list(ref.tags)}
                    for ref in entry.references
                ]
            },
            "description": {
                "description_data": [
                    {"lang": "en", "value": text} for text in entry.descriptions
                ]
            },
        },
        "configurations": {
            "CVE_data_version": "4.0",
            "nodes": [
                {
                    "operator": "OR",
                    "cpe_match": [
                        {
                            "vulnerable": True,
                            "cpe23Uri": bind_to_formatted_string(cpe),
                        }
                        for cpe in entry.cpes
                    ],
                }
            ]
            if entry.cpes
            else [],
        },
        "impact": {},
        "publishedDate": codec.format_date[entry.published],
    }
    if entry.modified is not None:
        item["lastModifiedDate"] = codec.format_date[entry.modified]
    if entry.cvss_v2 is not None:
        scores = codec.score_v2[entry.cvss_v2]
        item["impact"]["baseMetricV2"] = {
            "cvssV2": {
                "version": "2.0",
                "vectorString": v2_vector_string(entry.cvss_v2),
                "baseScore": scores.base,
            },
            "severity": severity_v2(scores.base).value,
            "impactScore": scores.impact,
            "exploitabilityScore": scores.exploitability,
        }
    if entry.cvss_v3 is not None:
        scores = codec.score_v3[entry.cvss_v3]
        item["impact"]["baseMetricV3"] = {
            "cvssV3": {
                "version": "3.1",
                "vectorString": v3_vector_string(entry.cvss_v3),
                "baseScore": scores.base,
                "baseSeverity": severity_v3(scores.base).value,
            },
            "impactScore": scores.impact,
            "exploitabilityScore": scores.exploitability,
        }
    return item


def _lenient_metric(
    impact: dict[str, Any], block_key: str, metric_key: str, parser: _Memo
):
    """Parse one ``impact`` metric, degrading malformed CVSS to absent.

    Real feed exports (and the adversarial generator) contain items
    whose ``vectorString`` is truncated, garbled, or not a string at
    all; a bad severity vector must cost that one field, not abort the
    whole snapshot parse.  Dropped vectors are counted under the
    ``feed.malformed_cvss`` perf counter.
    """
    if block_key not in impact:
        return None
    try:
        return parser[impact[block_key][metric_key]["vectorString"]]
    except (AttributeError, KeyError, TypeError, ValueError):
        perf.add_counter("feed.malformed_cvss", 1)
        return None


def _item_to_entry(item: dict[str, Any], codec: _Codec) -> CveEntry:
    cve = item["cve"]
    cve_id = cve["CVE_data_meta"]["ID"]
    descriptions = tuple(
        block["value"] for block in cve["description"]["description_data"]
    )
    references = tuple(
        Reference(url=block["url"], tags=tuple(block.get("tags", ())))
        for block in cve.get("references", {}).get("reference_data", ())
    )
    cwe_ids: list[str] = []
    for ptype in cve.get("problemtype", {}).get("problemtype_data", ()):
        for block in ptype.get("description", ()):
            value = block.get("value")
            if value:
                cwe_ids.append(value)
    cpes = []
    for node in item.get("configurations", {}).get("nodes", ()):
        for match in node.get("cpe_match", ()):
            uri = match.get("cpe23Uri") or match.get("cpe22Uri")
            if uri:
                cpes.append(parse_cpe(uri))
    impact = item.get("impact", {})
    cvss_v2 = _lenient_metric(impact, "baseMetricV2", "cvssV2", codec.parse_v2)
    cvss_v3 = _lenient_metric(impact, "baseMetricV3", "cvssV3", codec.parse_v3)
    modified = None
    if "lastModifiedDate" in item:
        modified = codec.parse_date[item["lastModifiedDate"]]
    return CveEntry(
        cve_id=cve_id,
        published=codec.parse_date[item["publishedDate"]],
        descriptions=descriptions,
        references=references,
        cwe_ids=tuple(cwe_ids),
        cvss_v2=cvss_v2,
        cvss_v3=cvss_v3,
        cpes=tuple(cpes),
        modified=modified,
    )


def entries_to_feed(entries: list[CveEntry]) -> dict[str, Any]:
    """Serialise entries into an NVD JSON feed document."""
    codec = _Codec()
    return {
        "CVE_data_type": "CVE",
        "CVE_data_format": "MITRE",
        "CVE_data_version": "4.0",
        "CVE_data_numberOfCVEs": str(len(entries)),
        "CVE_Items": [_entry_to_item(entry, codec) for entry in entries],
    }


def entries_from_feed(feed: dict[str, Any]) -> list[CveEntry]:
    """Parse an NVD JSON feed document into entries."""
    if feed.get("CVE_data_type") != "CVE":
        raise ValueError("not an NVD JSON feed (CVE_data_type != 'CVE')")
    codec = _Codec()
    return [_item_to_entry(item, codec) for item in feed.get("CVE_Items", ())]


def save_feed(entries: list[CveEntry], path: str | pathlib.Path) -> None:
    """Write entries as a feed file; ``.gz`` paths are gzip-compressed."""
    path = pathlib.Path(path)
    document = json.dumps(entries_to_feed(entries), indent=None)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(document)
    else:
        path.write_text(document, encoding="utf-8")


def load_feed(path: str | pathlib.Path) -> list[CveEntry]:
    """Read a feed file written by :func:`save_feed` (or NVD itself)."""
    path = pathlib.Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            feed = json.load(handle)
    else:
        feed = json.loads(path.read_text(encoding="utf-8"))
    return entries_from_feed(feed)
