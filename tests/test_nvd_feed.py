"""NVD JSON feed serialisation round-trips."""

import datetime
import gc
import gzip
import sys

import pytest

from repro.cpe import CpeName
from repro.cvss import CvssV2Metrics, CvssV3Metrics
from repro.nvd import (
    CveEntry,
    Reference,
    entries_from_feed,
    entries_to_feed,
    load_feed,
    save_feed,
)
from repro.nvd import feed


@pytest.fixture()
def rich_entry():
    return CveEntry(
        cve_id="CVE-2018-0101",
        published=datetime.date(2018, 1, 29),
        descriptions=("A vulnerability in the XML parser.", "Evaluator: CWE-611."),
        references=(
            Reference("https://tools.cisco.com/security/center/advisory.x", ("Vendor Advisory",)),
            Reference("https://www.securityfocus.com/bid/102845"),
        ),
        cwe_ids=("CWE-611", "NVD-CWE-Other"),
        cvss_v2=CvssV2Metrics("N", "L", "N", "C", "C", "C"),
        cvss_v3=CvssV3Metrics("N", "L", "N", "N", "U", "H", "H", "H"),
        cpes=(CpeName("a", "cisco", "asa", version="9.1"),),
        modified=datetime.date(2018, 2, 2),
    )


class TestRoundTrip:
    def test_single_entry_round_trip(self, rich_entry):
        feed = entries_to_feed([rich_entry])
        assert entries_from_feed(feed) == [rich_entry]

    def test_feed_metadata(self, rich_entry):
        feed = entries_to_feed([rich_entry])
        assert feed["CVE_data_type"] == "CVE"
        assert feed["CVE_data_numberOfCVEs"] == "1"

    def test_minimal_entry_round_trip(self):
        entry = CveEntry(
            cve_id="CVE-1999-0001",
            published=datetime.date(1999, 1, 1),
            descriptions=("minimal",),
        )
        assert entries_from_feed(entries_to_feed([entry])) == [entry]

    def test_scores_serialised(self, rich_entry):
        item = entries_to_feed([rich_entry])["CVE_Items"][0]
        assert item["impact"]["baseMetricV2"]["cvssV2"]["baseScore"] == 10.0
        assert item["impact"]["baseMetricV3"]["cvssV3"]["baseScore"] == 9.8
        assert item["impact"]["baseMetricV3"]["cvssV3"]["baseSeverity"] == "CRITICAL"

    def test_cpe_uri_serialised(self, rich_entry):
        item = entries_to_feed([rich_entry])["CVE_Items"][0]
        uri = item["configurations"]["nodes"][0]["cpe_match"][0]["cpe23Uri"]
        assert uri == "cpe:2.3:a:cisco:asa:9.1:*:*:*:*:*:*:*"

    def test_rejects_non_feed(self):
        with pytest.raises(ValueError, match="not an NVD"):
            entries_from_feed({"something": "else"})


class TestFiles:
    def test_save_and_load_plain(self, rich_entry, tmp_path):
        path = tmp_path / "nvdcve-1.0-2018.json"
        save_feed([rich_entry], path)
        assert load_feed(path) == [rich_entry]

    def test_save_and_load_gzip(self, rich_entry, tmp_path):
        path = tmp_path / "nvdcve-1.0-2018.json.gz"
        save_feed([rich_entry], path)
        assert load_feed(path) == [rich_entry]

    def test_generated_snapshot_round_trips(self, snapshot, tmp_path):
        entries = snapshot.entries[:100]
        path = tmp_path / "subset.json"
        save_feed(entries, path)
        assert load_feed(path) == entries


class TestCodecMemos:
    """One load or save shares per-call memos of its dates, vectors and
    scores; sharing must not change a value, and nothing may outlive
    the call."""

    def test_shared_memos_equal_a_fresh_codec_per_item(self, snapshot):
        entries = snapshot.entries
        document = entries_to_feed(entries)
        assert document["CVE_Items"] == [
            feed._entry_to_item(entry, feed._Codec()) for entry in entries
        ]
        parsed = entries_from_feed(document)
        assert parsed == [
            feed._item_to_entry(item, feed._Codec()) for item in document["CVE_Items"]
        ]
        assert parsed == entries

    def test_one_load_shares_equal_vectors_and_dates(self, snapshot):
        parsed = entries_from_feed(entries_to_feed(snapshot.entries))
        vectors = [entry.cvss_v2 for entry in parsed if entry.cvss_v2 is not None]
        dates = [entry.published for entry in parsed]
        assert len({id(v) for v in vectors}) == len(set(vectors)) < len(vectors)
        assert len({id(d) for d in dates}) == len(set(dates)) < len(dates)

    def test_no_memo_outlives_a_load_or_a_save(self, snapshot, tmp_path):
        small, full = tmp_path / "small.json.gz", tmp_path / "full.json.gz"
        save_feed(snapshot.entries[:5], small)
        save_feed(load_feed(small), tmp_path / "small-again.json")  # warm-up
        save_feed(snapshot.entries, full)
        gc.collect()
        before = sys.getallocatedblocks()
        save_feed(load_feed(full), tmp_path / "full-again.json")
        gc.collect()
        # A process-wide memo would keep thousands of keys and values.
        assert sys.getallocatedblocks() - before < 100

    def test_a_malformed_vector_fails_every_time_it_appears(self, rich_entry):
        item = entries_to_feed([rich_entry])["CVE_Items"][0]
        item["impact"]["baseMetricV2"]["cvssV2"]["vectorString"] = "AV:N/AC:L"
        good = entries_to_feed([rich_entry])["CVE_Items"][0]
        document = {"CVE_data_type": "CVE", "CVE_Items": [item, item, good]}
        first, second, third = entries_from_feed(document)
        assert first.cvss_v2 is None and second.cvss_v2 is None
        assert third.cvss_v2 == rich_entry.cvss_v2

    def test_unhashable_vector_degrades_to_absent(self, rich_entry):
        item = entries_to_feed([rich_entry])["CVE_Items"][0]
        item["impact"]["baseMetricV2"]["cvssV2"]["vectorString"] = ["AV:N"]
        item["impact"]["baseMetricV3"]["cvssV3"]["vectorString"] = {"AV": "N"}
        entry = entries_from_feed({"CVE_data_type": "CVE", "CVE_Items": [item]})[0]
        assert entry.cvss_v2 is None and entry.cvss_v3 is None

    def test_save_feed_bytes_survive_a_round_trip(self, snapshot, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_feed(snapshot.entries, first)
        save_feed(load_feed(first), second)
        assert first.read_bytes() == second.read_bytes()
        gz = tmp_path / "third.json.gz"
        save_feed(load_feed(second), gz)
        with gzip.open(gz, "rb") as handle:
            assert handle.read() == first.read_bytes()
