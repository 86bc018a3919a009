"""CPE WFN model and bindings."""

import pytest

from repro.cpe import (
    ANY,
    NA,
    CpeName,
    bind_to_formatted_string,
    bind_to_uri,
    parse_cpe,
    parse_formatted_string,
    parse_uri,
)
from repro.cpe import wfn


class TestWfn:
    def test_minimal_name(self):
        name = CpeName("a", "microsoft", "windows")
        assert name.vendor == "microsoft"
        assert name.version is ANY

    def test_rejects_bad_part(self):
        with pytest.raises(ValueError, match="part"):
            CpeName("x", "microsoft", "windows")

    def test_rejects_uppercase_attribute(self):
        with pytest.raises(ValueError, match="lowercase"):
            CpeName("a", "Microsoft", "windows")

    def test_rejects_empty_attribute(self):
        with pytest.raises(ValueError, match="empty"):
            CpeName("a", "", "windows")

    def test_with_names_replaces_vendor(self):
        name = CpeName("a", "microsft", "windows", version="8.1")
        fixed = name.with_names(vendor="microsoft")
        assert fixed.vendor == "microsoft"
        assert fixed.product == "windows"
        assert fixed.version == "8.1"

    def test_with_names_replaces_product_only(self):
        name = CpeName("a", "microsoft", "ie")
        fixed = name.with_names(product="internet_explorer")
        assert fixed.vendor == "microsoft"
        assert fixed.product == "internet_explorer"

    def test_attributes_ordering(self):
        keys = list(CpeName("a", "v", "p").attributes())
        assert keys[:4] == ["part", "vendor", "product", "version"]


class TestFormattedString:
    def test_bind_basic(self):
        name = CpeName("a", "microsoft", "windows", version="8.1")
        assert (
            bind_to_formatted_string(name)
            == "cpe:2.3:a:microsoft:windows:8.1:*:*:*:*:*:*:*"
        )

    def test_bind_escapes_specials(self):
        name = CpeName("a", "avast!", "antivirus")
        assert "avast\\!" in bind_to_formatted_string(name)

    def test_parse_basic(self):
        name = parse_formatted_string("cpe:2.3:a:microsoft:windows:8.1:*:*:*:*:*:*:*")
        assert name.vendor == "microsoft"
        assert name.version == "8.1"
        assert name.update is ANY

    def test_parse_na_value(self):
        name = parse_formatted_string("cpe:2.3:a:vendor:product:-:*:*:*:*:*:*:*")
        assert name.version is NA

    def test_round_trip_with_escapes(self):
        original = CpeName("a", "nginx.inc", "node.js", version="1.2.3")
        assert parse_formatted_string(bind_to_formatted_string(original)) == original

    def test_parse_rejects_wrong_component_count(self):
        with pytest.raises(ValueError, match="11 components"):
            parse_formatted_string("cpe:2.3:a:vendor:product")

    def test_parse_rejects_wrong_prefix(self):
        with pytest.raises(ValueError, match="not a CPE 2.3"):
            parse_formatted_string("cpe:/a:vendor:product")

    def test_escaped_colon_does_not_split(self):
        name = CpeName("a", "vendor", "one:two")
        bound = bind_to_formatted_string(name)
        assert parse_formatted_string(bound).product == "one:two"


class TestUri:
    def test_bind_basic(self):
        name = CpeName("a", "microsoft", "windows", version="8.1")
        assert bind_to_uri(name) == "cpe:/a:microsoft:windows:8.1"

    def test_bind_percent_encodes(self):
        name = CpeName("a", "joomla!", "joomla")
        assert bind_to_uri(name) == "cpe:/a:joomla%21:joomla"

    def test_parse_basic(self):
        name = parse_uri("cpe:/a:microsoft:windows:8.1")
        assert name.vendor == "microsoft"
        assert name.version == "8.1"

    def test_parse_percent_decodes(self):
        assert parse_uri("cpe:/a:joomla%21:joomla").vendor == "joomla!"

    def test_round_trip(self):
        original = CpeName("o", "linux", "linux_kernel", version="4.4")
        assert parse_uri(bind_to_uri(original)) == original

    def test_parse_rejects_bad_part(self):
        with pytest.raises(ValueError, match="part"):
            parse_uri("cpe:/z:vendor:product")

    def test_parse_rejects_too_many_components(self):
        with pytest.raises(ValueError, match="too many"):
            parse_uri("cpe:/a:v:p:1:2:3:4:5")


class TestParseDispatch:
    def test_dispatches_both_bindings(self):
        assert parse_cpe("cpe:/a:x:y").vendor == "x"
        assert parse_cpe("cpe:2.3:a:x:y:*:*:*:*:*:*:*:*").vendor == "x"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_cpe("not-a-cpe")


def _split_escaped(text):
    """The escape-aware split, character by character (the reference
    the no-backslash fast path must agree with)."""
    parts, current, escaped = [], [], False
    for char in text:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == ":":
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


# Plain values (fast paths) and values with backslashes, colons and
# other specials (escaped paths).
CODEC_VALUES = [
    "windows",
    "node.js",
    "linux_kernel",
    "8.1-rc2",
    "Mixed.Case",
    "avast!",
    "one:two",
    "back\\slash",
    "trailing\\",
    "c++",
    "x*y?z",
    "50%",
    "a b",
    "café",
    "::",
]


class TestCodecFastPaths:
    @pytest.mark.parametrize("value", CODEC_VALUES)
    def test_unbind_of_escaped_value_is_the_lowercased_value(self, value):
        escaped = wfn._escape_fs(value)
        assert wfn._unbind_fs_value(escaped) == value.lower()

    @pytest.mark.parametrize("value", CODEC_VALUES)
    def test_unbind_fast_path_agrees_with_unescape(self, value):
        for text in (value, wfn._escape_fs(value)):
            if text in ("*", "-"):
                continue
            assert wfn._unbind_fs_value(text) == wfn._unescape_fs(text).lower()

    def test_split_agrees_with_escape_aware_split(self):
        texts = [":".join(CODEC_VALUES)]  # raw colons, some backslashes
        texts += [":".join(wfn._escape_fs(v) for v in CODEC_VALUES)]
        texts += [
            ":".join(v for v in CODEC_VALUES if "\\" not in v),  # fast path
            "a:microsoft:windows:8.1:*:*:*:*:*:*:*",
            "",
            ":",
        ]
        for text in texts:
            assert wfn._split_fs(text) == _split_escaped(text), text

    @pytest.mark.parametrize("value", CODEC_VALUES)
    def test_bind_matches_attribute_order_binding(self, value):
        value = value.lower()
        name = CpeName("a", value, "product", version=value, other=NA)
        reference = "cpe:2.3:" + ":".join(
            wfn._bind_fs_value(v) if attr != "part" else v
            for attr, v in name.attributes().items()
        )
        assert bind_to_formatted_string(name) == reference
        assert parse_formatted_string(reference) == name

    def test_uppercase_input_still_lowercases_on_both_paths(self):
        plain = parse_formatted_string("cpe:2.3:a:Microsoft:Windows:*:*:*:*:*:*:*:*")
        escaped = parse_formatted_string("cpe:2.3:a:Avast\\!:Windows:*:*:*:*:*:*:*:*")
        assert (plain.vendor, plain.product) == ("microsoft", "windows")
        assert (escaped.vendor, escaped.product) == ("avast!", "windows")

    def test_escape_fast_path_matches_per_character_escaping(self, snapshot):
        values = {
            value
            for entry in snapshot.entries
            for cpe in entry.cpes
            for value in cpe.attributes().values()
            if isinstance(value, str)
        } | {value.lower() for value in CODEC_VALUES}
        for value in sorted(values):
            reference = "".join(
                char if char.isascii() and (char.isalnum() or char in "._-")
                else "\\" + char
                for char in value
            )
            assert wfn._escape_fs(value) == reference
            assert wfn._unescape_fs(reference) == value
