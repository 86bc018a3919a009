"""Property-based tests on core cleaning invariants."""

import datetime

from hypothesis import given, settings, strategies as st

from repro.core.products import _within_one_edit, edit_distance
from repro.core.vendors import _UnionFind, longest_common_substring
from repro.synth.names import abbreviate, tokenize_name

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-!. ", min_size=0, max_size=20
)
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)
#: short strings over a few ASCII and non-ASCII letters, so random pairs
#: often collide; includes the empty string.
small_unicode = st.text(alphabet="abé_ß\u4e2d\U0001f600", min_size=0, max_size=8)


@st.composite
def near_pairs(draw):
    """``(a, b)`` where ``b`` is ``a`` after zero, one or two random edits."""
    a = draw(small_unicode)
    b = a
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("insert", "delete", "substitute")))
        at = draw(st.integers(0, len(b)))
        char = draw(st.sampled_from("abé\u4e2d"))
        if kind == "insert":
            b = b[:at] + char + b[at:]
        elif b and at < len(b):
            b = b[:at] + (char if kind == "substitute" else "") + b[at + 1 :]
    return a, b


class TestLcsProperties:
    @given(names, names)
    def test_symmetric(self, a, b):
        assert longest_common_substring(a, b) == longest_common_substring(b, a)

    @given(names)
    def test_self_is_length(self, a):
        assert longest_common_substring(a, a) == len(a)

    @given(names, names)
    def test_bounded_by_shorter(self, a, b):
        assert longest_common_substring(a, b) <= min(len(a), len(b))

    @given(words, words)
    def test_concatenation_contains_parts(self, a, b):
        assert longest_common_substring(a, a + b) == len(a)


class TestEditDistanceProperties:
    @given(words, words)
    def test_symmetric_under_cap(self, a, b):
        assert edit_distance(a, b, cap=5) == edit_distance(b, a, cap=5)

    @given(words)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(words)
    def test_single_deletion_is_one(self, a):
        if len(a) >= 2:
            assert edit_distance(a, a[1:], cap=3) == 1

    @given(words, words)
    def test_never_exceeds_cap_plus_one(self, a, b):
        assert edit_distance(a, b, cap=2) <= 3


class TestWithinOneEditProperties:
    """The linear one-edit check agrees with the capped DP table."""

    @staticmethod
    def _agrees(a: str, b: str) -> None:
        assert _within_one_edit(a, b) == (edit_distance(a, b, cap=1) <= 1)
        assert _within_one_edit(b, a) == _within_one_edit(a, b)

    @given(near_pairs())
    def test_matches_edit_distance_on_near_pairs(self, pair):
        self._agrees(*pair)

    @given(small_unicode, small_unicode)
    def test_matches_edit_distance_on_random_pairs(self, a, b):
        self._agrees(a, b)

    @given(small_unicode)
    def test_equal_strings_are_within_one_edit(self, a):
        assert _within_one_edit(a, a)

    def test_edge_cases(self):
        for a, b in [("", ""), ("", "x"), ("", "xy"), ("ab", "ba"),
                     ("abc", "abd"), ("abc", "ac"), ("abc", "bca"),
                     ("\u4e2d", "\U0001f600"), ("naïve", "naive")]:
            self._agrees(a, b)


class TestTokenizeProperties:
    @given(names)
    def test_tokens_contain_no_separators(self, name):
        for token in tokenize_name(name):
            assert token
            assert all(c.isalnum() or c == "." for c in token)

    @given(names)
    def test_idempotent_on_joined_tokens(self, name):
        joined = "_".join(tokenize_name(name))
        assert tokenize_name(joined) == tokenize_name(name)

    @given(st.lists(words, min_size=2, max_size=4))
    def test_abbreviation_uses_first_letters(self, parts):
        name = "-".join(parts)
        assert abbreviate(name) == "".join(p[0] for p in parts)


class TestUnionFindProperties:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(words, words), max_size=30))
    def test_union_creates_equivalence(self, pairs):
        groups = _UnionFind()
        for a, b in pairs:
            groups.union(a, b)
        # transitive closure: anything unioned shares a root
        for a, b in pairs:
            assert groups.find(a) == groups.find(b)

    @given(st.lists(st.tuples(words, words), max_size=20))
    def test_find_idempotent(self, pairs):
        groups = _UnionFind()
        for a, b in pairs:
            groups.union(a, b)
        for a, _ in pairs:
            assert groups.find(groups.find(a)) == groups.find(a)


class TestEstimateProperty:
    @given(
        st.dates(datetime.date(2000, 1, 1), datetime.date(2018, 1, 1)),
        st.lists(
            st.dates(datetime.date(1999, 1, 1), datetime.date(2019, 1, 1)),
            max_size=5,
        ),
    )
    def test_estimate_is_min_and_never_later_than_published(
        self, published, scraped
    ):
        estimated = min([*scraped, published])
        assert estimated <= published
        lag = (published - estimated).days
        assert lag >= 0
