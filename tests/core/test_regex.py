"""RegexRuleSet tests, checked against the reference Aho-Corasick automaton."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify.regex import RegexPattern, RegexRuleSet
from tests.core.aho_corasick import AhoCorasick, AutomatonRuleSet


class TestAhoCorasick:
    def test_single_pattern(self):
        automaton = AhoCorasick([b"abc"])
        assert automaton.find_first(b"xxabcxx") == 0
        assert automaton.find_first(b"xxabxx") is None

    def test_overlapping_patterns(self):
        automaton = AhoCorasick([b"he", b"she", b"his", b"hers"])
        matches = automaton.find_all(b"ushers")
        found = {pattern_id for pattern_id, _end in matches}
        assert found == {0, 1, 3}  # "she", "he", "hers"

    def test_find_first_returns_lowest_id(self):
        automaton = AhoCorasick([b"zzz", b"aa"])
        # Pattern 1 appears first positionally, but keep scanning: no
        # pattern 0 present -> 1.
        assert automaton.find_first(b"xaax") == 1
        # Pattern 0 later in the text still wins by id.
        assert automaton.find_first(b"aa...zzz") == 0

    def test_pattern_inside_pattern(self):
        automaton = AhoCorasick([b"abcd", b"bc"])
        found = {pattern_id for pattern_id, _ in automaton.find_all(b"abcd")}
        assert found == {0, 1}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b""])

    def test_contains_any(self):
        automaton = AhoCorasick([b"evil"])
        assert automaton.contains_any(b"such evil bytes")
        assert not automaton.contains_any(b"innocuous")

    def test_repeated_failure_transitions(self):
        automaton = AhoCorasick([b"aaa"])
        matches = automaton.find_all(b"aaaaa")
        assert [end for _id, end in matches] == [3, 4, 5]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.binary(min_size=1, max_size=5), min_size=1, max_size=6),
        st.binary(max_size=60),
    )
    def test_matches_reference_implementation(self, patterns, haystack):
        """find_all agrees with a naive find-all over every pattern."""
        automaton = AhoCorasick(patterns)
        got = {(pattern_id, end) for pattern_id, end in automaton.find_all(haystack)}
        expected = set()
        for pattern_id, pattern in enumerate(patterns):
            start = 0
            while True:
                index = haystack.find(pattern, start)
                if index < 0:
                    break
                expected.add((pattern_id, index + len(pattern)))
                start = index + 1
        assert got == expected


class TestRegexRuleSet:
    def _ruleset(self, *patterns, default=0):
        return RegexRuleSet([RegexPattern(**p) for p in patterns], default_port=default)

    def test_literal_first_match(self):
        ruleset = self._ruleset(
            {"pattern": "attack", "port": 1},
            {"pattern": "evil", "port": 2},
        )
        assert ruleset.classify(b"the attack begins") == 1
        assert ruleset.classify(b"pure evil") == 2
        assert ruleset.classify(b"benign") == 0

    def test_priority_when_both_match(self):
        ruleset = self._ruleset(
            {"pattern": "alpha", "port": 1},
            {"pattern": "beta", "port": 2},
        )
        assert ruleset.classify(b"beta then alpha") == 1  # lower index wins

    def test_case_insensitive_literal(self):
        ruleset = self._ruleset(
            {"pattern": "Attack", "case_sensitive": False, "port": 1},
        )
        assert ruleset.classify(b"ATTACK!") == 1
        assert ruleset.classify(b"attack!") == 1

    def test_case_sensitive_literal(self):
        ruleset = self._ruleset({"pattern": "Attack", "port": 1})
        assert ruleset.classify(b"Attack") == 1
        assert ruleset.classify(b"attack") == 0

    def test_regex_pattern(self):
        ruleset = self._ruleset(
            {"pattern": r"union\s+select", "is_regex": True,
             "case_sensitive": False, "port": 3},
        )
        assert ruleset.classify(b"UNION   SELECT *") == 3
        assert ruleset.classify(b"union_select") == 0

    def test_mixed_literal_and_regex_priority(self):
        ruleset = self._ruleset(
            {"pattern": r"a+b", "is_regex": True, "port": 1},
            {"pattern": "aab", "port": 2},
        )
        assert ruleset.classify(b"xxaab") == 1  # regex has lower index

    def test_match_all(self):
        ruleset = self._ruleset(
            {"pattern": "one", "port": 1},
            {"pattern": "TWO", "case_sensitive": False, "port": 2},
            {"pattern": r"thr..", "is_regex": True, "port": 3},
        )
        assert ruleset.match_all(b"one two three") == {0, 1, 2}
        assert ruleset.match_all(b"nothing here... ") == set()

    def test_config_roundtrip(self):
        ruleset = self._ruleset(
            {"pattern": "x", "port": 1},
            {"pattern": "y.z", "is_regex": True, "case_sensitive": False, "port": 2},
            default=5,
        )
        again = RegexRuleSet.from_config(ruleset.to_config())
        assert again.classify(b"x") == 1
        assert again.classify(b"yaz") == 2
        assert again.classify(b"none") == 5

    @pytest.mark.parametrize("case_sensitive", [True, False])
    def test_empty_literal_rejected(self, case_sensitive):
        with pytest.raises(ValueError):
            self._ruleset(
                {"pattern": "ok", "port": 1},
                {"pattern": "", "case_sensitive": case_sensitive, "port": 2},
            )
        # An empty regex is a catch-all, not an error.
        assert self._ruleset({"pattern": "", "is_regex": True}).classify(b"") == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcXY", min_size=1, max_size=4), min_size=1, max_size=5
        ),
        st.text(alphabet="abcXY ", max_size=40),
    )
    def test_first_match_reference(self, patterns, haystack):
        """Literal classification agrees with a naive loop."""
        specs = [RegexPattern(pattern=p, port=i + 1) for i, p in enumerate(patterns)]
        ruleset = RegexRuleSet(specs)
        payload = haystack.encode("latin-1")
        expected = 0
        for index, pattern in enumerate(patterns):
            if pattern.encode("latin-1") in payload:
                expected = index + 1
                break
        assert ruleset.classify(payload) == expected


# Letters in both cases plus non-ASCII Latin-1 bytes, which bytes.lower()
# leaves alone: a small alphabet makes overlaps and shared prefixes common.
_ALPHABET = "abAB\xe4\xc4\xff"
_REGEXES = ["", "a+b", "[aA]b?", "\xe4.", "^a", "b$", "(?:ab|ba)", "\xc4+"]

_literal = st.builds(
    RegexPattern,
    pattern=st.text(alphabet=_ALPHABET, min_size=1, max_size=4),
    case_sensitive=st.booleans(),
)
_regex = st.builds(
    RegexPattern,
    pattern=st.sampled_from(_REGEXES),
    is_regex=st.just(True),
    case_sensitive=st.booleans(),
)


@st.composite
def _ruleset_and_payload(draw):
    specs = draw(st.lists(st.one_of(_literal, _literal, _regex), min_size=1, max_size=8))
    edges = [spec.pattern for spec in specs if not spec.is_regex] + [""]
    head = draw(st.sampled_from(edges))
    tail = draw(st.sampled_from(edges))
    body = draw(st.text(alphabet=_ALPHABET + " ", max_size=24))
    return specs, (head + body + tail).encode("latin-1")


class TestScanMatchesAutomaton:
    @settings(max_examples=400, deadline=None)
    @given(_ruleset_and_payload())
    def test_first_match_and_match_all(self, drawn):
        """The ordered scan answers exactly as the automaton-backed set.

        Payloads may be empty and start or end with a drawn literal.
        """
        specs, payload = drawn
        production = RegexRuleSet(specs)
        reference = AutomatonRuleSet(specs)
        assert production.first_match_index(payload) == reference.first_match_index(payload)
        assert production.match_all(payload) == reference.match_all(payload)
