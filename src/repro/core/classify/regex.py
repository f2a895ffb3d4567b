"""Payload pattern matching for RegexClassifier blocks.

Snort-style rule sets are dominated by literal ``content`` patterns with
the occasional true regular expression (``pcre``). We therefore match the
way production IPS engines do:

* all literal patterns are compiled into a single :class:`AhoCorasick`
  automaton (built from scratch: goto/failure/output functions) and
  matched in one pass over the payload;
* true regexes are compiled with :mod:`re` and evaluated individually.

The classifier reports the *highest-priority* (lowest index) matching
pattern, which gives deterministic first-match semantics like the header
classifiers.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class RegexPattern:
    """A single payload pattern: literal bytes or a regular expression."""

    pattern: str
    port: int = 1
    is_regex: bool = False
    case_sensitive: bool = True

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"pattern": self.pattern, "port": self.port}
        if self.is_regex:
            data["is_regex"] = True
        if not self.case_sensitive:
            data["case_sensitive"] = False
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RegexPattern":
        return cls(
            pattern=data["pattern"],
            port=int(data.get("port", 1)),
            is_regex=bool(data.get("is_regex", False)),
            case_sensitive=bool(data.get("case_sensitive", True)),
        )


class AhoCorasick:
    """Multi-pattern literal matcher (Aho-Corasick automaton).

    Patterns are byte strings; matching runs in O(payload length +
    matches). ``find_first`` returns the lowest pattern id whose pattern
    occurs in the haystack, which is what first-match classification
    needs; ``find_all`` returns every (pattern id, end offset) occurrence.
    """

    def __init__(self, patterns: Iterable[bytes]) -> None:
        self._patterns = [bytes(pattern) for pattern in patterns]
        if any(not pattern for pattern in self._patterns):
            raise ValueError("empty pattern not allowed")
        # goto function: list of dicts byte -> state
        self._goto: list[dict[int, int]] = [{}]
        # output: pattern ids terminating at each state
        self._output: list[list[int]] = [[]]
        self._fail: list[int] = [0]
        for pattern_id, pattern in enumerate(self._patterns):
            self._add(pattern_id, pattern)
        self._build_failure_links()

    def _add(self, pattern_id: int, pattern: bytes) -> None:
        state = 0
        for byte in pattern:
            nxt = self._goto[state].get(byte)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._output.append([])
                self._fail.append(0)
                self._goto[state][byte] = nxt
            state = nxt
        self._output[state].append(pattern_id)

    def _build_failure_links(self) -> None:
        queue: deque[int] = deque()
        for state in self._goto[0].values():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            state = queue.popleft()
            for byte, nxt in self._goto[state].items():
                queue.append(nxt)
                fallback = self._fail[state]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt] = self._output[nxt] + self._output[self._fail[nxt]]

    def _step(self, state: int, byte: int) -> int:
        while state and byte not in self._goto[state]:
            state = self._fail[state]
        return self._goto[state].get(byte, 0)

    def find_all(self, haystack: bytes) -> list[tuple[int, int]]:
        """All matches as (pattern id, end offset) pairs."""
        matches: list[tuple[int, int]] = []
        state = 0
        for offset, byte in enumerate(haystack):
            state = self._step(state, byte)
            for pattern_id in self._output[state]:
                matches.append((pattern_id, offset + 1))
        return matches

    def find_first(self, haystack: bytes) -> int | None:
        """Lowest pattern id occurring in ``haystack``, or None.

        Scans the whole haystack (a later position may hold a
        lower-id pattern), tracking the minimum id seen.
        """
        best: int | None = None
        state = 0
        for byte in haystack:
            state = self._step(state, byte)
            for pattern_id in self._output[state]:
                if best is None or pattern_id < best:
                    if pattern_id == 0:
                        return 0
                    best = pattern_id
        return best

    def contains_any(self, haystack: bytes) -> bool:
        state = 0
        for byte in haystack:
            state = self._step(state, byte)
            if self._output[state]:
                return True
        return False


class RegexRuleSet:
    """A compiled RegexClassifier configuration.

    Splits patterns into a literal set (one Aho-Corasick pass) and a
    regex list (individual :mod:`re` evaluation), then reports the
    highest-priority match across both.
    """

    def __init__(self, patterns: list[RegexPattern], default_port: int = 0) -> None:
        self.patterns = list(patterns)
        self.default_port = default_port
        cs_literals: list[bytes] = []
        self._cs_ids: list[int] = []
        ci_literals: list[bytes] = []
        self._ci_ids: list[int] = []
        self._regexes: list[tuple[int, re.Pattern[bytes]]] = []
        for index, spec in enumerate(self.patterns):
            if spec.is_regex:
                flags = 0 if spec.case_sensitive else re.IGNORECASE
                self._regexes.append(
                    (index, re.compile(spec.pattern.encode("latin-1"), flags))
                )
            elif spec.case_sensitive:
                cs_literals.append(spec.pattern.encode("latin-1"))
                self._cs_ids.append(index)
            else:
                ci_literals.append(spec.pattern.encode("latin-1").lower())
                self._ci_ids.append(index)
        self._cs_automaton = AhoCorasick(cs_literals) if cs_literals else None
        self._ci_automaton = AhoCorasick(ci_literals) if ci_literals else None

    def __len__(self) -> int:
        return len(self.patterns)

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "RegexRuleSet":
        patterns = [RegexPattern.from_dict(item) for item in config.get("patterns", ())]
        return cls(patterns, default_port=int(config.get("default_port", 0)))

    def to_config(self) -> dict[str, Any]:
        return {
            "patterns": [spec.to_dict() for spec in self.patterns],
            "default_port": self.default_port,
        }

    def first_match_index(self, payload: bytes) -> int | None:
        """Index of the highest-priority matching pattern, or None.

        The per-automaton id lists are built in pattern-index order, so
        the lowest automaton id maps to the lowest original index within
        each automaton; the overall winner is the minimum across sources.
        """
        best: int | None = None
        if self._cs_automaton is not None:
            hit = self._cs_automaton.find_first(payload)
            if hit is not None:
                best = self._cs_ids[hit]
        if self._ci_automaton is not None:
            hit = self._ci_automaton.find_first(payload.lower())
            if hit is not None:
                index = self._ci_ids[hit]
                if best is None or index < best:
                    best = index
        for index, compiled in self._regexes:
            if best is not None and index > best:
                continue
            if compiled.search(payload):
                if best is None or index < best:
                    best = index
        return best

    def match_all(self, payload: bytes) -> set[int]:
        """Indexes of *every* matching pattern (single multi-pattern pass)."""
        matched: set[int] = set()
        if self._cs_automaton is not None:
            for hit, _offset in self._cs_automaton.find_all(payload):
                matched.add(self._cs_ids[hit])
        if self._ci_automaton is not None:
            for hit, _offset in self._ci_automaton.find_all(payload.lower()):
                matched.add(self._ci_ids[hit])
        for index, compiled in self._regexes:
            if compiled.search(payload):
                matched.add(index)
        return matched

    def classify(self, payload: bytes) -> int:
        """Output port for ``payload`` (default port when nothing matches)."""
        index = self.first_match_index(payload)
        if index is None:
            return self.default_port
        return self.patterns[index].port

    def matching_pattern(self, payload: bytes) -> RegexPattern | None:
        index = self.first_match_index(payload)
        return self.patterns[index] if index is not None else None
