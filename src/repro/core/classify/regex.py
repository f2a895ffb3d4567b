"""Payload pattern matching for RegexClassifier blocks.

Snort-style rule sets are dominated by literal ``content`` patterns with
the occasional true regular expression (``pcre``). A RegexClassifier
reports the *highest-priority* (lowest index) matching pattern, which
gives deterministic first-match semantics like the header classifiers.

:class:`RegexRuleSet` compiles its patterns once into an ordered scan
and tests them one by one in index order, each test a single call into
C: ``needle in payload`` for a literal, the same against
``payload.lower()`` for a nocase literal, and the compiled ``search``
for a regex. The first hit is the answer, so a match stops the walk.

A multi-pattern automaton is pattern-count independent, but in Python
it pays an interpreted step per payload byte. The DPI engine ablation
(``benchmarks/test_ablation_dpi_split.py``) has the scan ahead up to 50
literals per group and the automaton ahead from 200; the IPS groups
built from 120 synthetic Snort web rules hold 11 to 42 patterns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator


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


#: Kinds of one scan entry: how its needle tests a payload.
_LITERAL, _NOCASE, _REGEX = 0, 1, 2


class RegexRuleSet:
    """A compiled RegexClassifier configuration.

    ``_scan`` holds one ``(index, kind, needle)`` entry per pattern in
    index order; ``_hits`` walks it for both matching methods.
    """

    def __init__(self, patterns: list[RegexPattern], default_port: int = 0) -> None:
        self.patterns = list(patterns)
        self.default_port = default_port
        self._scan: list[tuple[int, int, bytes | Callable[[bytes], Any]]] = []
        for index, spec in enumerate(self.patterns):
            encoded = spec.pattern.encode("latin-1")
            if spec.is_regex:
                flags = 0 if spec.case_sensitive else re.IGNORECASE
                self._scan.append((index, _REGEX, re.compile(encoded, flags).search))
            elif not encoded:
                # An empty literal would match every payload; a rule set
                # arriving from outside with one is malformed.
                raise ValueError(f"pattern {index}: empty literal not allowed")
            elif spec.case_sensitive:
                self._scan.append((index, _LITERAL, encoded))
            else:
                self._scan.append((index, _NOCASE, encoded.lower()))

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

    def _hits(self, payload: bytes) -> Iterator[int]:
        """Indexes of the patterns ``payload`` matches, in index order,
        each found only when the caller asks for the next one."""
        lowered = None
        for index, kind, needle in self._scan:
            if kind == _LITERAL:
                hit = needle in payload
            elif kind == _NOCASE:
                if lowered is None:
                    lowered = payload.lower()
                hit = needle in lowered
            else:
                hit = needle(payload)
            if hit:
                yield index

    def first_match_index(self, payload: bytes) -> int | None:
        """Index of the highest-priority matching pattern, or None."""
        return next(self._hits(payload), None)

    def match_all(self, payload: bytes) -> set[int]:
        """Indexes of *every* matching pattern."""
        return set(self._hits(payload))

    def classify(self, payload: bytes) -> int:
        """Output port for ``payload`` (default port when nothing matches)."""
        index = self.first_match_index(payload)
        if index is None:
            return self.default_port
        return self.patterns[index].port
