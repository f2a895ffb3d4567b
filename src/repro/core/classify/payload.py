"""HeaderPayloadClassifier: combined header + payload rules.

This is the block IPS-style NFs use (paper Table 1): each rule pairs a
header match (the Snort rule header: proto/addresses/ports) with an
optional payload pattern (content/pcre options). A rule matches when both
parts match; classification is first-match by rule order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.classify.regex import RegexPattern, RegexRuleSet
from repro.core.classify.rules import HeaderRule
from repro.net.packet import Packet


@dataclass(frozen=True)
class HeaderPayloadRule:
    """A combined rule: header constraints plus an optional payload pattern."""

    header: HeaderRule
    pattern: RegexPattern | None = None

    @property
    def port(self) -> int:
        return self.header.port

    def to_dict(self) -> dict[str, Any]:
        data = self.header.to_dict()
        if self.pattern is not None:
            data["payload"] = self.pattern.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HeaderPayloadRule":
        payload = data.get("payload")
        header = HeaderRule.from_dict({k: v for k, v in data.items() if k != "payload"})
        pattern = RegexPattern.from_dict(payload) if payload else None
        return cls(header=header, pattern=pattern)


class HeaderPayloadRuleSet:
    """Ordered combined rules with one shared payload-pattern set.

    Matching evaluates payload patterns once (``match_all``) and then
    walks rules in priority order, so the per-packet cost is
    one DPI scan plus header checks — the cost structure the paper's
    cost accounting assumes for IPS-style blocks.
    """

    def __init__(self, rules: list[HeaderPayloadRule], default_port: int = 0) -> None:
        self.rules = list(rules)
        self.default_port = default_port
        patterns: list[RegexPattern] = []
        self._pattern_index_of_rule: list[int | None] = []
        for rule in self.rules:
            if rule.pattern is None:
                self._pattern_index_of_rule.append(None)
            else:
                self._pattern_index_of_rule.append(len(patterns))
                patterns.append(rule.pattern)
        self._patterns = RegexRuleSet(patterns) if patterns else None

    def __len__(self) -> int:
        return len(self.rules)

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "HeaderPayloadRuleSet":
        rules = [HeaderPayloadRule.from_dict(item) for item in config.get("rules", ())]
        return cls(rules, default_port=int(config.get("default_port", 0)))

    def to_config(self) -> dict[str, Any]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "default_port": self.default_port,
        }

    def classify(self, packet: Packet) -> int:
        payload = packet.payload
        matched_patterns: set[int] | None = None
        for rule_index, rule in enumerate(self.rules):
            if not rule.header.matches(packet):
                continue
            pattern_index = self._pattern_index_of_rule[rule_index]
            if pattern_index is None:
                return rule.port
            if matched_patterns is None:
                matched_patterns = (
                    self._patterns.match_all(payload)
                    if self._patterns is not None and payload
                    else set()
                )
            if pattern_index in matched_patterns:
                return rule.port
        return self.default_port
