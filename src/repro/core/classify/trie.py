"""Software header classifier: one bitset query over a :class:`RuleIndex`.

The software implementation the paper contrasts with a TCAM (§2.1),
advertised as ``"trie"``. A lookup asks the rule set's index which rules
match the packet and takes the lowest set bit: first-match semantics
identical to :class:`LinearMatcher`, at a different cost.
"""

from __future__ import annotations

from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.index import RuleIndex
from repro.net.packet import Packet


class TrieMatcher:
    """First match as the lowest rule in :meth:`RuleIndex.matching`."""

    implementation = "trie"

    def __init__(self, ruleset: HeaderRuleSet) -> None:
        self.ruleset = ruleset
        self._index = RuleIndex(ruleset.rules)
        self._ports = [rule.port for rule in ruleset.rules]

    def match(self, packet: Packet) -> int:
        bits = self._index.matching(packet)
        if not bits:
            return self.ruleset.default_port
        return self._ports[(bits & -bits).bit_length() - 1]
