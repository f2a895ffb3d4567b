"""HeaderClassifier rule sets: first-match classification and pruning.

The paper's ``mergeWith`` (§2.2.1) "creates a cross-product of rules from
both classifiers, orders them according to their priority, removes
duplicate rules caused by the cross-product and empty rules caused by
priority considerations". The cross product lives in
:func:`repro.core.compress.merge_classifier_rulesets_on_branch`; the
removal steps are :meth:`HeaderRuleSet.prune_shadowed` and
:meth:`HeaderRuleSet.prune_default_tail`.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.classify.index import RuleIndex
from repro.core.classify.rules import HeaderRule
from repro.net.packet import Packet


class HeaderRuleSet:
    """An ordered (priority-descending) list of :class:`HeaderRule`.

    ``default_port`` is where packets matching no rule are emitted.
    """

    def __init__(self, rules: Sequence[HeaderRule], default_port: int = 0) -> None:
        self.rules = list(rules)
        self.default_port = default_port

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "HeaderRuleSet":
        """Build from a HeaderClassifier block's config dict."""
        rules = [HeaderRule.from_dict(item) for item in config.get("rules", ())]
        return cls(rules, default_port=int(config.get("default_port", 0)))

    def to_config(self) -> dict[str, Any]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "default_port": self.default_port,
        }

    def classify(self, packet: Packet) -> int:
        """First-match classification; returns the output port."""
        for rule in self.rules:
            if rule.matches(packet):
                return rule.port
        return self.default_port

    def used_ports(self) -> set[int]:
        ports = {rule.port for rule in self.rules}
        ports.add(self.default_port)
        return ports

    def num_ports(self) -> int:
        return max(self.used_ports()) + 1

    def prune_shadowed(self) -> "HeaderRuleSet":
        """Drop rules that can never be the first match.

        A rule covered by an earlier kept rule never fires ("empty rules
        caused by priority considerations"); an exact duplicate of an
        earlier rule is covered by it ("removes duplicate rules caused by
        the cross-product"). Covering is transitive, so checking only the
        kept rules loses nothing. :class:`RuleIndex` finds the covering
        rules without trying each one, so pruning has no size limit.
        """
        index = RuleIndex(self.rules)
        kept: list[HeaderRule] = []
        kept_bits = 0
        for position, rule in enumerate(self.rules):
            if not index.covering(rule, kept_bits):
                kept.append(rule)
                kept_bits |= 1 << position
        return HeaderRuleSet(kept, self.default_port)

    def prune_default_tail(self) -> "HeaderRuleSet":
        """Drop trailing rules that map to the default port.

        A suffix of rules whose port equals ``default_port`` is redundant:
        any packet reaching them gets the default port either way.
        """
        rules = list(self.rules)
        while rules and rules[-1].port == self.default_port:
            rules.pop()
        return HeaderRuleSet(rules, self.default_port)


class LinearMatcher:
    """Reference matcher: priority-ordered linear scan."""

    #: Name advertised to the controller as an implementation choice.
    implementation = "linear"

    def __init__(self, ruleset: HeaderRuleSet) -> None:
        self.ruleset = ruleset

    def match(self, packet: Packet) -> int:
        return self.ruleset.classify(packet)
