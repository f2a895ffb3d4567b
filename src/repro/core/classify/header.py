"""HeaderClassifier rule sets: first-match classification and pruning.

The paper's ``mergeWith`` (§2.2.1) "creates a cross-product of rules from
both classifiers, orders them according to their priority, removes
duplicate rules caused by the cross-product and empty rules caused by
priority considerations". The cross product lives in
:func:`repro.core.compress.merge_classifier_rulesets_on_branch`; the
removal steps are :meth:`HeaderRuleSet.prune_shadowed` and
:meth:`HeaderRuleSet.prune_default_tail`, run once per value as
:attr:`HeaderRuleSet.pruned`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from repro.core.classify.index import RuleIndex
from repro.core.classify.rules import HeaderRule
from repro.net.packet import Packet


@dataclass(frozen=True)
class HeaderRuleSet:
    """A classifier's rules as one immutable value: :class:`HeaderRule` in
    priority order, and the ``default_port`` of packets matching none.

    What a HeaderClassifier or VlanClassifier config's ``rules`` holds:
    parsed once where dicts enter (:meth:`parse`), shared by every copy,
    turned back into dicts only by :func:`json_default`. What it derives
    is computed at most once.
    """

    rules: tuple[HeaderRule, ...] = ()
    default_port: int = 0
    #: True on a value :attr:`pruned` made: it is its own pruned form.
    is_pruned: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def parse(cls, rules: Iterable[Any], default_port: int = 0) -> "HeaderRuleSet":
        """The value of a rule list: wire dicts are parsed, rules kept, and
        a value with this ``default_port`` passes through as it is."""
        if isinstance(rules, HeaderRuleSet) and rules.default_port == default_port:
            return rules
        return cls([rule if isinstance(rule, HeaderRule) else HeaderRule.from_dict(rule)
                    for rule in rules], int(default_port))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    @cached_property
    def wire(self) -> list[dict[str, Any]]:
        """The protocol's rule list, one dict per rule. Shared: read-only."""
        return [rule.to_dict() for rule in self.rules]

    def classify(self, packet: Packet) -> int:
        """First-match classification; returns the output port."""
        for rule in self.rules:
            if rule.matches(packet):
                return rule.port
        return self.default_port

    @cached_property
    def used_ports(self) -> frozenset[int]:
        return frozenset(rule.port for rule in self.rules) | {self.default_port}

    @cached_property
    def num_ports(self) -> int:
        return max(self.used_ports) + 1

    @cached_property
    def catch_all_port(self) -> int:
        """The port of the first rule matching every packet, else the default."""
        return next((rule.port for rule in self.rules if rule.is_catch_all), self.default_port)

    @property
    def pruned(self) -> "HeaderRuleSet":
        """Shadowed rules, then the default tail, dropped. Computed once per
        value, and a pruned value is its own, so no rule set is pruned twice
        (and no value refers to itself, which would leave it to the cycle
        collector)."""
        return self if self.is_pruned else self._pruned

    @cached_property
    def _pruned(self) -> "HeaderRuleSet":
        pruned = self.prune_shadowed().prune_default_tail()
        object.__setattr__(pruned, "is_pruned", True)
        return pruned

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


def json_default(value: Any) -> Any:
    """The ``json.dumps`` hook turning a rule value into its wire list."""
    if isinstance(value, HeaderRuleSet):
        return value.wire
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


class LinearMatcher:
    """Reference matcher: priority-ordered linear scan."""

    #: Name advertised to the controller as an implementation choice.
    implementation = "linear"

    def __init__(self, ruleset: HeaderRuleSet) -> None:
        self.ruleset = ruleset

    def match(self, packet: Packet) -> int:
        return self.ruleset.classify(packet)
