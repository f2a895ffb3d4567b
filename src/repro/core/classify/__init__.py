"""Packet classification engines for OpenBox classifier blocks.

Three header-classification engines implement the same first-match
semantics with different cost profiles (paper §2.1: an abstract block may
have several implementations, e.g. a software trie or a hardware TCAM):

* :class:`~repro.core.classify.header.LinearMatcher` — reference
  implementation, linear scan by priority;
* :class:`~repro.core.classify.trie.TrieMatcher` — the software default:
  one bitset query over a ``RuleIndex``, first match = lowest set bit;
* :class:`~repro.core.classify.tcam.TcamMatcher` — simulated TCAM
  (parallel mask/value entries with constant modelled lookup latency).

Payload classification uses :class:`~repro.core.classify.regex.AhoCorasick`
for literal pattern sets, with compiled-``re`` fallback for true regexes.
"""

from repro.core.classify.header import HeaderRuleSet, LinearMatcher
from repro.core.classify.regex import AhoCorasick, RegexPattern, RegexRuleSet
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.classify.tcam import TcamMatcher
from repro.core.classify.trie import TrieMatcher

__all__ = [
    "AhoCorasick",
    "HeaderRule",
    "HeaderRuleSet",
    "LinearMatcher",
    "PortRange",
    "Prefix",
    "RegexPattern",
    "RegexRuleSet",
    "TcamMatcher",
    "TrieMatcher",
]
