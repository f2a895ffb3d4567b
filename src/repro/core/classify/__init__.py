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

Payload classification (:class:`~repro.core.classify.regex.RegexRuleSet`)
walks its patterns in priority order, testing each with one C-level call
(``bytes in`` for literals, compiled ``re`` search for true regexes) and
stopping at the first hit. At the group sizes the apps build, far below
the crossover the DPI ablation measures, that beats a pure-Python
multi-pattern automaton.
"""

from repro.core.classify.header import HeaderRuleSet, LinearMatcher
from repro.core.classify.regex import RegexPattern, RegexRuleSet
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.classify.tcam import TcamMatcher
from repro.core.classify.trie import TrieMatcher

__all__ = [
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
