"""An IPS OpenBox application driven by Snort-style rules (paper §5.2).

"We use Snort web rules to create a sample IPS that scans both headers
and payloads of packets. If a packet matches a rule, an alert is sent to
the controller."

The parser handles the Snort subset those rules need::

    alert tcp $EXTERNAL_NET any -> $HOME_NET 80 \
        (msg:"WEB attack"; content:"/etc/passwd"; nocase; sid:1001;)

Supported options: ``msg``, ``content`` (one or more, with ``nocase``),
``pcre``, ``sid``. Address variables resolve through a supplied
variable map.

The generated graph follows Figure 2(b): a header classifier splits
traffic into rule groups (by destination port), and each group gets a
RegexClassifier whose match ports lead to per-rule Alert blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.controller.apps import AppStatement, OpenBoxApplication
from repro.core.blocks import Block
from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.graph import ProcessingGraph
from repro.net.ip import IpProto

_PROTO_NAMES = {"tcp": IpProto.TCP, "udp": IpProto.UDP, "icmp": IpProto.ICMP, "ip": None}

_RULE_RE = re.compile(
    r"^(?P<action>alert|log|pass|drop)\s+(?P<proto>\w+)\s+"
    r"(?P<src>\S+)\s+(?P<sport>\S+)\s+->\s+"
    r"(?P<dst>\S+)\s+(?P<dport>\S+)\s*\((?P<options>.*)\)\s*$"
)

_OPTION_RE = re.compile(r'(?P<key>\w+)\s*(?::\s*(?P<value>"(?:[^"\\]|\\.)*"|[^;]*))?;')


@dataclass
class SnortContent:
    """One content/pcre option of a rule."""

    pattern: str
    nocase: bool = False
    is_pcre: bool = False


@dataclass
class SnortRule:
    """A parsed Snort rule (subset)."""

    action: str
    proto: int | None
    src: Prefix
    src_port: PortRange
    dst: Prefix
    dst_port: PortRange
    msg: str = ""
    sid: int = 0
    contents: list[SnortContent] = field(default_factory=list)

    def header_rule(self, port: int) -> HeaderRule:
        return HeaderRule(
            src=self.src, dst=self.dst,
            src_port=self.src_port, dst_port=self.dst_port,
            proto=self.proto, port=port,
        )


def _unquote(value: str) -> str:
    value = value.strip()
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        value = value[1:-1]
    return value.replace('\\"', '"').replace("\\\\", "\\").replace("\\;", ";")


def _parse_endpoint(token: str, variables: dict[str, str]) -> Prefix:
    token = token.strip()
    if token.startswith("$"):
        token = variables.get(token[1:], "any")
    if token in ("any", "!any"):
        return Prefix.ANY
    return Prefix.parse(token)


def _parse_ports(token: str) -> PortRange:
    token = token.strip()
    if token.startswith("$") or token == "any":
        return PortRange.ANY
    if ":" in token:
        lo, _sep, hi = token.partition(":")
        return PortRange(int(lo) if lo else 0, int(hi) if hi else 65535)
    return PortRange.exact(int(token))


def parse_snort_rules(
    text: str, variables: dict[str, str] | None = None
) -> list[SnortRule]:
    """Parse Snort rules (one per line; '#' comments allowed)."""
    variables = variables or {}
    rules: list[SnortRule] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = _RULE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: not a valid Snort rule")
        proto_name = match.group("proto").lower()
        if proto_name not in _PROTO_NAMES:
            raise ValueError(f"line {line_no}: unknown protocol {proto_name!r}")
        rule = SnortRule(
            action=match.group("action"),
            proto=_PROTO_NAMES[proto_name],
            src=_parse_endpoint(match.group("src"), variables),
            src_port=_parse_ports(match.group("sport")),
            dst=_parse_endpoint(match.group("dst"), variables),
            dst_port=_parse_ports(match.group("dport")),
        )
        nocase_target: SnortContent | None = None
        for option in _OPTION_RE.finditer(match.group("options")):
            key = option.group("key")
            value = option.group("value") or ""
            if key == "msg":
                rule.msg = _unquote(value)
            elif key == "sid":
                rule.sid = int(value.strip())
            elif key == "content":
                nocase_target = SnortContent(pattern=_unquote(value))
                rule.contents.append(nocase_target)
            elif key == "nocase" and nocase_target is not None:
                nocase_target.nocase = True
            elif key == "pcre":
                pcre = _unquote(value)
                nocase = pcre.endswith("i")
                body = pcre.strip("/").rstrip("i").rstrip("/")
                rule.contents.append(
                    SnortContent(pattern=body, nocase=nocase, is_pcre=True)
                )
        rules.append(rule)
    return rules


class IpsApp(OpenBoxApplication):
    """The IPS NF as an OpenBox application."""

    def __init__(
        self,
        name: str,
        rules: list[SnortRule],
        segment: str = "",
        obi_id: str | None = None,
        priority: int = 20,
        in_device: str = "in",
        out_device: str = "out",
        quarantine: bool = False,
    ) -> None:
        """``quarantine=True`` makes the IPS stateful (paper §3.4.2): a
        flow that triggers an alert is tagged in the session storage and
        every subsequent packet of that flow is dropped at the front of
        the graph — the Snort "flow flagged" behaviour."""
        super().__init__(name, priority=priority)
        self.rules = list(rules)
        self.segment = segment
        self.obi_id = obi_id
        self.in_device = in_device
        self.out_device = out_device
        self.quarantine = quarantine

    def _groups(self) -> dict[tuple, list[SnortRule]]:
        """Group rules by full header signature (one DPI engine per group)."""
        groups: dict[tuple, list[SnortRule]] = {}
        for rule in self.rules:
            key = (
                rule.proto,
                rule.src, rule.dst,
                rule.dst_port.lo, rule.dst_port.hi,
                rule.src_port.lo, rule.src_port.hi,
            )
            groups.setdefault(key, []).append(rule)
        return groups

    def build_graph(self) -> ProcessingGraph:
        """Build the Figure 2(b) graph: header split, then DPI, then alerts."""
        graph = ProcessingGraph(self.name)
        read = Block("FromDevice", name=f"{self.name}_read",
                     config={"devname": self.in_device}, origin_app=self.name)
        out = Block("ToDevice", name=f"{self.name}_out",
                    config={"devname": self.out_device}, origin_app=self.name)
        graph.add_blocks([read, out])

        groups = self._groups()
        header_rules: list[HeaderRule] = []
        classify = Block(
            "HeaderClassifier",
            name=f"{self.name}_classify",
            config={"rules": [], "default_port": 0},
            origin_app=self.name,
        )
        graph.add_block(classify)
        if self.quarantine:
            # Stateful front end: quarantined flows are dropped before
            # any further processing; everything else is tracked.
            gate = Block("FlowClassifier", name=f"{self.name}_gate", config={
                "key": f"{self.name}.quarantine",
                "rules": {"blocked": 1},
                "default_port": 0,
            }, origin_app=self.name)
            jail = Block("Discard", name=f"{self.name}_jail", origin_app=self.name)
            track = Block("FlowTracker", name=f"{self.name}_track",
                          origin_app=self.name)
            graph.add_blocks([gate, jail, track])
            graph.connect(read, gate)
            graph.connect(gate, jail, 1)
            graph.connect(gate, track, 0)
            graph.connect(track, classify)
        else:
            graph.connect(read, classify)
        graph.connect(classify, out, 0)

        for group_index, (key, rules) in enumerate(sorted(groups.items(),
                                                          key=lambda kv: str(kv[0]))):
            group_port = group_index + 1
            header_rules.append(rules[0].header_rule(group_port))
            patterns = []
            regex = Block(
                "RegexClassifier",
                name=f"{self.name}_dpi_{group_index}",
                config={"patterns": patterns, "default_port": 0},
                origin_app=self.name,
            )
            graph.add_block(regex)
            graph.connect(classify, regex, group_port)
            graph.connect(regex, out, 0)
            for rule_index, rule in enumerate(rules):
                if not rule.contents:
                    # Header-only rule: its header part alone fires the
                    # alert. Use a catch-all pattern so the regex stage
                    # always routes it to its alert.
                    patterns.append({"pattern": "", "is_regex": True,
                                     "port": rule_index + 1})
                else:
                    content = rule.contents[0]
                    patterns.append({
                        "pattern": content.pattern,
                        "is_regex": content.is_pcre,
                        "case_sensitive": not content.nocase,
                        "port": rule_index + 1,
                    })
                alert = Block(
                    "Alert",
                    name=f"{self.name}_alert_{group_index}_{rule_index}",
                    config={
                        "message": rule.msg or f"sid:{rule.sid}",
                        "severity": "warning",
                    },
                    origin_app=self.name,
                )
                graph.add_block(alert)
                graph.connect(regex, alert, rule_index + 1)
                if self.quarantine:
                    tag = Block(
                        "SessionTag",
                        name=f"{self.name}_tag_{group_index}_{rule_index}",
                        config={"key": f"{self.name}.quarantine",
                                "value": "blocked"},
                        origin_app=self.name,
                    )
                    graph.add_block(tag)
                    graph.connect(alert, tag)
                    graph.connect(tag, out)
                else:
                    graph.connect(alert, out)

        classify.config["rules"] = HeaderRuleSet(header_rules)
        graph.validate()
        return graph

    def statements(self) -> list[AppStatement]:
        return [AppStatement(
            graph=self.build_graph(), segment=self.segment, obi_id=self.obi_id
        )]
