"""A firewall/ACL OpenBox application (paper §5.2, "Sample Firewall").

Rules come from a text file in a classic ACL syntax::

    # action  proto  src            sport    dst             dport
    deny      tcp    10.0.0.0/8     any      any             22
    alert     udp    any            any      192.168.0.0/16  53
    allow     any    any            any      any             any

First match wins. The generated processing graph follows Figure 2(a):
``FromDevice -> HeaderClassifier -> {Discard | Alert -> ToDevice |
ToDevice}``.

For throughput experiments the paper modifies its 4560-rule commercial
ruleset "so that packets are never dropped. Instead, all packets are
transmitted untouched" — pass ``alert_only=True`` to reproduce that:
deny rules raise alerts instead of dropping.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.controller.apps import AppStatement, OpenBoxApplication
from repro.core.blocks import Block
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.graph import ProcessingGraph
from repro.net.ip import IpProto

_PROTO_NAMES = {"tcp": IpProto.TCP, "udp": IpProto.UDP, "icmp": IpProto.ICMP}

ACTIONS = ("allow", "deny", "alert")


@dataclass(frozen=True)
class FirewallRule:
    """One parsed ACL rule."""

    action: str
    match: HeaderRule

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown firewall action: {self.action!r}")


def _parse_port(token: str) -> PortRange:
    if token == "any":
        return PortRange.ANY
    if ":" in token:
        lo, hi = token.split(":", 1)
        return PortRange(int(lo), int(hi))
    return PortRange.exact(int(token))


def _parse_prefix(token: str) -> Prefix:
    return Prefix.ANY if token == "any" else Prefix.parse(token)


def parse_firewall_rules(text: str) -> list[FirewallRule]:
    """Parse a rule file; '#' starts a comment, blank lines ignored."""
    rules: list[FirewallRule] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 6:
            raise ValueError(
                f"line {line_no}: expected 6 fields "
                f"(action proto src sport dst dport), got {len(tokens)}"
            )
        action, proto, src, sport, dst, dport = tokens
        proto_num = None if proto == "any" else _PROTO_NAMES.get(proto)
        if proto != "any" and proto_num is None:
            raise ValueError(f"line {line_no}: unknown protocol {proto!r}")
        rules.append(FirewallRule(
            action=action,
            match=HeaderRule(
                src=_parse_prefix(src),
                dst=_parse_prefix(dst),
                src_port=_parse_port(sport),
                dst_port=_parse_port(dport),
                proto=proto_num,
            ),
        ))
    return rules


class FirewallApp(OpenBoxApplication):
    """The firewall NF as an OpenBox application."""

    #: Classifier output-port layout of the generated graph.
    PORT_ALLOW = 0
    PORT_DENY = 1
    PORT_ALERT = 2

    def __init__(
        self,
        name: str,
        rules: list[FirewallRule],
        segment: str = "",
        obi_id: str | None = None,
        alert_only: bool = False,
        priority: int = 10,
        in_device: str = "in",
        out_device: str = "out",
    ) -> None:
        super().__init__(name, priority=priority)
        self.rules = list(rules)
        self.segment = segment
        self.obi_id = obi_id
        self.alert_only = alert_only
        self.in_device = in_device
        self.out_device = out_device

    def build_graph(self) -> ProcessingGraph:
        """Build the Figure 2(a) processing graph from the rule list."""
        graph = ProcessingGraph(f"{self.name}")
        classifier_rules = []
        for rule in self.rules:
            if rule.action == "allow":
                port = self.PORT_ALLOW
            elif rule.action == "deny":
                port = self.PORT_ALERT if self.alert_only else self.PORT_DENY
            else:
                port = self.PORT_ALERT
            classifier_rules.append(replace(rule.match, port=port))

        read = Block("FromDevice", name=f"{self.name}_read",
                     config={"devname": self.in_device}, origin_app=self.name)
        classify = Block(
            "HeaderClassifier",
            name=f"{self.name}_classify",
            config={"rules": classifier_rules, "default_port": self.PORT_ALLOW},
            origin_app=self.name,
        )
        out = Block("ToDevice", name=f"{self.name}_out",
                    config={"devname": self.out_device}, origin_app=self.name)
        alert = Block("Alert", name=f"{self.name}_alert",
                      config={"message": f"{self.name}: rule matched",
                              "severity": "warning"},
                      origin_app=self.name)
        graph.add_blocks([read, classify, out])
        graph.connect(read, classify)
        graph.connect(classify, out, self.PORT_ALLOW)
        used_ports = {rule.port for rule in classifier_rules}
        if self.PORT_ALERT in used_ports:
            graph.add_block(alert)
            graph.connect(classify, alert, self.PORT_ALERT)
            graph.connect(alert, out)
        if self.PORT_DENY in used_ports:
            drop = Block("Discard", name=f"{self.name}_drop", origin_app=self.name)
            graph.add_block(drop)
            graph.connect(classify, drop, self.PORT_DENY)
        graph.validate()
        return graph

    def statements(self) -> list[AppStatement]:
        return [AppStatement(
            graph=self.build_graph(), segment=self.segment, obi_id=self.obi_id
        )]

    # ------------------------------------------------------------------
    # Event-driven behaviour (paper §3.4: an IPS/firewall can react to
    # alerts by tightening policy)
    # ------------------------------------------------------------------
    def block_source(self, cidr: str) -> None:
        """Add a deny rule for ``cidr`` and redeploy."""
        action = "alert" if self.alert_only else "deny"
        self.rules.insert(0, FirewallRule(
            action=action,
            match=HeaderRule(src=Prefix.parse(cidr)),
        ))
        if self.controller is not None:
            self.update_logic()
