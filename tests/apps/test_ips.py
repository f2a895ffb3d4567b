"""IPS application tests: Snort parsing, graph shape, detection."""

import pytest

from repro.apps.ips import IpsApp, parse_snort_rules
from repro.net.builder import make_tcp_packet
from repro.obi.translation import build_engine

RULES = (
    'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 '
    '(msg:"passwd grab"; content:"/etc/passwd"; sid:1;)\n'
    'alert tcp any any -> any 80 '
    '(msg:"sqli"; pcre:"/union\\s+select/i"; sid:2;)\n'
    'alert tcp any any -> 192.168.0.0/16 8080 '
    '(msg:"alt-port shell"; content:"CMD.EXE"; nocase; sid:3;)\n'
    'alert tcp any 1024: -> any 8081 (msg:"hdr only"; sid:4;)\n'
)

VARIABLES = {"EXTERNAL_NET": "any", "HOME_NET": "any"}


def _alert_messages(rules):
    """Payload -> alert messages of an IPS built from ``rules`` (dport 80)."""
    engine = build_engine(IpsApp("ips", rules).build_graph())

    def alerts(payload):
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, payload=payload)
        return [alert.message for alert in engine.process(packet).alerts]

    return alerts


class TestSnortParser:
    def test_parses_rules(self):
        rules = parse_snort_rules(RULES, VARIABLES)
        assert len(rules) == 4
        assert rules[0].msg == "passwd grab"
        assert rules[0].sid == 1
        assert rules[0].contents[0].pattern == "/etc/passwd"
        assert not rules[0].contents[0].nocase

    def test_pcre_parsed(self):
        rules = parse_snort_rules(RULES, VARIABLES)
        sqli = rules[1]
        assert sqli.contents[0].is_pcre
        assert sqli.contents[0].nocase
        assert "union" in sqli.contents[0].pattern

    def test_nocase_flag(self):
        rules = parse_snort_rules(RULES, VARIABLES)
        assert rules[2].contents[0].nocase

    def test_address_and_port_parsing(self):
        rules = parse_snort_rules(RULES, VARIABLES)
        assert str(rules[2].dst) == "192.168.0.0/16"
        assert rules[2].dst_port.lo == 8080
        assert rules[3].src_port.lo == 1024
        assert rules[3].src_port.hi == 65535

    def test_variable_resolution(self):
        rules = parse_snort_rules(
            'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 (msg:"x"; sid:9;)',
            {"EXTERNAL_NET": "203.0.113.0/24", "HOME_NET": "10.0.0.0/8"},
        )
        assert str(rules[0].src) == "203.0.113.0/24"
        assert str(rules[0].dst) == "10.0.0.0/8"

    def test_comments_skipped(self):
        assert parse_snort_rules("# comment\n\n") == []

    def test_malformed_rule_rejected(self):
        with pytest.raises(ValueError):
            parse_snort_rules("alert tcp broken")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            parse_snort_rules('alert gre any any -> any any (msg:"x"; sid:1;)')

    @pytest.mark.parametrize("pcre, pattern, nocase", [
        ("/wiki/", "wiki", False),  # a body's own trailing i is kept
        ("/ii/", "ii", False),
        ("/a/smi", "(?s)(?m)a", True),
        ("/union\\s+select/i", "union\\s+select", True),
    ])
    def test_pcre_delimiters_and_modifiers(self, pcre, pattern, nocase):
        rule = parse_snort_rules(
            f'alert tcp any any -> any 80 (msg:"p"; pcre:"{pcre}"; sid:6;)'
        )[0]
        [content] = rule.contents
        assert content.is_pcre and content.nocase is nocase
        assert content.standalone() == pattern

    def test_unknown_pcre_modifier_names_its_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_snort_rules(
                "# header\n"
                'alert tcp any any -> any 80 (msg:"p"; pcre:"/a/q"; sid:7;)'
            )

    def test_escaped_quote_in_content(self):
        rules = parse_snort_rules(
            r'alert tcp any any -> any 80 (msg:"q"; content:"say \"hi\""; sid:5;)'
        )
        assert rules[0].contents[0].pattern == 'say "hi"'


class TestIpsGraph:
    def test_graph_structure_figure_2b(self):
        app = IpsApp("ips", parse_snort_rules(RULES, VARIABLES))
        graph = app.build_graph()
        graph.validate()
        types = [b.type for b in graph.blocks.values()]
        assert types.count("HeaderClassifier") == 1
        assert types.count("RegexClassifier") >= 2  # one per header group
        assert types.count("Alert") == 4  # one per rule

    def test_group_count_follows_header_signatures(self):
        app = IpsApp("ips", parse_snort_rules(RULES, VARIABLES))
        groups = app._groups()
        # Rules 1 and 2 share a header signature (any->any:80); rules 3
        # and 4 each have a distinct one.
        assert len(groups) == 3


class TestIpsBehaviour:
    def _engine(self):
        app = IpsApp("ips", parse_snort_rules(RULES, VARIABLES))
        return build_engine(app.build_graph())

    def test_content_detection(self):
        outcome = self._engine().process(
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80,
                            payload=b"GET /../etc/passwd HTTP/1.1")
        )
        assert any(a.message == "passwd grab" for a in outcome.alerts)
        assert outcome.forwarded  # IPS alerts but forwards (paper eval mode)

    def test_pcre_detection_case_insensitive(self):
        outcome = self._engine().process(
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80,
                            payload=b"id=1 UNION  SELECT pass")
        )
        assert any(a.message == "sqli" for a in outcome.alerts)

    def test_nocase_content(self):
        outcome = self._engine().process(
            make_tcp_packet("1.1.1.1", "192.168.3.3", 5, 8080, payload=b"run cmd.exe now")
        )
        assert any(a.message == "alt-port shell" for a in outcome.alerts)

    def test_header_only_rule_fires_without_payload_match(self):
        outcome = self._engine().process(
            make_tcp_packet("1.1.1.1", "2.2.2.2", 2000, 8081, payload=b"benign")
        )
        assert any(a.message == "hdr only" for a in outcome.alerts)

    def test_overlapping_groups_first_match_dispatch(self):
        """Documented dispatch semantics: a packet follows a single path
        (paper §2.1), so overlapping header groups resolve by first match
        and only that group's DPI rules are evaluated."""
        rules = parse_snort_rules(
            'alert tcp any any -> any 80 (msg:"g1"; content:"aaa"; sid:1;)\n'
            'alert tcp any any -> 192.168.0.0/16 80 (msg:"g2"; content:"bbb"; sid:2;)\n'
        )
        engine = build_engine(IpsApp("ips", rules).build_graph())
        # The packet matches both groups' headers; whichever group the
        # classifier dispatches to decides which contents can fire.
        outcome = engine.process(
            make_tcp_packet("1.1.1.1", "192.168.1.1", 5, 80, payload=b"aaa bbb")
        )
        assert len(outcome.alerts) == 1

    def test_pcre_body_ending_in_i_is_not_a_catch_all(self):
        rules = parse_snort_rules(
            'alert tcp any any -> any 80 (msg:"ii"; pcre:"/ii/"; sid:1;)\n'
            'alert tcp any any -> any 80 (msg:"dotall"; pcre:"/a.b/s"; sid:2;)\n'
        )
        alerts = _alert_messages(rules)
        assert alerts(b"benign") == []
        assert alerts(b"skiing") == ["ii"]
        assert alerts(b"a\nb") == ["dotall"]

    def test_every_content_of_a_rule_must_match(self):
        """Snort ANDs a rule's options; a GET alone is not the attack."""
        rules = parse_snort_rules(
            'alert tcp any any -> any 80 (msg:"passwd via GET"; '
            'content:"GET"; content:"/ETC/passwd"; nocase; sid:1;)'
        )
        # Anchored, a miss is one pass per option, not one per offset.
        [pattern] = [
            spec["pattern"]
            for block in IpsApp("ips", rules).build_graph().blocks.values()
            if block.type == "RegexClassifier"
            for spec in block.config["patterns"]
        ]
        assert pattern.startswith("\\A")
        alerts = _alert_messages(rules)
        assert alerts(b"GET /index.html HTTP/1.1") == []
        assert alerts(b"POST /etc/passwd HTTP/1.1") == []
        # The options may appear in any order, across lines.
        assert alerts(b"GET /x HTTP/1.1\r\nRef: /etc/PASSWD") == ["passwd via GET"]
        assert alerts(b"x=/etc/passwd\nGET") == ["passwd via GET"]

    def test_clean_traffic_passes(self):
        outcome = self._engine().process(
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 443, payload=b"clean")
        )
        assert outcome.forwarded and not outcome.alerts

    def test_wrong_port_no_dpi(self):
        outcome = self._engine().process(
            make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 9999, payload=b"/etc/passwd")
        )
        assert not outcome.alerts
