"""Flow tracking: 5-tuples, direction-folded keys, timeouts, teardown.

LRU eviction and the exhaustion policy are covered in
``tests/obi/test_flowstate.py``.
"""

import pytest

from repro.net.builder import make_tcp_packet, make_udp_packet
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.net.tcp import TcpFlags
from repro.obi.flowstate import FlowStateTable


def _pkt(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80, **kw):
    return make_tcp_packet(src, dst, sport, dport, **kw)


class TestFiveTuple:
    def test_extraction(self):
        tuple5 = FiveTuple.of(_pkt())
        assert tuple5.src_port == 1000 and tuple5.dst_port == 80
        assert tuple5.proto == 6

    def test_non_ip_returns_none(self):
        assert FiveTuple.of(Packet(data=b"junk")) is None

    def test_reversed(self):
        tuple5 = FiveTuple.of(_pkt())
        assert tuple5.reversed().reversed() == tuple5
        assert tuple5.reversed().src_port == 80

    def test_bidirectional_key_symmetric(self):
        tuple5 = FiveTuple.of(_pkt())
        assert tuple5.bidirectional_key() == tuple5.reversed().bidirectional_key()

    def test_str_contains_addresses(self):
        assert "10.0.0.1:1000" in str(FiveTuple.of(_pkt()))

    def test_udp_tuple(self):
        tuple5 = FiveTuple.of(make_udp_packet("1.1.1.1", "2.2.2.2", 5, 6))
        assert tuple5.proto == 17


class TestFlowTable:
    """The OBI's one flow table, :class:`FlowStateTable`."""

    def test_observe_creates_and_counts(self):
        table = FlowStateTable()
        flow = table.observe(_pkt(), now=0.0)
        assert flow.packets == 1
        table.observe(_pkt(), now=1.0)
        assert flow.packets == 2
        assert len(table) == 1

    def test_bidirectional_merges_directions(self):
        table = FlowStateTable()
        table.observe(_pkt(), now=0.0)
        table.observe(_pkt(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1000), now=0.1)
        assert len(table) == 1

    def test_idle_timeout_expiry(self):
        table = FlowStateTable(idle_timeout=10.0)
        table.observe(_pkt(), now=0.0)
        table.observe(_pkt(sport=2000), now=8.0)
        expired = table.expire(now=15.0)
        assert len(expired) == 1
        assert len(table) == 1

    def test_fin_rst_tracking(self):
        table = FlowStateTable()
        flow = table.observe(_pkt(flags=TcpFlags.FIN | TcpFlags.ACK), now=0.0)
        assert flow.fin_seen and flow.closed
        flow2 = table.observe(_pkt(sport=2000, flags=TcpFlags.RST), now=0.0)
        assert flow2.rst_seen

    def test_remove(self):
        table = FlowStateTable()
        flow = table.observe(_pkt(), now=0.0)
        assert table.remove(flow.key) is flow
        assert table.remove(flow.key) is None

    def test_lookup_does_not_create(self):
        table = FlowStateTable()
        assert table.lookup(FiveTuple.of(_pkt())) is None
        assert len(table) == 0

    def test_export_state(self):
        table = FlowStateTable()
        flow = table.observe(_pkt(), now=0.0)
        flow.session["tag"] = "suspicious"
        exported = table.export_state()
        assert list(exported.values()) == [{"tag": "suspicious"}]

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            FlowStateTable(idle_timeout=0)
