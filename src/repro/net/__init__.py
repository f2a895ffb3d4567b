"""Packet-level networking substrate for the OpenBox reproduction.

This subpackage implements, from scratch, everything OpenBox's data plane
needs to handle packets: header parsing and serialization for Ethernet,
802.1Q VLAN, IPv4, TCP, and UDP; a minimal HTTP/1.x parser; the Network
Service Header (NSH), the one channel that carries OpenBox metadata
between service instances; pcap capture files; and 5-tuple flow keys.

The central type is :class:`~repro.net.packet.Packet`, a mutable packet
buffer with lazily parsed header views and an attached per-packet metadata
store (the OpenBox "metadata storage").
"""

from repro.net.checksum import internet_checksum
from repro.net.ethernet import EtherType, EthernetHeader, MacAddress, VlanTag
from repro.net.flow import FiveTuple, Flow
from repro.net.http import HttpMessage, HttpRequest, HttpResponse, parse_http
from repro.net.ip import IpProto, Ipv4Header
from repro.net.nsh import NshHeader
from repro.net.packet import Packet
from repro.net.pcap import PcapReader, PcapWriter, read_pcap, write_pcap
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader

__all__ = [
    "EtherType",
    "EthernetHeader",
    "FiveTuple",
    "Flow",
    "HttpMessage",
    "HttpRequest",
    "HttpResponse",
    "IpProto",
    "Ipv4Header",
    "MacAddress",
    "NshHeader",
    "Packet",
    "PcapReader",
    "PcapWriter",
    "TcpFlags",
    "TcpHeader",
    "UdpHeader",
    "VlanTag",
    "internet_checksum",
    "parse_http",
    "read_pcap",
    "write_pcap",
]
