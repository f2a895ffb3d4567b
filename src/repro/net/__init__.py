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
