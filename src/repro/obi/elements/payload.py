"""Payload-transforming modifier elements (HTTP-oriented).

These blocks are what web-optimizer / IPS-preprocessing NFs need: gzip
decompression before DPI (Snort stores "gzip window data" per flow —
paper §3.4.2), HTML/URL normalization to defeat evasion, and raw payload
substitution.
"""

from __future__ import annotations

import gzip
import re
from typing import Any
from urllib.parse import unquote

from repro.net.http import HttpRequest, parse_http, serialize_http
from repro.net.packet import Packet
from repro.obi.engine import Element


class GzipDecompressorElement(Element):
    """Decompresses gzip-encoded HTTP bodies in place.

    Single-packet messages only (streaming reassembly is out of scope for
    the engine; the flow tracker records partial state for NFs that need
    it). Malformed gzip leaves the packet untouched and bumps ``errors``.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.decompressed = 0
        self.errors = 0

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        message = parse_http(packet.payload)
        if message is None or not message.is_gzip or not message.body:
            return [(0, packet)]
        try:
            body = gzip.decompress(message.body)
        except (OSError, EOFError):
            self.errors += 1
            return [(0, packet)]
        message.body = body
        message.headers = {
            key: value for key, value in message.headers.items()
            if key.lower() != "content-encoding"
        }
        message.headers["Content-Length"] = str(len(body))
        packet.set_payload(serialize_http(message))
        self.decompressed += 1
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "errors":
            return self.errors
        if name == "decompressed":
            return self.decompressed
        return super().read_handle(name)


class GzipCompressorElement(Element):
    """Compresses uncompressed HTTP bodies with gzip."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.compressed = 0

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        message = parse_http(packet.payload)
        if message is None or message.is_gzip or not message.body:
            return [(0, packet)]
        message.body = gzip.compress(message.body, mtime=0)
        message.headers["Content-Encoding"] = "gzip"
        message.headers["Content-Length"] = str(len(message.body))
        packet.set_payload(serialize_http(message))
        self.compressed += 1
        return [(0, packet)]


_WHITESPACE_RUNS = re.compile(rb"[ \t\r\n]+")
_HTML_COMMENTS = re.compile(rb"<!--.*?-->", re.DOTALL)


class HtmlNormalizerElement(Element):
    """Normalizes HTML bodies: lowercases tags, strips comments,
    collapses whitespace — the canonical anti-evasion preprocessing."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.normalized = 0

    @staticmethod
    def normalize(body: bytes) -> bytes:
        body = _HTML_COMMENTS.sub(b"", body)
        body = _WHITESPACE_RUNS.sub(b" ", body)
        # Lowercase tag names only, leaving text content intact.
        return re.sub(
            rb"</?[A-Za-z][A-Za-z0-9]*",
            lambda match: match.group(0).lower(),
            body,
        ).strip()

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        message = parse_http(packet.payload)
        if (
            message is None
            or message.is_gzip
            or message.content_type not in ("text/html", "")
            or not message.body
        ):
            return [(0, packet)]
        normalized = self.normalize(message.body)
        if normalized != message.body:
            message.body = normalized
            message.headers["Content-Length"] = str(len(normalized))
            packet.set_payload(serialize_http(message))
            self.normalized += 1
        return [(0, packet)]

    def read_handle(self, name: str) -> Any:
        if name == "normalized":
            return self.normalized
        return super().read_handle(name)


class UrlNormalizerElement(Element):
    """Percent-decodes and squashes ``.``/``..`` segments in request URIs."""

    @staticmethod
    def normalize(uri: str) -> str:
        path, sep, query = uri.partition("?")
        path = unquote(path)
        segments: list[str] = []
        for segment in path.split("/"):
            if segment in ("", "."):
                continue
            if segment == "..":
                if segments:
                    segments.pop()
                continue
            segments.append(segment)
        normalized = "/" + "/".join(segments)
        return normalized + sep + query

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        message = parse_http(packet.payload)
        if not isinstance(message, HttpRequest):
            return [(0, packet)]
        normalized = self.normalize(message.uri)
        if normalized != message.uri:
            message.uri = normalized
            packet.set_payload(serialize_http(message))
        return [(0, packet)]


class HttpCacheResponderElement(Element):
    """Serves cached pages by synthesizing HTTP responses in the data plane.

    The paper's web cache: "If an HTTP request matches cached content,
    the web cache drops the request and returns the cached content to
    the sender." Config ``cache`` maps ``host`` to ``{uri: body}``.
    On a hit, the request is absorbed and a fully-formed response packet
    (Ethernet/IP/TCP swapped, correct ACK bookkeeping, HTTP 200 body)
    is emitted on port 1 — wire that port back toward the client.
    Misses pass through unchanged on port 0.
    """

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self.cache: dict[str, dict[str, str]] = {
            str(host).lower(): {str(uri): str(body) for uri, body in pages.items()}
            for host, pages in config.get("cache", {}).items()
        }
        self.hits = 0
        self.misses = 0

    def _lookup(self, packet: Packet) -> bytes | None:
        message = parse_http(packet.payload)
        if not isinstance(message, HttpRequest) or message.method != "GET":
            return None
        pages = self.cache.get(message.host.lower())
        if pages is None:
            return None
        uri = message.uri.split("?", 1)[0]
        body = pages.get(uri)
        return body.encode("latin-1") if body is not None else None

    def _synthesize_response(self, request: Packet, body: bytes) -> Packet:
        from repro.net.builder import make_tcp_packet
        from repro.net.ip import int_to_ip
        from repro.net.tcp import TcpFlags

        ipv4 = request.ipv4
        tcp = request.tcp
        payload = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/html\r\n"
            b"X-Cache: HIT\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        response = make_tcp_packet(
            int_to_ip(ipv4.dst), int_to_ip(ipv4.src),
            tcp.dst_port, tcp.src_port,
            payload=payload,
            flags=TcpFlags.ACK | TcpFlags.PSH,
            seq=tcp.ack,
            ack=(tcp.seq + len(request.payload)) & 0xFFFFFFFF,
            timestamp=request.timestamp,
        )
        return response

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        if packet.tcp is None:
            return [(0, packet)]
        body = self._lookup(packet)
        if body is None:
            self.misses += 1
            return [(0, packet)]
        self.hits += 1
        return [(1, self._synthesize_response(packet, body))]

    def read_handle(self, name: str) -> Any:
        if name == "hits":
            return self.hits
        if name == "misses":
            return self.misses
        return super().read_handle(name)


class HeaderPayloadRewriterElement(Element):
    """Literal payload substitution: config ``substitutions`` is a list of
    ``{"match": "...", "replace": "..."}`` applied in order."""

    def __init__(self, name: str, config: dict[str, Any], origin_app: str | None = None) -> None:
        super().__init__(name, config, origin_app)
        self._substitutions = [
            (entry["match"].encode("latin-1"), entry["replace"].encode("latin-1"))
            for entry in config.get("substitutions", ())
        ]

    def process(self, packet: Packet) -> list[tuple[int, Packet]]:
        payload = packet.payload
        rewritten = payload
        for needle, replacement in self._substitutions:
            rewritten = rewritten.replace(needle, replacement)
        if rewritten != payload:
            packet.set_payload(rewritten)
        return [(0, packet)]
