"""JSON wire codec for OpenBox protocol messages."""

from __future__ import annotations

import json
from typing import Any

from repro.core.classify.header import json_default
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import Message, message_class

#: Protocol version implemented by this repo (the paper's spec is 1.1.0).
#: Major 2 moves the fence token onto the envelope (``Message.epoch``)
#: and fences every request, so a 1.x peer — whose unstamped requests a
#: 2.x OBI would refuse — is turned away at Hello instead.
PROTOCOL_VERSION = "2.0.0"

#: Versions this codec accepts (same major version).
_ACCEPTED_MAJOR = PROTOCOL_VERSION.split(".")[0]


class CodecError(ProtocolError):
    """Raised when a wire payload cannot be decoded."""


def encode_message(message: Message) -> bytes:
    """Encode a message as a versioned JSON payload."""
    envelope = {"version": PROTOCOL_VERSION, "message": message.to_dict()}
    return json.dumps(envelope, separators=(",", ":"), default=json_default).encode()


def decode_message(payload: bytes | str) -> Message:
    """Decode a wire payload back into the matching message dataclass."""
    try:
        envelope: Any = json.loads(payload)
    except (ValueError, TypeError) as exc:
        raise CodecError(ErrorCode.MALFORMED_MESSAGE, str(exc)) from exc
    if not isinstance(envelope, dict):
        raise CodecError(ErrorCode.MALFORMED_MESSAGE, "payload is not an object")

    version = envelope.get("version", "")
    if not isinstance(version, str) or version.split(".")[0] != _ACCEPTED_MAJOR:
        raise CodecError(ErrorCode.UNSUPPORTED_VERSION, f"version {version!r}")

    data = envelope.get("message")
    if not isinstance(data, dict):
        raise CodecError(ErrorCode.MALFORMED_MESSAGE, "missing message body")
    type_name = data.get("type")
    cls = message_class(type_name) if isinstance(type_name, str) else None
    if cls is None:
        raise CodecError(ErrorCode.UNKNOWN_MESSAGE, f"type {type_name!r}")
    try:
        return cls.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CodecError(ErrorCode.MALFORMED_MESSAGE, str(exc)) from exc
