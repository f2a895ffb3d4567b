"""The OpenBox protocol: messages exchanged between the OBC and OBIs.

The protocol (paper §3.2, spec [35]) defines JSON-encoded messages over a
dual REST channel. This package provides:

* :mod:`repro.protocol.messages` — one dataclass per message type, with
  transaction ids (``xid``) for request/response correlation;
* :mod:`repro.protocol.codec` — the JSON wire codec with protocol
  versioning;
* :mod:`repro.protocol.blocks_spec` — serialization of the abstract
  block-type registry for capability advertisement in ``Hello``;
* :mod:`repro.protocol.errors` — protocol-level error codes.
"""
